#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace secemb {

int64_t
ShapeNumel(const Shape& shape)
{
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return shape.empty() ? 0 : n;
}

namespace {

/** numel with dimension validation; runs before storage is allocated. */
int64_t
CheckedNumel(const Shape& shape)
{
    for (int64_t d : shape) {
        if (d < 0) throw std::invalid_argument("negative tensor dimension");
    }
    return ShapeNumel(shape);
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(CheckedNumel(shape_)), 0.0f)
{
}

Tensor
Tensor::Values(std::initializer_list<float> values)
{
    Tensor t;
    t.shape_ = {static_cast<int64_t>(values.size())};
    t.data_ = values;
    return t;
}

Tensor
Tensor::Zeros(Shape shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::Ones(Shape shape)
{
    return Full(std::move(shape), 1.0f);
}

Tensor
Tensor::Full(Shape shape, float value)
{
    Tensor t(std::move(shape));
    t.Fill(value);
    return t;
}

Tensor
Tensor::Randn(Shape shape, Rng& rng, float stddev)
{
    Tensor t(std::move(shape));
    for (float& v : t.data_) v = rng.NextGaussian() * stddev;
    return t;
}

Tensor
Tensor::Uniform(Shape shape, Rng& rng, float lo, float hi)
{
    Tensor t(std::move(shape));
    for (float& v : t.data_) v = rng.NextUniform(lo, hi);
    return t;
}

int64_t
Tensor::size(int64_t d) const
{
    assert(d >= 0 && d < dim());
    return shape_[static_cast<size_t>(d)];
}

int64_t
Tensor::Offset2(int64_t i, int64_t j) const
{
    assert(dim() == 2);
    assert(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
    return i * shape_[1] + j;
}

float&
Tensor::at(int64_t i)
{
    assert(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
}

float
Tensor::at(int64_t i) const
{
    assert(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
}

float&
Tensor::at(int64_t i, int64_t j)
{
    return data_[static_cast<size_t>(Offset2(i, j))];
}

float
Tensor::at(int64_t i, int64_t j) const
{
    return data_[static_cast<size_t>(Offset2(i, j))];
}

std::span<float>
Tensor::row(int64_t i)
{
    assert(dim() == 2 && i >= 0 && i < shape_[0]);
    return {data_.data() + i * shape_[1], static_cast<size_t>(shape_[1])};
}

std::span<const float>
Tensor::row(int64_t i) const
{
    assert(dim() == 2 && i >= 0 && i < shape_[0]);
    return {data_.data() + i * shape_[1], static_cast<size_t>(shape_[1])};
}

Tensor
Tensor::Reshape(Shape shape) const
{
    if (ShapeNumel(shape) != numel()) {
        throw std::invalid_argument("Reshape: numel mismatch");
    }
    Tensor t = *this;
    t.shape_ = std::move(shape);
    return t;
}

Tensor
Tensor::Transpose2D() const
{
    assert(dim() == 2);
    const int64_t r = shape_[0], c = shape_[1];
    Tensor t({c, r});
    for (int64_t i = 0; i < r; ++i) {
        for (int64_t j = 0; j < c; ++j) {
            t.at(j, i) = at(i, j);
        }
    }
    return t;
}

Tensor&
Tensor::Fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
    return *this;
}

Tensor&
Tensor::AddInPlace(const Tensor& other)
{
    assert(numel() == other.numel());
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Tensor&
Tensor::SubInPlace(const Tensor& other)
{
    assert(numel() == other.numel());
    for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
}

Tensor&
Tensor::ScaleInPlace(float s)
{
    for (float& v : data_) v *= s;
    return *this;
}

Tensor
Tensor::Sub(const Tensor& other) const
{
    Tensor t = *this;
    return t.SubInPlace(other), t;
}

float
Tensor::SquaredNorm() const
{
    double acc = 0.0;
    for (float v : data_) acc += static_cast<double>(v) * v;
    return static_cast<float>(acc);
}

bool
Tensor::AllClose(const Tensor& other, float tol) const
{
    if (shape_ != other.shape_) return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (std::abs(data_[i] - other.data_[i]) > tol) return false;
    }
    return true;
}

}  // namespace secemb
