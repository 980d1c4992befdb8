#pragma once

/**
 * @file
 * Minimal dense float tensor used throughout the secemb library.
 *
 * Row-major, owning, up to 4 dimensions. This deliberately small surface
 * replaces the PyTorch dependency of the original artifact: the paper's
 * evaluation only needs dense GEMM, elementwise math, and gather/scatter.
 */

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/rng.h"

namespace secemb {

/** Shape of a tensor; at most 4 dimensions in this library. */
using Shape = std::vector<int64_t>;

/**
 * Dense row-major float tensor with value semantics.
 *
 * Copying copies the buffer; moves are cheap. All indexing is checked in
 * debug builds via assert and unchecked in release builds. Payloads are
 * allocated 64-byte aligned (see tensor/aligned.h): the SIMD GEMM and
 * scan kernels rely on data() being cache-line/vector aligned.
 */
class Tensor
{
  public:
    /** Empty tensor (numel() == 0, dim() == 0). */
    Tensor() = default;

    /**
     * Zero-initialised tensor of the given shape.
     *
     * Deliberately the only braced-constructible form: a value-list
     * constructor would make Tensor({rows, cols}) silently build a 1-D
     * value tensor (the std::vector gotcha); use Values() for literals.
     */
    explicit Tensor(Shape shape);

    /** 1-D tensor from explicit values, e.g. Tensor::Values({1, 2, 3}). */
    static Tensor Values(std::initializer_list<float> values);

    // -- Factories ---------------------------------------------------------

    static Tensor Zeros(Shape shape);
    static Tensor Ones(Shape shape);
    static Tensor Full(Shape shape, float value);
    /** I.i.d. N(0, stddev^2). */
    static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
    /** I.i.d. U[lo, hi). */
    static Tensor Uniform(Shape shape, Rng& rng, float lo, float hi);

    // -- Introspection -----------------------------------------------------

    const Shape& shape() const { return shape_; }
    int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
    int64_t size(int64_t d) const;
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }
    bool empty() const { return data_.empty(); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::span<float> flat() { return data_; }
    std::span<const float> flat() const { return data_; }

    // -- Element access ----------------------------------------------------

    float& at(int64_t i);
    float at(int64_t i) const;
    float& at(int64_t i, int64_t j);
    float at(int64_t i, int64_t j) const;

    /** Row view of a 2-D tensor. */
    std::span<float> row(int64_t i);
    std::span<const float> row(int64_t i) const;

    // -- Shape manipulation --------------------------------------------------

    /** Reshape preserving numel; returns a copy with the new shape. */
    Tensor Reshape(Shape shape) const;
    /** Transpose of a 2-D tensor. */
    Tensor Transpose2D() const;

    // -- Elementwise (in place) ----------------------------------------------

    Tensor& Fill(float value);
    Tensor& AddInPlace(const Tensor& other);
    Tensor& SubInPlace(const Tensor& other);
    Tensor& ScaleInPlace(float s);

    // -- Elementwise (returning) ---------------------------------------------

    Tensor Sub(const Tensor& other) const;

    // -- Reductions ----------------------------------------------------------

    /** Squared L2 norm. */
    float SquaredNorm() const;

    /** Memory used by the payload in bytes. */
    int64_t SizeBytes() const { return numel() * int64_t{sizeof(float)}; }

    /** True if shapes equal and all elements within tol. */
    bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  private:
    Shape shape_;
    AlignedFloatVector data_;

    int64_t Offset2(int64_t i, int64_t j) const;
};

/** numel for a shape. */
int64_t ShapeNumel(const Shape& shape);

}  // namespace secemb
