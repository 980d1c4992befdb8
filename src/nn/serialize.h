#pragma once

/**
 * @file
 * Binary serialization for tensors and parameter sets.
 *
 * The original artifact ships pretrained models (Zenodo); this is the
 * equivalent facility: train once (e.g. the all-DHE DLRM of Algorithm 2),
 * save, and deploy into secure generators later. The format is a simple
 * versioned little-endian stream — not an interchange format.
 *
 * Loading is hardened against corrupt or truncated files: header dims and
 * the total element count are validated against the remaining file size
 * *before* any allocation, so a flipped header byte cannot trigger a
 * multi-GB resize or an integer overflow. Every load error names the
 * offending path and byte offset.
 */

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace secemb::nn {

/** Write one tensor (shape + payload). Throws std::runtime_error on IO
 * failure. */
void SaveTensor(const Tensor& t, const std::string& path);

/** Read a tensor written by SaveTensor. */
Tensor LoadTensor(const std::string& path);

/**
 * Write all parameter values (grads excluded) in order. The loader must
 * present the same number of parameters with identical shapes.
 */
void SaveParameters(const std::vector<Parameter*>& params,
                    const std::string& path);

/**
 * Restore parameter values saved by SaveParameters into `params`,
 * bumping each one's version. Throws std::runtime_error on count/shape
 * mismatch or IO failure.
 */
void LoadParameters(const std::vector<Parameter*>& params,
                    const std::string& path);

}  // namespace secemb::nn
