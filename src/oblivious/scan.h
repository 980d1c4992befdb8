#pragma once

/**
 * @file
 * Oblivious scans: the linear-scan table lookup kernel, oblivious argmax
 * and top-k.
 *
 * These are the building blocks of the paper's "Table: Linear Scan"
 * technique and of its oblivious greedy decoding for LLMs.
 */

#include <cstdint>
#include <span>
#include <vector>

namespace secemb::oblivious {

/**
 * The oblivious linear scan (Section V-A2), the one kernel behind every
 * scan-based table. `block` holds rows [first_row, first_row + block.size()
 * / dim) of a row-major table with rows of `dim` floats. For each batch
 * slot b in [b0, b1) and each of its ids, the kernel reads every row of the
 * block and folds the row whose number equals the id into out[b * dim,
 * (b + 1) * dim):
 *   - single-hot (offsets empty): slot b has the one id ids[b], and the
 *     matching row is blended in, a bit-exact copy;
 *   - pooled: slot b has the bag ids[offsets[b], offsets[b + 1]), and each
 *     matching row is added in, in bag order.
 * An id outside the block leaves its slot unchanged, so scanning every
 * block of a table (the pages of a paged table) completes the lookup. The
 * rows and columns read are a function of the shapes only, never of the
 * ids. Offsets must be non-decreasing within [0, ids.size()] (asserted).
 */
void ScanRows(std::span<const float> block, int64_t first_row, int64_t dim,
              std::span<const int64_t> ids,
              std::span<const int64_t> offsets, int64_t b0, int64_t b1,
              std::span<float> out);

/**
 * Index of the maximum value, computed with a constant-time scan
 * (the paper's oblivious argmax for LLM greedy decoding, Section V-C).
 * Ties resolve to the lowest index.
 */
int64_t ObliviousArgmax(std::span<const float> values);

/**
 * Indices of the k largest values, in descending value order, computed
 * with constant-time scans only (k passes of oblivious argmax with
 * oblivious masking). Supports the top-k sampling extension for secure
 * LLM decoding beyond the paper's greedy argmax.
 */
std::vector<int64_t> ObliviousTopK(std::span<const float> values,
                                   int64_t k);

}  // namespace secemb::oblivious
