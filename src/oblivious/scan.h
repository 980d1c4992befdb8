#pragma once

/**
 * @file
 * Oblivious scans: the linear-scan table lookup kernel and oblivious
 * argmax.
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
 * slot b in [b0, b1), the kernel reads every row of the block and blends
 * the row whose number equals ids[b] into out[b * dim, (b + 1) * dim), a
 * bit-exact copy. An id outside the block leaves its slot unchanged, so
 * scanning every block of a table (the pages of a paged table) completes
 * the lookup. The rows and columns read are a function of the shapes
 * only, never of the ids.
 */
void ScanRows(std::span<const float> block, int64_t first_row, int64_t dim,
              std::span<const int64_t> ids, int64_t b0, int64_t b1,
              std::span<float> out);

/**
 * Index of the maximum value, computed with a constant-time scan
 * (the paper's oblivious argmax for LLM greedy decoding, Section V-C).
 * Ties resolve to the lowest index.
 */
int64_t ObliviousArgmax(std::span<const float> values);

}  // namespace secemb::oblivious
