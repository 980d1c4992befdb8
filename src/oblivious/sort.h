#pragma once

/**
 * @file
 * Oblivious sorting (bitonic network).
 *
 * A sorting network's compare-exchange sequence depends only on the input
 * *length*, so sorting with constant-time swaps is data-oblivious — the
 * standard building block for oblivious initialisation and shuffling in
 * the ORAM literature (and the machinery behind the Square-Root ORAM
 * baseline in src/oram/sqrt_oram.*).
 */

#include <cstdint>
#include <span>
#include <vector>

namespace secemb::oblivious {

/**
 * Sort keys ascending with a bitonic network; rows[i] moves with
 * keys[i]. Every compare-exchange executes a constant-time conditional
 * swap of both the key and its payload row, so the memory trace depends
 * only on keys.size() (which need not be a power of two).
 *
 * @param keys sort keys, modified in place
 * @param rows optional payload matrix, row i paired with keys[i];
 *        pass {} for key-only sorting. Size must be keys.size() * row_words.
 * @param row_words payload row width in 32-bit words
 */
void ObliviousSortByKey(std::span<uint64_t> keys,
                        std::span<uint32_t> rows, int64_t row_words);

}  // namespace secemb::oblivious
