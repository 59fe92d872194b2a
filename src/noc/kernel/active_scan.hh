/**
 * @file
 * Occupancy-block scan: the data-parallel primitive of the SoA kernel.
 *
 * The SoA fabrics maintain one fixed-width block of occupancy counters
 * per node (8 or 16 u32 words — 32 or 64 bytes — each word counting
 * one class of pending work, with exactly one writer per phase). A
 * node needs visiting in a phase iff its block is non-zero, so the
 * per-cycle worklist build reduces to "collect the indices of the
 * non-zero blocks" — a pure streaming scan over contiguous memory.
 * That is the kernel specialised for AVX2 (one 256-bit load + VPTEST
 * per 32-byte chunk); the scalar loop is bit-identical by construction
 * because both produce the same ascending index list.
 */

#ifndef RASIM_NOC_KERNEL_ACTIVE_SCAN_HH
#define RASIM_NOC_KERNEL_ACTIVE_SCAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cpuid.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

/**
 * Append to @p out the ascending indices i in [0, blocks) for which
 * the u32 words occ[i*words_per_block .. (i+1)*words_per_block) are
 * not all zero. @p words_per_block must be a multiple of 8 (32-byte
 * chunks). @p out is NOT cleared. Both implementations are
 * branch-free per block: they grow @p out by @p blocks, write every
 * index and advance the count by (block != 0), then trim, so a
 * caller that reserved room never reallocates.
 */
using ActiveScanFn = void (*)(const std::uint32_t *occ,
                              std::size_t blocks,
                              std::size_t words_per_block,
                              std::vector<int> &out);

/** Portable reference implementation. */
void activeScanScalar(const std::uint32_t *occ, std::size_t blocks,
                      std::size_t words_per_block,
                      std::vector<int> &out);

/** AVX2 implementation; only present when RASIM_SIMD compiled it in.
 *  Calling it on a CPU without AVX2 is undefined — resolve through
 *  activeScanFor() instead. */
#if defined(RASIM_SIMD_AVX2)
void activeScanAvx2(const std::uint32_t *occ, std::size_t blocks,
                    std::size_t words_per_block,
                    std::vector<int> &out);
#endif

/** Pick the implementation for a resolved SIMD level. */
ActiveScanFn activeScanFor(cpuid::SimdLevel level);

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_ACTIVE_SCAN_HH
