/**
 * @file
 * Occupancy-block scan: the data-parallel primitive of the SoA kernel.
 *
 * The SoA fabrics maintain one fixed-width block of occupancy counters
 * per node (8 or 16 u32 words — 32 or 64 bytes — each word counting
 * one class of pending work, with exactly one writer per phase). A
 * node needs visiting in a phase iff its block is non-zero, so a
 * worklist build reduces to "collect the indices of the non-zero
 * blocks" — a pure streaming scan over contiguous memory. That is the
 * kernel specialised for AVX2 (one 256-bit load + VPTEST per 32-byte
 * chunk); the scalar loop is bit-identical by construction because
 * both produce the same ascending index list.
 */

#ifndef RASIM_NOC_KERNEL_ACTIVE_SCAN_HH
#define RASIM_NOC_KERNEL_ACTIVE_SCAN_HH

#include <cstddef>
#include <cstdint>

#include "sim/cpuid.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

/**
 * Write to @p out the ascending indices i in [0, blocks) for which
 * the u32 words occ[i*words_per_block .. (i+1)*words_per_block) are
 * not all zero, and return how many there are. Indices count from
 * @p occ, so a scan of a sub-block yields indices relative to its
 * first node. @p words_per_block must be a multiple of 8 (32-byte
 * chunks). Both implementations are branch-free per block: they write
 * an index for every block and advance the count by (block != 0), so
 * @p out must have room for @p blocks entries.
 */
using ActiveScanFn = std::size_t (*)(const std::uint32_t *occ,
                                     std::size_t blocks,
                                     std::size_t words_per_block,
                                     int *out);

/** Portable reference implementation. */
std::size_t activeScanScalar(const std::uint32_t *occ,
                             std::size_t blocks,
                             std::size_t words_per_block, int *out);

/** AVX2 implementation; only present when RASIM_SIMD compiled it in.
 *  Calling it on a CPU without AVX2 is undefined — resolve through
 *  activeScanFor() instead. */
#if defined(RASIM_SIMD_AVX2)
std::size_t activeScanAvx2(const std::uint32_t *occ, std::size_t blocks,
                           std::size_t words_per_block, int *out);
#endif

/** Pick the implementation for a resolved SIMD level. */
ActiveScanFn activeScanFor(cpuid::SimdLevel level);

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_ACTIVE_SCAN_HH
