/**
 * @file
 * AVX2 specialisation of the occupancy-block scan. This translation
 * unit is the only one compiled with -mavx2 (see src/noc/CMakeLists),
 * so AVX2 instructions cannot leak into code that runs on pre-AVX2
 * hosts; the function is reached solely through the runtime dispatch
 * in activeScanFor().
 */

#include "noc/kernel/active_scan.hh"

#if defined(RASIM_SIMD_AVX2)

#include <immintrin.h>

namespace rasim
{
namespace noc
{
namespace kernel
{

std::size_t
activeScanAvx2(const std::uint32_t *occ, std::size_t blocks,
               std::size_t words_per_block, int *out)
{
    // words_per_block is a multiple of 8, so every block is a whole
    // number of 256-bit chunks; OR them together and test for zero.
    // Then, as in the scalar scan, write every index and advance the
    // count only past non-zero blocks.
    const std::size_t chunks = words_per_block / 8;
    std::size_t n = 0;
    for (std::size_t i = 0; i < blocks; ++i) {
        const __m256i *block = reinterpret_cast<const __m256i *>(
            occ + i * words_per_block);
        __m256i acc = _mm256_loadu_si256(block);
        for (std::size_t c = 1; c < chunks; ++c)
            acc = _mm256_or_si256(acc,
                                  _mm256_loadu_si256(block + c));
        out[n] = static_cast<int>(i);
        n += !_mm256_testz_si256(acc, acc);
    }
    return n;
}

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_SIMD_AVX2
