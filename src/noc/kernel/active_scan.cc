#include "noc/kernel/active_scan.hh"

#include "sim/logging.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

std::size_t
activeScanScalar(const std::uint32_t *occ, std::size_t blocks,
                 std::size_t words_per_block, int *out)
{
    // Branch-free: write every index, keep it by advancing the count
    // only past non-zero blocks.
    std::size_t n = 0;
    for (std::size_t i = 0; i < blocks; ++i) {
        const std::uint32_t *block = occ + i * words_per_block;
        std::uint32_t acc = 0;
        for (std::size_t w = 0; w < words_per_block; ++w)
            acc |= block[w];
        out[n] = static_cast<int>(i);
        n += acc != 0;
    }
    return n;
}

ActiveScanFn
activeScanFor(cpuid::SimdLevel level)
{
#if defined(RASIM_SIMD_AVX2)
    if (level == cpuid::SimdLevel::Avx2)
        return &activeScanAvx2;
#else
    if (level == cpuid::SimdLevel::Avx2)
        panic("active scan: AVX2 requested in a build without "
              "RASIM_SIMD");
#endif
    return &activeScanScalar;
}

} // namespace kernel
} // namespace noc
} // namespace rasim
