/**
 * @file
 * Shared helpers for the experiment harnesses: aligned table printing,
 * wall-clock timing and common FullSystem setups. Each bench binary
 * regenerates one table/figure from DESIGN.md's experiment index and
 * prints the rows the paper reports.
 */

#ifndef RASIM_BENCH_BENCH_UTIL_HH
#define RASIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cosim/full_system.hh"

namespace benchutil
{

/** Wall-clock seconds spent in fn(). */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median and quartiles of a sample (linear interpolation between
 *  order statistics). */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;

    double iqr() const { return q3 - q1; }
};

inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    auto at = [&v](double frac) {
        double pos = frac * static_cast<double>(v.size() - 1);
        std::size_t lo = static_cast<std::size_t>(pos);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    q.q1 = at(0.25);
    q.median = at(0.5);
    q.q3 = at(0.75);
    return q;
}

inline double
relErr(double value, double reference)
{
    return reference == 0.0 ? 0.0
                            : std::abs(value - reference) / reference;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Print one row of right-aligned cells under a fixed width. */
inline void
printRow(const std::vector<std::string> &cells, int width = 14)
{
    for (const std::string &c : cells)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double v, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string
pct(double v, int precision = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

/**
 * Baseline options shared by the accuracy experiments: an 8x8 target
 * with a lean network (1 VC/vnet, shallow buffers) and fast memory so
 * the fabric carries meaningful contention — the regime where network
 * fidelity matters.
 */
inline rasim::cosim::FullSystemOptions
accuracyOptions(rasim::cosim::Mode mode, const std::string &app,
                std::uint64_t ops = 250)
{
    rasim::cosim::FullSystemOptions o;
    o.mode = mode;
    o.app = app;
    o.ops_per_core = ops;
    o.quantum = 256;
    o.noc.columns = 8;
    o.noc.rows = 8;
    o.noc.vcs_per_vnet = 1;
    o.noc.buffer_depth = 2;
    o.mem.l1_sets = 32;
    o.mem.dram_latency = 40;
    o.mem.mshrs = 16;
    return o;
}

} // namespace benchutil

#endif // RASIM_BENCH_BENCH_UTIL_HH
