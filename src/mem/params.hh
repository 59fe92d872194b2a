/**
 * @file
 * Memory hierarchy parameters.
 */

#ifndef RASIM_MEM_PARAMS_HH
#define RASIM_MEM_PARAMS_HH

#include <string>

#include "sim/config.hh"
#include "sim/types.hh"

namespace rasim
{
namespace mem
{

struct MemParams
{
    int block_bytes = 64;
    int l1_sets = 64;
    int l1_ways = 4;
    std::string l1_replacement = "lru";
    /** L1 hit latency in cycles. */
    Tick l1_latency = 2;
    /** Directory/L2-slice lookup latency in cycles. */
    Tick dir_latency = 6;
    /** DRAM access latency in cycles (per bank). */
    Tick dram_latency = 100;
    int dram_banks = 8;
    /** Outstanding misses per L1. */
    int mshrs = 8;
    /** Evicted-dirty-block buffer entries per L1. */
    int wb_buffer = 4;
    /** Wire size of control messages in bytes. */
    int control_bytes = 8;

    void
    keys(config::Binder &v)
    {
        v("mem.block_bytes", block_bytes);
        v("mem.l1_sets", l1_sets);
        v("mem.l1_ways", l1_ways);
        v("mem.l1_replacement", l1_replacement);
        v("mem.l1_latency", l1_latency);
        v("mem.dir_latency", dir_latency);
        v("mem.dram_latency", dram_latency);
        v("mem.dram_banks", dram_banks);
        v("mem.mshrs", mshrs);
        v("mem.wb_buffer", wb_buffer);
        v("mem.control_bytes", control_bytes);
    }

    void validate() const;

    Addr
    blockAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(block_bytes - 1);
    }

    int dataBytes() const { return control_bytes + block_bytes; }
};

} // namespace mem
} // namespace rasim

#endif // RASIM_MEM_PARAMS_HH
