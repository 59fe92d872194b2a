/**
 * @file
 * Fundamental simulation types shared by every rasim subsystem.
 */

#ifndef RASIM_SIM_TYPES_HH
#define RASIM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace rasim
{

/**
 * Simulated time. One tick is one network cycle; cores, caches and
 * DRAM express their latencies in network cycles.
 */
using Tick = std::uint64_t;

/** A count of network cycles. */
using Cycle = std::uint64_t;

/** Largest representable tick; used as "never". */
constexpr Tick max_tick = std::numeric_limits<Tick>::max();

/** Identifier of a node (tile) on the on-chip network. */
using NodeId = std::uint32_t;

/** Identifier distinguishing packets for reassembly and statistics. */
using PacketId = std::uint64_t;

/** Physical memory address in the simulated target. */
using Addr = std::uint64_t;

/** Invalid node marker. */
constexpr NodeId invalid_node = std::numeric_limits<NodeId>::max();

} // namespace rasim

#endif // RASIM_SIM_TYPES_HH
