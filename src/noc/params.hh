/**
 * @file
 * Cycle-level network parameters and the VC indexing scheme.
 */

#ifndef RASIM_NOC_PARAMS_HH
#define RASIM_NOC_PARAMS_HH

#include <cstdint>
#include <string>

#include "noc/packet.hh"

namespace rasim
{

class Config;

namespace noc
{

/**
 * Configuration of the cycle-level network.
 *
 * VC layout: each virtual network owns `vc_classes * vcs_per_vnet`
 * consecutive VCs. The class dimension implements dateline deadlock
 * avoidance on tori (class 1 after crossing a wrap link); meshes use a
 * single class.
 */
struct NocParams
{
    /** The soa kernel keeps one u32 VC bitmask per (node, port). */
    static constexpr int max_vcs_per_port = 32;
    /** The soa kernel counts buffered flits per VC in 16 bits. */
    static constexpr int max_buffer_depth = 65535;

    int columns = 8;
    int rows = 8;
    std::string topology = "mesh";
    std::string routing = "xy";
    /** VCs per (vnet, class) pool. */
    int vcs_per_vnet = 2;
    /** Dateline classes: 1 for mesh, 2 for torus. */
    int vc_classes = 1;
    /** Buffer depth per VC, in flits. */
    int buffer_depth = 4;
    /** Link traversal latency in cycles (>= 1). */
    int link_latency = 1;
    /** Per-hop router pipeline depth in cycles (>= 1). */
    int pipeline_stages = 2;
    /** Link width: bytes carried per flit. */
    std::uint32_t flit_bytes = 16;
    /** SIMD policy for the SoA kernel: "auto", "scalar" or "avx2". */
    std::string simd = "auto";

    /**
     * Read "noc.*" keys (plus "kernel.simd"), applying topology-
     * dependent defaults. "network.kernel" is still read, and "soa",
     * the only kernel, is its only accepted value.
     */
    static NocParams fromConfig(const Config &cfg);

    /** Abort with fatal() on inconsistent values or values beyond the
     *  soa kernel's limits (max_vcs_per_port, max_buffer_depth). */
    void validate() const;

    int numNodes() const { return columns * rows; }
    int vcsPerVnet() const { return vcs_per_vnet * vc_classes; }
    int totalVcs() const { return num_vnets * vcsPerVnet(); }

    /** Global VC index of (vnet, class, index-within-pool). */
    int
    vcIndex(int vnet, int cls, int i) const
    {
        return (vnet * vc_classes + cls) * vcs_per_vnet + i;
    }

    int vnetOf(int vc) const { return vc / vcsPerVnet(); }
    int classOf(int vc) const { return (vc / vcs_per_vnet) % vc_classes; }

    std::uint32_t
    flitsPerPacket(std::uint32_t size_bytes) const
    {
        return flitsForBytes(size_bytes, flit_bytes);
    }
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_PARAMS_HH
