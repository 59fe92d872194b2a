#include "noc/params.hh"

#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

void
NocParams::validate() const
{
    if (columns < 1 || rows < 1)
        fatal("noc: dimensions must be positive (", columns, "x", rows,
              ")");
    if (vcs_per_vnet < 1)
        fatal("noc: vcs_per_vnet must be >= 1");
    if (vc_classes < 1 || vc_classes > 2)
        fatal("noc: vc_classes must be 1 or 2");
    if (totalVcs() > max_vcs_per_port)
        fatal("noc: at most ", max_vcs_per_port, " VCs per port (got ",
              totalVcs(), " = ", num_vnets, " vnets x ", vc_classes,
              " classes x ", vcs_per_vnet, " vcs_per_vnet)");
    if (topology == "torus" && vc_classes != 2)
        fatal("noc: torus topologies need vc_classes=2 (datelines)");
    if (buffer_depth < 1 || buffer_depth > max_buffer_depth)
        fatal("noc: buffer_depth must be in [1, ", max_buffer_depth,
              "]");
    if (link_latency < 1)
        fatal("noc: link_latency must be >= 1");
    if (pipeline_stages < 1)
        fatal("noc: pipeline_stages must be >= 1");
    if (flit_bytes == 0)
        fatal("noc: flit_bytes must be > 0");
    if (topology != "mesh" && topology != "torus")
        fatal("noc: unknown topology '", topology, "'");
    if (simd != "auto" && simd != "scalar" && simd != "avx2")
        fatal("noc: unknown kernel.simd '", simd,
              "' (expected auto, scalar or avx2)");
}

} // namespace noc
} // namespace rasim
