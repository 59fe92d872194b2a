#include "noc/params.hh"

#include "sim/config.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

NocParams
NocParams::fromConfig(const Config &cfg)
{
    NocParams p;
    p.columns = static_cast<int>(cfg.getUInt("noc.columns", 8));
    p.rows = static_cast<int>(cfg.getUInt("noc.rows", 8));
    p.topology = cfg.getString("noc.topology", "mesh");
    p.routing = cfg.getString("noc.routing", "xy");
    p.vcs_per_vnet = static_cast<int>(cfg.getUInt("noc.vcs_per_vnet", 2));
    p.vc_classes = static_cast<int>(
        cfg.getUInt("noc.vc_classes", p.topology == "torus" ? 2 : 1));
    p.buffer_depth = static_cast<int>(cfg.getUInt("noc.buffer_depth", 4));
    p.link_latency = static_cast<int>(cfg.getUInt("noc.link_latency", 1));
    p.pipeline_stages =
        static_cast<int>(cfg.getUInt("noc.pipeline_stages", 2));
    p.flit_bytes =
        static_cast<std::uint32_t>(cfg.getUInt("noc.flit_bytes", 16));
    // soa is the only kernel; the object reference implementation is
    // a test oracle (tests/noc/oracle/), not something a run can pick.
    std::string kernel = cfg.getString("network.kernel", "soa");
    if (kernel != "soa")
        fatal("noc: unknown network.kernel '", kernel,
              "' (soa is the only kernel; the object kernel exists only "
              "as a test oracle)");
    p.simd = cfg.getString("kernel.simd", "auto");
    p.validate();
    return p;
}

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
