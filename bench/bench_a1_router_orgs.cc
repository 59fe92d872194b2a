/**
 * @file
 * A1 (extension ablation, DESIGN.md "design choices in the detailed
 * component"): virtual-channel versus bufferless deflection router
 * organisations, swept over offered load — the latency/energy
 * trade-off study the detailed component model enables.
 *
 * The second table asks the same question in context, as E1 asks it of
 * a NoC: the eight applications under 8x8 reciprocal co-simulation on
 * each organisation (noc.router), five seeds each, reporting the
 * full-system finish tick and the mean packet latency.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "noc/power.hh"
#include "sim/simulation.hh"
#include "workload/app_profiles.hh"
#include "workload/traffic.hh"

using namespace rasim;
using namespace benchutil;

namespace
{

struct OrgResult
{
    double latency = 0.0;
    double energy_pj = 0.0;
    double deflections = 0.0;
};

OrgResult
runOrg(bool deflection, double rate)
{
    Simulation sim;
    noc::NocParams p;
    OrgResult r;
    const Tick cycles = 15000;

    auto drive = [&](noc::NetworkModel &net) {
        workload::TrafficGenerator::Options o;
        o.rate = rate;
        o.size_bytes = 8;
        o.data_frac = 0.4;
        workload::TrafficGenerator gen(net, p.columns, p.rows, o,
                                       sim.makeRng(11));
        for (Tick t = 128; t <= cycles; t += 128) {
            gen.generateTo(t);
            net.advanceTo(t);
        }
        net.advanceTo(cycles + 100000);
    };

    if (deflection) {
        noc::DeflectionNetwork net(sim, "dnoc", p);
        drive(net);
        r.latency = net.totalLatency.mean();
        r.deflections = net.flitsDeflected.value();
        // Bufferless energy: no buffer writes; price hops as switch +
        // link events.
        noc::PowerParams pw;
        noc::NocActivity a;
        a.routers = 64;
        a.cycles = cycles;
        auto hops = static_cast<std::uint64_t>(
            net.flitsEjected.value() + net.flitsDeflected.value());
        a.switch_traversals = hops;
        a.link_traversals = hops;
        r.energy_pj = noc::NocPowerModel(pw).estimate(a).totalPj();
    } else {
        noc::CycleNetwork net(sim, "noc", p);
        drive(net);
        r.latency = net.totalLatency.mean();
        r.energy_pj = noc::NocPowerModel()
                          .estimate(noc::activityOf(net))
                          .totalPj();
    }
    return r;
}

/** "median [min, max]" of @p v. */
std::string
medianRange(std::vector<double> v, int precision)
{
    std::sort(v.begin(), v.end());
    return fmt(quartiles(v).median, precision) + " [" +
           fmt(v.front(), precision) + ", " + fmt(v.back(), precision) +
           "]";
}

struct InContext
{
    std::vector<double> finish;
    std::vector<double> latency;
    /** Packets per node per cycle, the isolated table's rate unit. */
    std::vector<double> load;
};

InContext
runInContext(const std::string &app, noc::RouterKind router)
{
    InContext r;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cosim::FullSystemOptions o;
        o.mode = cosim::Mode::CosimCycle;
        o.app = app;
        o.ops_per_core = 250;
        o.noc.router = router;
        o.sim.seed = seed;
        cosim::FullSystem sys(Config(), o);
        auto finish = static_cast<double>(sys.run());
        r.finish.push_back(finish);
        r.latency.push_back(sys.meanPacketLatency());
        r.load.push_back(static_cast<double>(sys.packetsDelivered()) /
                         (static_cast<double>(sys.numCores()) * finish));
    }
    return r;
}

} // namespace

int
main()
{
    printHeader("A1: VC router vs bufferless deflection router "
                "(8x8 mesh, uniform random)");
    printRow({"rate", "vc_lat", "defl_lat", "vc_energy_nJ",
              "defl_energy_nJ", "deflections"});
    for (double rate : {0.01, 0.03, 0.06, 0.10, 0.14}) {
        OrgResult vc = runOrg(false, rate);
        OrgResult dn = runOrg(true, rate);
        printRow({fmt(rate, 3), fmt(vc.latency), fmt(dn.latency),
                  fmt(vc.energy_pj / 1000.0), fmt(dn.energy_pj / 1000.0),
                  fmt(dn.deflections, 0)});
    }
    std::printf("\n(bufferless wins energy at low load — no buffers to "
                "write — and loses latency as deflections grow)\n");

    printHeader("A1 in context: VC vs deflection router under 8x8 "
                "reciprocal co-simulation (median [min, max] of 5 seeds)");
    const int w = 24;
    std::printf("%-10s", "app");
    printRow({"vc_load", "vc_finish", "defl_finish", "vc_lat", "defl_lat"},
             w);
    int defl_faster = 0;
    for (const workload::AppProfile &app : workload::appProfiles()) {
        InContext vc = runInContext(app.name, noc::RouterKind::Vc);
        InContext dn = runInContext(app.name, noc::RouterKind::Deflection);
        std::printf("%-10s", app.name.c_str());
        printRow({medianRange(vc.load, 4), medianRange(vc.finish, 0),
                  medianRange(dn.finish, 0),
                  medianRange(vc.latency, 2), medianRange(dn.latency, 2)},
                 w);
        defl_faster +=
            quartiles(dn.finish).median < quartiles(vc.finish).median;
    }
    std::printf("\ndeflection finishes first (median) on %d of %zu "
                "apps; vc_load is the offered load (packets/node/cycle) "
                "at which to read the isolated table\n",
                defl_faster, workload::appProfiles().size());
    return 0;
}
