/**
 * @file
 * Using the cycle-level NoC as a standalone network simulator: sweep
 * synthetic patterns and injection rates, print latency/throughput —
 * the classic "NoC simulator" workflow (which E1 then critiques).
 *
 *   ./standalone_noc [noc.columns=8] [noc.routing=westfirst] ...
 */

#include <cstdio>

#include "noc/cycle_network.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/traffic.hh"

using namespace rasim;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    auto params = config::parse<noc::NocParams>(cfg);

    std::printf("%-10s %8s %12s %12s %12s %12s\n", "pattern", "rate",
                "mean_lat", "max_lat", "mean_hops", "throughput");
    for (const char *name : {"uniform", "transpose", "bitcomp",
                             "tornado", "neighbor", "hotspot"}) {
        for (double rate : {0.01, 0.05, 0.10}) {
            Simulation sim(config::parse<SimParams>(cfg));
            noc::CycleNetwork net(sim, "noc", params);
            workload::TrafficGenerator::Options o;
            o.pattern = workload::patternFromName(name);
            o.rate = rate;
            o.size_bytes = 16;
            workload::TrafficGenerator gen(net, params.columns,
                                           params.rows, o,
                                           sim.makeRng(7));
            const Tick cycles = 20000;
            for (Tick t = 128; t <= cycles; t += 128) {
                gen.generateTo(t);
                net.advanceTo(t);
            }
            net.advanceTo(cycles + 100000); // drain
            double tput = net.flitsDelivered.value() /
                          static_cast<double>(cycles) /
                          net.numNodes();
            std::printf("%-10s %8.2f %12.2f %12.0f %12.2f %12.4f\n",
                        name, rate, net.totalLatency.mean(),
                        net.totalLatency.maxValue(),
                        net.hopCount.mean(), tput);
        }
    }
    std::printf("\n(throughput in flits/node/cycle; latencies explode "
                "past each pattern's saturation point)\n");
    return 0;
}
