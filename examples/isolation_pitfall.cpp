/**
 * @file
 * The motivating experiment in miniature: how wrong does an isolated
 * NoC evaluation get when the system context is missing?
 *
 * Runs one workload in context (reciprocal co-simulation), then
 * evaluates the same network isolated under rate-matched uniform
 * synthetic traffic, and prints the gap.
 *
 *   ./isolation_pitfall [system.app=radix]
 */

#include <cstdio>

#include "cosim/full_system.hh"
#include "noc/cycle_network.hh"
#include "sim/simulation.hh"
#include "workload/traffic.hh"

using namespace rasim;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.set("system.app", std::string("radix"));
    cfg.set("system.ops_per_core", 200);
    cfg.set("noc.columns", 8);
    cfg.set("noc.rows", 8);
    cfg.set("noc.vcs_per_vnet", 1);
    cfg.set("noc.buffer_depth", 2);
    cfg.parseArgs(argc, argv);

    // In context.
    auto options = cosim::FullSystemOptions::fromConfig(cfg);
    options.mode = cosim::Mode::CosimCycle;
    cosim::FullSystem system(cfg, options);
    system.run();
    auto *net = system.cycleNetwork();
    double in_context = net->totalLatency.mean();
    Tick cycles = net->curTime();
    double rate = net->packetsDelivered.value() /
                  static_cast<double>(cycles) / 64.0;

    std::printf("in-context mean packet latency: %8.2f cycles "
                "(%.4f pkts/node/cycle offered)\n",
                in_context, rate);

    // Isolated, rate-matched uniform random.
    Simulation iso_sim(config::parse<SimParams>(cfg));
    auto p = config::parse<noc::NocParams>(cfg);
    noc::CycleNetwork iso(iso_sim, "noc", p);
    workload::TrafficGenerator::Options to;
    to.pattern = workload::TrafficPattern::UniformRandom;
    to.rate = rate;
    to.size_bytes = 8;
    to.data_frac = 0.4;
    workload::TrafficGenerator gen(iso, p.columns, p.rows, to,
                                   iso_sim.makeRng(1));
    for (Tick t = 256; t <= cycles; t += 256) {
        gen.generateTo(t);
        iso.advanceTo(t);
    }
    iso.advanceTo(cycles + 50000);
    double isolated = iso.totalLatency.mean();

    std::printf("isolated  mean packet latency:  %8.2f cycles\n",
                isolated);
    std::printf("isolation error:                %8.1f%%\n",
                100.0 * (isolated - in_context) / in_context);
    std::printf("\nSame network, same average load — but without the "
                "protocol's spatial structure,\nburstiness and "
                "closed-loop throttling, the isolated number answers a "
                "different question.\n");
    return 0;
}
