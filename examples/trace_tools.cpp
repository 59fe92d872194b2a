/**
 * @file
 * Packet-trace workflow: record the traffic a workload offers the
 * network during a co-simulation, save it, and replay it through a
 * standalone network — the bridge between the full-system and
 * NoC-only worlds.
 *
 *   ./trace_tools record out.csv [system.app=fft ...]
 *   ./trace_tools replay in.csv  [noc.vcs_per_vnet=4 ...]
 *   ./trace_tools convert in.csv out.tbin     (and back)
 *
 * A ".tbin" extension selects the checksummed binary trace format
 * (compact, corruption-detecting); anything else is CSV.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "cosim/full_system.hh"
#include "sim/logging.hh"
#include "noc/cycle_network.hh"
#include "sim/simulation.hh"
#include "workload/trace.hh"

using namespace rasim;

namespace
{

bool
isBinaryPath(const std::string &path)
{
    const std::string ext = ".tbin";
    return path.size() >= ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

workload::PacketTrace
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '", path, "'");
    return isBinaryPath(path) ? workload::PacketTrace::loadBinary(in)
                              : workload::PacketTrace::load(in);
}

void
saveTrace(const workload::PacketTrace &trace, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '", path, "'");
    if (isBinaryPath(path))
        trace.saveBinary(out);
    else
        trace.save(out);
}

int
record(const std::string &path, Config cfg)
{
    auto options = cosim::FullSystemOptions::fromConfig(cfg);
    options.mode = cosim::Mode::CosimCycle;
    cosim::FullSystem system(cfg, options);

    workload::PacketTrace trace;
    system.bridge().setDeliveryObserver(
        [&trace](const noc::PacketPtr &pkt) { trace.record(pkt); });
    system.run();
    trace.sortByTime();

    saveTrace(trace, path);
    std::printf("recorded %zu packets over %llu cycles to %s\n",
                trace.size(),
                static_cast<unsigned long long>(
                    system.cycleNetwork()->curTime()),
                path.c_str());
    return 0;
}

int
replay(const std::string &path, Config cfg)
{
    workload::PacketTrace trace = loadTrace(path);
    if (trace.empty())
        fatal("trace '", path, "' is empty");

    Simulation sim(config::parse<SimParams>(cfg));
    auto params = config::parse<noc::NocParams>(cfg);
    noc::CycleNetwork net(sim, "noc", params);
    std::uint64_t delivered = 0;
    net.setDeliveryHandler(
        [&delivered](const noc::PacketPtr &) { ++delivered; });

    workload::TraceReplayer rep(net, trace);
    Tick horizon = trace.records().back().inject_tick + 1;
    for (Tick t = 256; t < horizon + 256; t += 256) {
        rep.replayTo(t);
        net.advanceTo(t);
    }
    net.advanceTo(horizon + 200000); // drain

    std::printf("replayed %zu packets: delivered %llu, mean latency "
                "%.2f cycles, mean hops %.2f\n",
                trace.size(),
                static_cast<unsigned long long>(delivered),
                net.totalLatency.mean(), net.hopCount.mean());
    return 0;
}

int
convert(const std::string &from, const std::string &to)
{
    workload::PacketTrace trace = loadTrace(from);
    saveTrace(trace, to);
    std::printf("converted %zu packets: %s -> %s\n", trace.size(),
                from.c_str(), to.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(
            stderr,
            "usage: %s record|replay <file[.tbin]> [key=value...]\n"
            "       %s convert <from[.tbin]> <to[.tbin]>\n",
            argv[0], argv[0]);
        return 1;
    }
    Config cfg;
    cfg.set("system.ops_per_core", 200);
    cfg.parseArgs(argc, argv);
    if (std::strcmp(argv[1], "record") == 0)
        return record(argv[2], std::move(cfg));
    if (std::strcmp(argv[1], "replay") == 0)
        return replay(argv[2], std::move(cfg));
    if (std::strcmp(argv[1], "convert") == 0) {
        if (argc < 4) {
            std::fprintf(stderr, "convert needs <from> and <to>\n");
            return 1;
        }
        return convert(argv[2], argv[3]);
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    return 1;
}
