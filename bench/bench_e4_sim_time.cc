/**
 * @file
 * E4 (Fig. 4 / Table 3): "The CPU+GPU can reduce simulation time for
 * the reciprocal abstraction co-simulation by 16% for a 256-core
 * target machine and 65% for a 512-core target machine."
 *
 * For 64-, 256-, 512- and 768-core targets, measure the host
 * wall-clock of a reciprocal co-simulation split into its full-system
 * and network components, then apply the GPU coprocessor timing model
 * (DESIGN.md substitution: no CUDA device, so the device is modelled,
 * not measured):
 *
 *   CPU-only   = host_ns + serial network ns      (both measured)
 *   CPU+GPU    = quanta * max(host/quantum, device quantum time)
 *                                                  (device modelled)
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "noc/remote/remote_network.hh"
#include "sim/rng.hh"

#include "bench_util.hh"
#include "gpu/gpu_model.hh"
#include "ipc/nocd_server.hh"
#include "sim/parallel_engine.hh"
#include "workload/traffic.hh"

using namespace rasim;
using namespace benchutil;

namespace
{

struct Measured
{
    double host_ns = 0.0;
    double net_ns = 0.0;
    std::uint64_t quanta = 0;
    Tick quantum = 0;
    int routers = 0;
};

/**
 * StepEngine decorator measuring the time spent inside the
 * data-parallel phases — separates the parallelisable fraction of a
 * serial run from the sequential residue (injection drain, delivery
 * callbacks, stat reduction). The soa kernel dispatches forRange
 * phases, whose worklist scans run inside the phase.
 */
class PhaseTimingEngine : public StepEngine
{
  public:
    void
    forEach(std::size_t n,
            const std::function<void(std::size_t)> &fn) override
    {
        auto t0 = std::chrono::steady_clock::now();
        inner_.forEach(n, fn);
        account(t0);
    }

    void
    forRange(std::size_t n,
             const std::function<void(std::size_t, std::size_t)> &fn)
        override
    {
        auto t0 = std::chrono::steady_clock::now();
        inner_.forRange(n, fn);
        account(t0);
    }

    const char *name() const override { return "phase-timing"; }

    double phaseNs() const { return ns_; }
    std::uint64_t phases() const { return phases_; }

  private:
    void
    account(std::chrono::steady_clock::time_point t0)
    {
        ns_ += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
        ++phases_;
    }

    SerialEngine inner_;
    double ns_ = 0.0;
    std::uint64_t phases_ = 0;
};

struct NocMeasured
{
    double wall_ns = 0.0;
    double phase_ns = 0.0;
    std::uint64_t phases = 0;
    std::uint64_t cycles = 0;
};

/** High-load random traffic on an 8x8 mesh, wall-clock measured. */
NocMeasured
measureNoc(StepEngine *engine)
{
    Simulation sim;
    noc::NocParams p;
    p.columns = 8;
    p.rows = 8;
    noc::CycleNetwork net(sim, "noc", p);
    if (engine)
        net.setEngine(engine);
    workload::TrafficGenerator::Options o;
    o.rate = 0.30;
    o.data_frac = 0.3;
    workload::TrafficGenerator gen(net, 8, 8, o, sim.makeRng(0x5eed));
    NocMeasured m;
    auto t0 = std::chrono::steady_clock::now();
    for (Tick t = 64; t <= 20000; t += 64) {
        gen.generateTo(t);
        net.advanceTo(t);
    }
    m.wall_ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    m.cycles = static_cast<std::uint64_t>(net.cyclesRun.value());
    return m;
}

Measured
measure(int cols, int rows)
{
    cosim::FullSystemOptions o;
    o.mode = cosim::Mode::CosimCycle;
    o.app = "fft";
    o.ops_per_core = 120;
    o.quantum = 256;
    o.noc.columns = cols;
    o.noc.rows = rows;
    cosim::FullSystem sys(Config(), o);
    sys.run();
    Measured m;
    m.host_ns = sys.bridge().hostNs();
    m.net_ns = sys.bridge().netNs();
    m.quanta = sys.bridge().quantaRun();
    m.quantum = o.quantum;
    m.routers = cols * rows;
    return m;
}

struct BackendMeasured
{
    double wall_s = 0.0;
    double net_ns = 0.0; ///< bridge time inside the backend's advance
    std::uint64_t quanta = 0;
    std::uint64_t rpc_round_trips = 0;
    Tick finish = 0;
    std::uint64_t delivered = 0;
};

/** One full co-simulation, timed, against either backend. */
BackendMeasured
measureBackend(bool remote, const std::string &socket,
               std::uint64_t ops_per_core)
{
    cosim::FullSystemOptions o;
    o.mode = cosim::Mode::CosimCycle;
    o.app = "fft";
    o.ops_per_core = ops_per_core;
    o.quantum = 256;
    o.noc.columns = 8;
    o.noc.rows = 8;
    if (remote) {
        o.network_backend = "remote";
        o.remote.socket = socket;
    }
    cosim::FullSystem sys(Config(), o);
    BackendMeasured m;
    m.wall_s = benchutil::timeIt([&] { m.finish = sys.run(); });
    m.quanta = sys.bridge().quantaRun();
    m.net_ns = sys.bridge().netNs();
    m.delivered = sys.packetsDelivered();
    if (remote)
        m.rpc_round_trips = static_cast<std::uint64_t>(
            sys.remoteNetwork()->rpcRoundTrips.value());
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    gpu::GpuTimingModel device;

    printHeader("E4: co-simulation wall-clock, CPU-only vs CPU+GPU "
                "(fft, quantum 256)");
    printRow({"target", "quanta", "host_ms", "net_ms", "cpu_only_ms",
              "cpu_gpu_ms", "reduction"});

    const struct
    {
        int cols, rows;
        const char *label;
        const char *paper;
    } targets[] = {
        {8, 8, "64-core", "-"},
        {16, 16, "256-core", "16%"},
        {16, 32, "512-core", "65%"},
        // Past the paper's targets: where the modelled device starts to
        // win against the soa kernel.
        {24, 32, "768-core", "-"},
    };

    for (const auto &t : targets) {
        if (quick && t.cols * t.rows > 64)
            continue; // CI lane: the 64-core target is representative
        Measured m = measure(t.cols, t.rows);
        double cpu_only = m.host_ns + m.net_ns;
        double cpu_gpu = device.overlappedRunNs(m.host_ns, m.quanta,
                                                m.quantum, m.routers);
        double reduction = 1.0 - cpu_gpu / cpu_only;
        printRow({t.label, std::to_string(m.quanta),
                  fmt(m.host_ns / 1e6), fmt(m.net_ns / 1e6),
                  fmt(cpu_only / 1e6), fmt(cpu_gpu / 1e6),
                  pct(reduction)});
        std::printf("%14s paper-reported reduction: %s\n", "", t.paper);
    }

    std::printf(
        "\n(device side modelled: launch %.0f ns, %.0f ns/router-wave, "
        "width %d, transfer %.0f ns/quantum — see DESIGN.md)\n",
        device.params().kernel_launch_ns, device.params().router_slot_ns,
        device.params().parallel_width,
        device.params().boundary_transfer_ns);

    // E4b: the host-side pool engine, serial vs parallel stepping of
    // the detailed network itself (8x8 mesh, high uniform-random
    // load). The serial run is instrumented to
    // split the phase (parallelisable) time from the sequential
    // residue; the modelled column applies static sharding over the
    // pool slots plus a per-phase barrier-handoff cost — the DESIGN.md
    // substitution for hosts without enough cores to measure real
    // concurrency. Every row is a measured run except the two
    // model_* columns.
    constexpr double handoff_ns = 1000.0; // spin-barrier phase handoff

    printHeader("E4b: serial vs pool engine, cycle network, 8x8 mesh, "
                "high load");
    const std::vector<int> worker_counts =
        quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    NocMeasured ser;
    {
        PhaseTimingEngine timing;
        ser = measureNoc(&timing);
        ser.phase_ns = timing.phaseNs();
        ser.phases = timing.phases();
    }
    std::printf("  serial: %.1f ms total, %.1f ms in %llu phases "
                "(%.0f%%), %llu cycles\n",
                ser.wall_ns / 1e6, ser.phase_ns / 1e6,
                static_cast<unsigned long long>(ser.phases),
                100.0 * ser.phase_ns / ser.wall_ns,
                static_cast<unsigned long long>(ser.cycles));

    printRow({"workers", "measured_ms", "meas_speedup", "model_ms",
              "model_speedup"});
    for (int workers : worker_counts) {
        ParallelEngine pool(workers);
        NocMeasured m = measureNoc(&pool);
        double residue_ns = ser.wall_ns - ser.phase_ns;
        double modelled_ns = residue_ns + ser.phase_ns / (workers + 1) +
                             static_cast<double>(ser.phases) * handoff_ns;
        printRow({std::to_string(workers), fmt(m.wall_ns / 1e6),
                  fmt(ser.wall_ns / m.wall_ns) + "x",
                  fmt(modelled_ns / 1e6),
                  fmt(ser.wall_ns / modelled_ns) + "x"});
    }
    std::printf(
        "\n(measured_ms/meas_speedup: real pool runs against the "
        "serial run on this host's %u hardware thread(s); "
        "model_*: modelled as residue + phase/(workers+1) + %.0f "
        "ns/phase handoff. Results are bit-identical to serial either "
        "way)\n",
        std::thread::hardware_concurrency(), handoff_ns);

    // E4c: the out-of-process backend. The same 8x8 co-simulation with
    // the detailed network hosted in a rasim-nocd server (here on a
    // background thread, over a Unix socket — the same transport a
    // separate process would use), against the in-process baseline.
    // The quotient of interest is the per-quantum RPC cost: one
    // Step/StepReply round-trip per busy quantum. It is taken from the
    // bridge's network time (netNs: the backend's advance, so for the
    // remote lane the round trip and the server's compute), not from
    // the difference of two whole-run wall clocks, whose host-side
    // spread is larger than the overhead itself.
    printHeader("E4c: in-process vs remote (rasim-nocd) backend, "
                "8x8 mesh, quantum 256");
    const std::uint64_t remote_ops = quick ? 120 : 600;
    std::string socket = "unix:/tmp/rasim-bench-e4-" +
                         std::to_string(::getpid()) + ".sock";
    ipc::NocServerOptions so;
    so.address = socket;
    ipc::NocServer server(so);
    std::thread server_thread([&] { server.run(); });

    // The two lanes alternate, each leading every other round, so a
    // host speed swing lands on both; the overhead is taken per round
    // as remote minus in-process network time per quantum.
    const int e4c_rounds = quick ? 5 : 7;
    std::vector<double> inproc_ms, remote_ms, overhead_us;
    BackendMeasured inproc, remote;
    for (int round = 0; round < e4c_rounds; ++round) {
        for (int k = 0; k < 2; ++k) {
            bool is_remote = (k == 1) != (round % 2 == 1);
            BackendMeasured m =
                measureBackend(is_remote, socket, remote_ops);
            (is_remote ? remote_ms : inproc_ms)
                .push_back(m.wall_s * 1e3);
            (is_remote ? remote : inproc) = m;
        }
        if (remote.finish != inproc.finish ||
            remote.delivered != inproc.delivered) {
            std::fprintf(
                stderr,
                "remote/in-process divergence: finish %llu vs %llu, "
                "delivered %llu vs %llu\n",
                static_cast<unsigned long long>(remote.finish),
                static_cast<unsigned long long>(inproc.finish),
                static_cast<unsigned long long>(remote.delivered),
                static_cast<unsigned long long>(inproc.delivered));
            return 1;
        }
        overhead_us.push_back(
            remote.quanta == 0
                ? 0.0
                : (remote.net_ns - inproc.net_ns) / 1e3 /
                      static_cast<double>(remote.quanta));
    }

    const Quartiles inproc_q = quartiles(inproc_ms);
    const Quartiles remote_q = quartiles(remote_ms);
    const Quartiles overhead_q = quartiles(overhead_us);
    double inproc_qps = inproc.quanta / (inproc_q.median / 1e3);
    double remote_qps = remote.quanta / (remote_q.median / 1e3);
    printRow({"backend", "wall_ms_med", "wall_ms_iqr", "quanta",
              "quanta/s", "rpc_rt"});
    printRow({"inproc", fmt(inproc_q.median), fmt(inproc_q.iqr()),
              std::to_string(inproc.quanta), fmt(inproc_qps, 0), "-"});
    printRow({"remote", fmt(remote_q.median), fmt(remote_q.iqr()),
              std::to_string(remote.quanta), fmt(remote_qps, 0),
              std::to_string(remote.rpc_round_trips)});
    std::printf("per-quantum RPC overhead over %d alternating rounds: "
                "median %.2f us, IQR %.2f us (Q1 %.2f, Q3 %.2f); "
                "results bit-identical in every round: finish tick "
                "%llu, %llu packets\n",
                e4c_rounds, overhead_q.median, overhead_q.iqr(),
                overhead_q.q1, overhead_q.q3,
                static_cast<unsigned long long>(remote.finish),
                static_cast<unsigned long long>(remote.delivered));

    // E4d: amortized per-quantum RPC overhead of the pipelined
    // transport (one Step frame per busy quantum, none while idle),
    // measured as wall-clock over a direct in-process drive of the
    // same network. The workload is phase-shaped the way a real
    // co-simulation is — bursts, drains, idle stretches — so idle
    // elision gets its real share. Each lane repeats three times and
    // keeps the fastest run (noise floor on a shared host).
    printHeader("E4d: direct vs pipelined quantum RPC, direct drive, "
                "8x8 mesh");
    const int e4d_quanta = quick ? 300 : 1200;
    constexpr Tick e4d_quantum = 64;
    constexpr int e4d_reps = 3;

    struct E4dLane
    {
        double wall_s = 0.0;
        std::uint64_t delivered = 0;
        std::uint64_t rpcs = 0;
        std::uint64_t elided = 0;
    };

    // Bursty traffic: every 8th quantum injects a burst, which then
    // drains over a few quanta, leaving the rest idle.
    auto drive = [&](auto &net) {
        std::uint64_t delivered = 0;
        net.setDeliveryHandler(
            [&](const noc::PacketPtr &) { ++delivered; });
        Rng rng(0xe4d, 3);
        PacketId id = 1;
        for (int q = 0; q < e4d_quanta; ++q) {
            Tick now = static_cast<Tick>(q) * e4d_quantum;
            if (q % 8 == 0) {
                for (int i = 0; i < 20; ++i) {
                    net.inject(noc::makePacket(
                        id++, static_cast<NodeId>(rng.range(64)),
                        static_cast<NodeId>(rng.range(64)),
                        static_cast<noc::MsgClass>(rng.range(3)),
                        rng.bernoulli(0.3) ? 64 : 8, now));
                }
            }
            net.advanceTo(now + e4d_quantum);
        }
        return delivered;
    };

    auto runDirectLane = [&] {
        E4dLane lane;
        lane.wall_s = 1e18;
        for (int rep = 0; rep < e4d_reps; ++rep) {
            Simulation sim;
            noc::NocParams p;
            p.columns = 8;
            p.rows = 8;
            noc::CycleNetwork net(sim, "noc", p);
            std::uint64_t delivered = 0;
            double s = benchutil::timeIt([&] { delivered = drive(net); });
            lane.wall_s = std::min(lane.wall_s, s);
            lane.delivered = delivered;
        }
        return lane;
    };
    auto runRemoteLane = [&] {
        E4dLane lane;
        lane.wall_s = 1e18;
        for (int rep = 0; rep < e4d_reps; ++rep) {
            Simulation sim;
            noc::NocParams p;
            p.columns = 8;
            p.rows = 8;
            noc::remote::RemoteOptions ro;
            ro.socket = socket;
            noc::remote::RemoteNetwork net(sim, "rnet", p, ro);
            std::uint64_t delivered = 0;
            double s = benchutil::timeIt([&] { delivered = drive(net); });
            if (s < lane.wall_s) {
                lane.wall_s = s;
                lane.rpcs = static_cast<std::uint64_t>(
                    net.rpcRoundTrips.value());
                lane.elided = static_cast<std::uint64_t>(
                    net.elidedQuanta.value());
            }
            lane.delivered = delivered;
        }
        return lane;
    };

    E4dLane direct_lane = runDirectLane();
    E4dLane pipelined = runRemoteLane();
    server.stop();
    server_thread.join();

    if (pipelined.delivered != direct_lane.delivered) {
        std::fprintf(stderr,
                     "E4d divergence: delivered direct %llu, pipelined "
                     "%llu\n",
                     static_cast<unsigned long long>(
                         direct_lane.delivered),
                     static_cast<unsigned long long>(
                         pipelined.delivered));
        return 1;
    }

    double pipe_us = (pipelined.wall_s - direct_lane.wall_s) * 1e6 /
                     static_cast<double>(e4d_quanta);

    printRow({"lane", "wall_ms", "ovh_us/q", "rpcs", "elided"});
    printRow({"direct", fmt(direct_lane.wall_s * 1e3), "-", "-", "-"});
    printRow({"pipelined", fmt(pipelined.wall_s * 1e3), fmt(pipe_us),
              std::to_string(pipelined.rpcs),
              std::to_string(pipelined.elided)});
    std::printf("amortized per-quantum RPC overhead: %.2f us (%llu "
                "deliveries, identical on both lanes)\n",
                pipe_us,
                static_cast<unsigned long long>(direct_lane.delivered));

    const char *path = "BENCH_remote.json";
    if (FILE *f = std::fopen(path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"quick\": %s,\n"
            "  \"target\": \"8x8 cosim, fft, quantum 256\",\n"
            "  \"rounds\": %d,\n"
            "  \"inproc\": {\"wall_ms_median\": %.3f, "
            "\"wall_ms_iqr\": %.3f, \"quanta\": %llu, "
            "\"quanta_per_sec\": %.1f},\n"
            "  \"remote\": {\"wall_ms_median\": %.3f, "
            "\"wall_ms_iqr\": %.3f, \"quanta\": %llu, "
            "\"quanta_per_sec\": %.1f, \"rpc_round_trips\": %llu},\n"
            "  \"rpc_overhead_us_per_quantum\": {\"median\": %.3f, "
            "\"iqr\": %.3f, \"q1\": %.3f, \"q3\": %.3f},\n"
            "  \"bit_identical\": true,\n"
            "  \"finish_tick\": %llu,\n"
            "  \"packets_delivered\": %llu,\n"
            "  \"e4d\": {\n"
            "    \"quanta\": %d,\n"
            "    \"direct\": {\"wall_ms\": %.3f},\n"
            "    \"pipelined\": {\"wall_ms\": %.3f, "
            "\"overhead_us_per_quantum\": %.3f, \"rpcs\": %llu, "
            "\"elided_quanta\": %llu},\n"
            "    \"deliveries_identical\": true\n"
            "  }\n"
            "}\n",
            quick ? "true" : "false", e4c_rounds, inproc_q.median,
            inproc_q.iqr(), static_cast<unsigned long long>(inproc.quanta),
            inproc_qps, remote_q.median, remote_q.iqr(),
            static_cast<unsigned long long>(remote.quanta), remote_qps,
            static_cast<unsigned long long>(remote.rpc_round_trips),
            overhead_q.median, overhead_q.iqr(), overhead_q.q1,
            overhead_q.q3,
            static_cast<unsigned long long>(remote.finish),
            static_cast<unsigned long long>(remote.delivered),
            e4d_quanta, direct_lane.wall_s * 1e3, pipelined.wall_s * 1e3,
            pipe_us, static_cast<unsigned long long>(pipelined.rpcs),
            static_cast<unsigned long long>(pipelined.elided));
        std::fclose(f);
        std::printf("wrote %s\n", path);
    } else {
        std::perror(path);
        return 1;
    }
    return 0;
}
