/**
 * @file
 * M1: google-benchmark microbenchmarks of the simulation substrates —
 * event queue throughput, router pipeline cost vs network size,
 * cache access cost, engine dispatch overhead, abstract-model cost,
 * CRC32/CRC64 checksum throughput.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "abstractnet/abstract_network.hh"
#include "mem/memory_system.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/parallel_engine.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "workload/traffic.hh"

using namespace rasim;

namespace
{

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t processed = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleLambda(eq.curTick() + 1 + (i % 7),
                              [&processed] { ++processed; });
        while (eq.serviceOne()) {
        }
    }
    benchmark::DoNotOptimize(processed);
    state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_EventQueueScheduleService);

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(1, 2);
    double sum = 0;
    for (auto _ : state)
        sum += rng.uniform();
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_RngUniform);

void
BM_NetworkCyclePerSize(benchmark::State &state)
{
    int side = static_cast<int>(state.range(0));
    Simulation sim;
    noc::NocParams p;
    p.columns = side;
    p.rows = side;
    noc::CycleNetwork net(sim, "noc", p);
    workload::TrafficGenerator::Options o;
    o.rate = 0.05;
    workload::TrafficGenerator gen(net, side, side, o,
                                   sim.makeRng(0xbe));
    Tick t = 0;
    for (auto _ : state) {
        t += 16;
        gen.generateTo(t);
        net.advanceTo(t);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(net.cyclesRun.value()) * side * side);
    state.counters["routers"] = side * side;
}
BENCHMARK(BM_NetworkCyclePerSize)->Arg(4)->Arg(8)->Arg(16)->Arg(23);

void
BM_AbstractModelInject(benchmark::State &state)
{
    Simulation sim;
    noc::NocParams p;
    abstractnet::AbstractNetwork net(
        sim, "abs", p, abstractnet::AbstractNetwork::Mode::Static);
    Rng rng(7, 7);
    PacketId id = 1;
    Tick t = 0;
    for (auto _ : state) {
        ++t;
        net.inject(noc::makePacket(id++, rng.range(64), rng.range(64),
                                   noc::MsgClass::Request, 8, t));
        net.advanceTo(t);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(id));
}
BENCHMARK(BM_AbstractModelInject);

void
BM_L1HitPath(benchmark::State &state)
{
    Simulation sim;
    noc::NocParams p;
    p.columns = 2;
    p.rows = 2;
    noc::CycleNetwork net(sim, "noc", p);
    mem::MemorySystem memsys(sim, "mem", net, mem::MemParams());
    // Warm one block to M state.
    bool done = false;
    memsys.l1(0).access(0x1000, true, [&done] { done = true; });
    Tick t = 0;
    while (!done) {
        ++t;
        sim.run(t);
        net.advanceTo(t);
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        memsys.l1(0).access(0x1000, false, [&hits] { ++hits; });
        ++t;
        sim.run(t + 4);
        t += 4;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<std::int64_t>(hits));
}
BENCHMARK(BM_L1HitPath);

void
BM_EngineDispatchOverhead(benchmark::State &state)
{
    int workers = static_cast<int>(state.range(0));
    std::unique_ptr<StepEngine> engine;
    if (workers == 0)
        engine = std::make_unique<SerialEngine>();
    else
        engine = std::make_unique<ParallelEngine>(workers);
    std::atomic<std::uint64_t> sink{0};
    for (auto _ : state) {
        engine->forEach(64, [&sink](std::size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_EngineDispatchOverhead)->Arg(0)->Arg(1)->Arg(3);

/**
 * Checksum throughput on the archive/frame hot path: every quantum's
 * Step and StepReply frame is CRC32-sealed and CRC32-checked, and
 * attestation and checkpoint images are CRC64-digested. Sizes: a small
 * frame, a busy StepReply (~1.4 KB), a checkpoint-sized image.
 */
template <typename Fn>
void
crcThroughput(benchmark::State &state, Fn crc)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    std::vector<unsigned char> buf(len);
    Rng rng(0xc2c, 1);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.range(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc(buf.data(), buf.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(len));
}

void
BM_Crc32(benchmark::State &state)
{
    crcThroughput(state, [](const void *p, std::size_t n) {
        return crc32(p, n);
    });
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1445)->Arg(64 << 10);

void
BM_Crc64(benchmark::State &state)
{
    crcThroughput(state, [](const void *p, std::size_t n) {
        return crc64(p, n);
    });
}
BENCHMARK(BM_Crc64)->Arg(64)->Arg(1445)->Arg(64 << 10);

/**
 * Serial-vs-parallel stepping of the cycle network at high load:
 * time/iteration across worker counts gives the measured pool
 * speedup on this host (Arg 0 = SerialEngine baseline; on a 1-core
 * host the >1 worker rows measure dispatch overhead, not speedup).
 */
void
BM_NetworkCycleSerialVsPool(benchmark::State &state)
{
    int workers = static_cast<int>(state.range(0));
    Simulation sim;
    noc::NocParams p;
    p.columns = 8;
    p.rows = 8;
    noc::CycleNetwork net(sim, "noc", p);
    std::unique_ptr<StepEngine> engine;
    if (workers > 0) {
        engine = std::make_unique<ParallelEngine>(workers);
        net.setEngine(engine.get());
    }
    workload::TrafficGenerator::Options o;
    o.rate = 0.3;
    workload::TrafficGenerator gen(net, 8, 8, o, sim.makeRng(0xbe));
    Tick t = 0;
    for (auto _ : state) {
        t += 16;
        gen.generateTo(t);
        net.advanceTo(t);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(net.cyclesRun.value()) * 64);
    state.counters["workers"] = workers;
}
BENCHMARK(BM_NetworkCycleSerialVsPool)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

/** Same comparison for the bufferless deflection backend. */
void
BM_DeflectionCycleSerialVsPool(benchmark::State &state)
{
    int workers = static_cast<int>(state.range(0));
    Simulation sim;
    noc::NocParams p;
    p.columns = 8;
    p.rows = 8;
    noc::DeflectionNetwork net(sim, "dnoc", p);
    std::unique_ptr<StepEngine> engine;
    if (workers > 0) {
        engine = std::make_unique<ParallelEngine>(workers);
        net.setEngine(engine.get());
    }
    workload::TrafficGenerator::Options o;
    o.rate = 0.3;
    workload::TrafficGenerator gen(net, 8, 8, o, sim.makeRng(0xbe));
    Tick t = 0;
    for (auto _ : state) {
        t += 16;
        gen.generateTo(t);
        net.advanceTo(t);
    }
    state.counters["workers"] = workers;
}
BENCHMARK(BM_DeflectionCycleSerialVsPool)->Arg(0)->Arg(2);

} // namespace

BENCHMARK_MAIN();
