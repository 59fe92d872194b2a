/**
 * @file
 * Acceptance tests for the co-simulation health subsystem: every guard
 * fires under its matching fault (injected by the test-only
 * FaultInjector between a bare bridge and its backend) or, for a full
 * system, under a threshold the run really crosses; a tripped bridge
 * degrades to tuned-abstract service and completes the run, recovery
 * re-engages the backend (with exponential backoff on failure), and
 * the degradation events land in the stats dump.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"
#include "common/local_server.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cosim/bridge.hh"
#include "cosim/fault_injector.hh"
#include "cosim/full_system.hh"
#include "ipc/faulty_transport.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/simulation.hh"
#include "stats/output.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

/** Bridge + fault injector + a backend of choice. */
template <typename Backend>
struct FaultyBridgeFixture
{
    FaultyBridgeFixture(QuantumBridge::Options opts, FaultOptions faults,
                        noc::NocParams p = noc::NocParams())
        : net(sim, "noc", p), inj(net, faults),
          bridge(sim, "bridge", inj, p, opts)
    {
        bridge.setDeliveryHandler(
            [this](const noc::PacketPtr &pkt) {
                delivered.push_back(pkt);
            });
    }

    noc::PacketPtr
    send(NodeId src, NodeId dst, Tick when)
    {
        auto pkt = noc::makePacket(next_id++, src, dst,
                                   noc::MsgClass::Request, 8, when);
        bridge.inject(pkt);
        return pkt;
    }

    Simulation sim;
    Backend net;
    FaultInjector inj;
    QuantumBridge bridge;
    std::vector<noc::PacketPtr> delivered;
    PacketId next_id = 1;
};

QuantumBridge::Options
healthOpts(QuantumBridge::Coupling coupling, Tick quantum = 32)
{
    QuantumBridge::Options o;
    o.quantum = quantum;
    o.coupling = coupling;
    o.health.checkpoint_quanta = 1;
    o.health.recovery_quanta = 2;
    o.health.probation_quanta = 2;
    return o;
}

TEST(Health, ConservationGuardTripsOnDroppedPackets)
{
    FaultOptions fo;
    fo.drop_every = 2;
    auto bo = healthOpts(QuantumBridge::Coupling::Conservative);
    bo.health.recovery_quanta = 0; // stay degraded once tripped
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    for (int i = 0; i < 10; ++i)
        f.send(0, 9, static_cast<Tick>(i));
    f.bridge.advanceCoupled(2000);
    ASSERT_NE(f.bridge.health(), nullptr);
    EXPECT_GE(f.bridge.health()->conservationTrips.value(), 1.0);
    EXPECT_EQ(f.bridge.healthState(),
              QuantumBridge::HealthState::Degraded);
    // Degradation is graceful: every injected packet still reached the
    // system — the dropped ones served from estimates.
    EXPECT_EQ(f.delivered.size(), 10u);
    EXPECT_GE(f.bridge.health()->syntheticDeliveries.value(), 1.0);
}

TEST(Health, WatchdogDetectsDeflectionLivelockAndRunCompletes)
{
    // A deflection backend that stops making progress with flits in
    // flight (a livelock looks the same from the boundary: nothing is
    // delivered); the watchdog detects it within its window, the
    // bridge falls back to the tuned-abstract table, and the run
    // completes.
    FaultOptions fo;
    fo.freeze_from = 1; // never resumes
    auto bo = healthOpts(QuantumBridge::Coupling::Reciprocal, 64);
    bo.health.watchdog_cycles = 256;
    bo.health.recovery_quanta = 0;
    FaultyBridgeFixture<noc::DeflectionNetwork> f(bo, fo);
    for (int i = 0; i < 40; ++i)
        f.send(0, 9, static_cast<Tick>(i * 8));
    f.bridge.advanceCoupled(4000);
    EXPECT_GE(f.bridge.health()->deadlockTrips.value(), 1.0);
    EXPECT_EQ(f.bridge.healthState(),
              QuantumBridge::HealthState::Degraded);
    // Reciprocal coupling served every packet from the estimate at
    // injection time; the livelock cost nothing but fidelity.
    EXPECT_EQ(f.delivered.size(), 40u);
    // Degradation and its cause are visible in the stats dump.
    std::ostringstream os;
    stats::dumpText(os, f.sim.statsRoot());
    EXPECT_NE(os.str().find("health.deadlock_trips"), std::string::npos);
    EXPECT_NE(os.str().find("health.degradations"), std::string::npos);
    EXPECT_GE(f.bridge.health()->degradedQuanta.value(), 1.0);
}

TEST(Health, DivergenceGuardRollsBackPoisonedTable)
{
    FaultOptions fo;
    fo.poison_every = 1;
    fo.poison_offset = 100000; // wreck every feedback sample
    auto bo = healthOpts(QuantumBridge::Coupling::Reciprocal);
    bo.health.divergence_factor = 4.0;
    bo.health.recovery_quanta = 0;
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    for (int i = 0; i < 20; ++i)
        f.send(0, 9, static_cast<Tick>(i * 4));
    f.bridge.advanceCoupled(2000);
    EXPECT_GE(f.bridge.health()->divergenceTrips.value(), 1.0);
    EXPECT_EQ(f.bridge.healthState(),
              QuantumBridge::HealthState::Degraded);
    // The poisoned samples were rolled back: estimates come from the
    // last-good checkpoint, near zero-load, not from the 100k poison.
    EXPECT_LT(f.bridge.table().estimate(0, 2, 1), 1000.0);
}

TEST(Health, RecoveryReengagesBackendAfterCooldown)
{
    // Freeze lifted at tick 300: the backend is sick long enough to
    // trip the watchdog, then heals, so probation succeeds.
    FaultOptions fo;
    fo.freeze_from = 1;
    fo.freeze_until = 300;
    auto bo = healthOpts(QuantumBridge::Coupling::Reciprocal, 32);
    bo.health.watchdog_cycles = 64;
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    for (int i = 0; i < 30; ++i)
        f.send(0, 9, static_cast<Tick>(i * 16));
    f.bridge.advanceCoupled(3000);
    EXPECT_GE(f.bridge.health()->deadlockTrips.value(), 1.0);
    EXPECT_GE(f.bridge.health()->recoveries.value(), 1.0);
    EXPECT_EQ(f.bridge.healthState(),
              QuantumBridge::HealthState::Healthy);
    // Both the degradation and the recovery are stats events.
    std::ostringstream os;
    stats::dumpText(os, f.sim.statsRoot());
    EXPECT_NE(os.str().find("health.recoveries"), std::string::npos);
}

TEST(Health, FailedRecoveryBacksOffExponentially)
{
    // Drops never stop, so every probation re-trips conservation and
    // the cooldown doubles (capped) each time.
    FaultOptions fo;
    fo.drop_every = 1; // drop everything
    auto bo = healthOpts(QuantumBridge::Coupling::Conservative, 32);
    bo.health.recovery_quanta = 1;
    bo.health.probation_quanta = 4;
    bo.health.max_backoff = 8;
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    // A steady stream injected from inside the event simulation keeps
    // traffic flowing through every probation window, so each
    // re-engagement of the (still 100% lossy) backend re-trips.
    for (int i = 0; i < 200; ++i) {
        Tick when = static_cast<Tick>(i * 16);
        f.sim.eventq().scheduleLambda(when,
                                      [&f, when] { f.send(0, 9, when); });
    }
    f.bridge.advanceCoupled(6400);
    EXPECT_GE(f.bridge.health()->recoveryFailures.value(), 1.0);
    EXPECT_GE(f.bridge.health()->degradations.value(), 2.0);
    // Every packet reached the system despite a 100% drop fault.
    EXPECT_EQ(f.delivered.size(), 200u);
}

TEST(Health, ObserverSeesBackendDeliveriesExactlyOnce)
{
    // A freeze window wedges the backend mid-run; the quarantine
    // serves the stuck packets from estimates. When the backend
    // re-engages and finally delivers them for real, the observer
    // sees each exactly once and the system is not paid twice.
    FaultOptions fo;
    fo.freeze_from = 1;
    fo.freeze_until = 500;
    auto bo = healthOpts(QuantumBridge::Coupling::Conservative, 32);
    bo.health.watchdog_cycles = 64;
    bo.health.recovery_quanta = 2;
    bo.health.probation_quanta = 1;
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    std::map<PacketId, int> observed;
    f.bridge.setDeliveryObserver([&](const noc::PacketPtr &pkt) {
        ++observed[pkt->id];
    });
    for (int i = 0; i < 12; ++i)
        f.send(0, 9, static_cast<Tick>(i * 2));
    f.bridge.advanceCoupled(4000);
    // The system received every packet exactly once.
    ASSERT_EQ(f.delivered.size(), 12u);
    std::map<PacketId, int> system_seen;
    for (const auto &pkt : f.delivered)
        ++system_seen[pkt->id];
    for (const auto &[id, n] : system_seen)
        EXPECT_EQ(n, 1) << "packet " << id << " delivered twice";
    // The observer saw only real backend deliveries, each at most
    // once (synthetic deliveries are invisible to it).
    for (const auto &[id, n] : observed)
        EXPECT_EQ(n, 1) << "packet " << id << " observed twice";
    EXPECT_GE(f.bridge.health()->syntheticDeliveries.value(), 1.0);
}

TEST(Health, DistributionsStayMeaningfulUnderDelayFaults)
{
    // Satellite: estimateError / deliverySlack under injected faults.
    FaultOptions fo;
    fo.delay_every = 3;
    fo.delay_cycles = 64;
    auto bo = healthOpts(QuantumBridge::Coupling::Reciprocal, 32);
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    for (int i = 0; i < 60; ++i)
        f.send(0, 9, static_cast<Tick>(i * 4));
    f.bridge.advanceCoupled(3000);
    // All feedback flowed: every clone eventually delivered.
    EXPECT_EQ(f.bridge.estimateError.count(), 60u);
    EXPECT_EQ(f.bridge.deliverySlack.count(), 60u);
    // Delayed clones produce visibly larger (more negative) estimate
    // errors than the prompt ones — the fault shows in the tails.
    EXPECT_LE(f.bridge.estimateError.minValue(), -50.0);
}

TEST(Health, DegradeOffTurnsTripsIntoExceptions)
{
    FaultOptions fo;
    fo.drop_every = 1;
    auto bo = healthOpts(QuantumBridge::Coupling::Conservative);
    bo.health.degrade = false;
    FaultyBridgeFixture<noc::CycleNetwork> f(bo, fo);
    for (int i = 0; i < 4; ++i)
        f.send(0, 9, static_cast<Tick>(i));
    try {
        f.bridge.advanceCoupled(2000);
        FAIL() << "conservation trip did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Conservation);
    }
}

// ---------------------------------------------------------------------
// Overlapped-worker exception safety (satellite): a backend that
// throws mid-quantum on the worker thread must not leak the thread,
// kill the process, or lose the deliveries made before the failure.

/** Minimal backend: delivers after a fixed delay; throws or panics on
 *  command inside advanceTo(). */
class FlakyBackend : public noc::NetworkModel
{
  public:
    void
    inject(const noc::PacketPtr &pkt) override
    {
        pkt->enter_tick = pkt->inject_tick;
        pkt->deliver_tick = pkt->inject_tick + 10;
        pkt->hops = 1;
        in_flight_.push_back(pkt);
    }

    void
    advanceTo(Tick t) override
    {
        if (panic_at_ > 0 && t >= panic_at_) {
            panic_at_ = 0;
            panic("flaky backend expired at tick ", t);
        }
        if (throw_at_ > 0 && t >= throw_at_) {
            throw_at_ = 0;
            throw std::runtime_error("flaky backend raw throw");
        }
        time_ = t;
        auto due = [t](const noc::PacketPtr &p) {
            return p->deliver_tick <= t;
        };
        for (const auto &pkt : in_flight_)
            if (due(pkt) && handler_)
                handler_(pkt);
        in_flight_.erase(std::remove_if(in_flight_.begin(),
                                        in_flight_.end(), due),
                         in_flight_.end());
    }

    void
    setDeliveryHandler(DeliveryHandler handler) override
    {
        handler_ = std::move(handler);
    }

    Tick curTime() const override { return time_; }
    bool idle() const override { return in_flight_.empty(); }
    std::size_t numNodes() const override { return 64; }

    std::optional<Accounting>
    accounting() const override
    {
        return std::nullopt; // unauditable on purpose
    }

    Tick panic_at_ = 0;
    Tick throw_at_ = 0;

  private:
    DeliveryHandler handler_;
    std::vector<noc::PacketPtr> in_flight_;
    Tick time_ = 0;
};

TEST(Health, OverlappedWorkerPanicQuarantinesInsteadOfAborting)
{
    Simulation sim;
    noc::NocParams p;
    FlakyBackend net;
    net.panic_at_ = 96;
    QuantumBridge::Options o;
    o.quantum = 32;
    o.overlap = true;
    o.health.recovery_quanta = 0;
    QuantumBridge bridge(sim, "bridge", net, p, o);
    std::vector<noc::PacketPtr> delivered;
    bridge.setDeliveryHandler([&](const noc::PacketPtr &pkt) {
        delivered.push_back(pkt);
    });
    for (int i = 0; i < 6; ++i) {
        auto pkt = noc::makePacket(static_cast<PacketId>(i + 1), 0, 1,
                                   noc::MsgClass::Request, 8,
                                   static_cast<Tick>(i));
        bridge.inject(pkt);
    }
    // The worker's panic becomes a SimError, the bridge quarantines
    // the backend, and the run completes degraded — in process.
    bridge.advanceCoupled(640);
    EXPECT_EQ(bridge.healthState(), QuantumBridge::HealthState::Degraded);
    EXPECT_GE(bridge.health()->internalTrips.value(), 1.0);
    // Deliveries made before the failure were preserved and every
    // remaining packet was served from estimates.
    EXPECT_EQ(delivered.size(), 6u);
}

TEST(Health, OverlappedWorkerThrowUnmonitoredPropagatesCleanly)
{
    // With degradation off the exception must still join the worker
    // and surface on the calling thread (no std::terminate, no leaked
    // thread), leaving the bridge destructible.
    Simulation sim;
    noc::NocParams p;
    FlakyBackend net;
    net.throw_at_ = 64;
    QuantumBridge::Options o;
    o.quantum = 32;
    o.overlap = true;
    o.health.degrade = false;
    {
        QuantumBridge bridge(sim, "bridge", net, p, o);
        auto pkt = noc::makePacket(1, 0, 1, noc::MsgClass::Request, 8, 0);
        bridge.inject(pkt);
        EXPECT_THROW(bridge.advanceCoupled(640), std::runtime_error);
    } // ~QuantumBridge after a mid-overlap throw: no leak, no crash
}

TEST(Health, OverlappedHostThrowJoinsWorkerAndKeepsDeliveries)
{
    // The host side fails while the worker advances the backend: the
    // exception surfaces on the calling thread only after the worker
    // finished its quantum, and the delivery that worker made is
    // applied at the next boundary instead of being lost.
    Simulation sim;
    noc::NocParams p;
    FlakyBackend net;
    QuantumBridge::Options o;
    o.quantum = 32;
    o.overlap = true;
    std::vector<noc::PacketPtr> delivered;
    {
        QuantumBridge bridge(sim, "bridge", net, p, o);
        bridge.setDeliveryHandler([&](const noc::PacketPtr &pkt) {
            delivered.push_back(pkt);
        });
        // Handed to the backend at the first boundary, delivered by
        // the worker at tick 10 of the quantum ending at 32.
        bridge.inject(
            noc::makePacket(1, 0, 1, noc::MsgClass::Request, 8, 0));
        sim.eventq().scheduleLambda(
            20, [] { throw std::runtime_error("host event failed"); });
        EXPECT_THROW(bridge.advanceCoupled(640), std::runtime_error);
        EXPECT_EQ(sim.curTick(), 20u);
        EXPECT_EQ(net.curTime(), 32u); // the worker was joined
        EXPECT_TRUE(delivered.empty());
        EXPECT_FALSE(bridge.idle()); // the delivery is still queued

        bridge.advanceCoupled(640);
        ASSERT_EQ(delivered.size(), 1u);
        EXPECT_EQ(delivered[0]->id, 1u);
        EXPECT_EQ(delivered[0]->deliver_tick, 10u);
        EXPECT_TRUE(bridge.idle());
    } // ~QuantumBridge after a host-side throw: no leak, no crash
}

// ---------------------------------------------------------------------
// Full-system integration: remote transport faults or a health.*
// threshold the run really crosses trip a guard, the run completes
// degraded, and the health events reach the stats dump.

/** A small reciprocal co-simulation whose health.* keys come from
 *  @p cfg, the way quickstart reads them. */
FullSystemOptions
cosimOptions(const Config &cfg)
{
    FullSystemOptions o;
    o.mode = Mode::CosimCycle;
    o.app = "lu";
    o.ops_per_core = 40;
    o.quantum = 64;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    o.health = config::parse<HealthOptions>(cfg);
    return o;
}

TEST(Health, FullSystemSurvivesInjectedFaults)
{
    // The faults a full-system configuration can still inject are the
    // remote transport's. Every send after the first handshake drops
    // the connection, so the first quantum's retry round runs out, the
    // bridge counts a transport trip and finishes the run on
    // tuned-abstract estimates.
    test::LocalServer server;
    Config cfg;
    cfg.set("health.recovery_quanta", 0);
    FullSystemOptions o = cosimOptions(cfg);
    o.network_backend = "remote";
    o.remote.socket = server.address;
    o.remote.retry.backoff_base_ms = 0.0;
    o.remote.retry.deadline_ms = 0.0;
    ipc::TransportFaultOptions plan;
    plan.disconnect = 1.0;
    plan.start_op = 3; // Hello, its header and its payload
    plan.min_gap_ops = 0;
    ipc::TransportFaultSchedule sched(plan);
    FullSystem sys(cfg, o, ipc::clientChaos(&sched));
    Tick finish = sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_GT(finish, 0u);
    EXPECT_GE(sched.faults(), 1u);
    EXPECT_GE(sys.bridge().health()->transportTrips.value(), 1.0);
    EXPECT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);
    std::ostringstream os;
    stats::dumpText(os, sys.simulation().statsRoot());
    EXPECT_NE(os.str().find("health.transport_trips"), std::string::npos);
    EXPECT_NE(os.str().find("health.degradations"), std::string::npos);
}

TEST(Health, QuarantinedBackendDoesNotHoldTheRunOpen)
{
    // A conservative run's first misses sit in flight for a whole
    // quantum before any delivery, so a one-quantum watchdog trips.
    // The quarantined backend is never advanced again and keeps those
    // packets forever; the run must still end with the cores, not keep
    // stepping (from the drained event queue's stale clock) until the
    // tick limit.
    Config cfg;
    cfg.set("health.watchdog_cycles", 64);
    cfg.set("health.recovery_quanta", 0);
    FullSystemOptions o = cosimOptions(cfg);
    o.conservative = true;
    FullSystem sys(cfg, o);
    Tick finish = sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_GT(finish, 0u);
    EXPECT_GE(sys.bridge().health()->deadlockTrips.value(), 1.0);
    EXPECT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);
    // The premise: the quarantined backend still holds packets.
    EXPECT_FALSE(sys.bridge().backend().idle());
    EXPECT_TRUE(sys.bridge().idle());
    // Stepping stopped a few thousand ticks after the last core.
    EXPECT_LT(sys.bridge().quantaRun(), (finish + 4000) / o.quantum);
}

// health.divergence_error bounds the per-quantum mean |estimate
// error|. A cosim run never estimates every latency exactly, so a
// tiny bound trips the guard: degrade on, the run completes degraded;
// degrade off, the trip surfaces as a Divergence SimError.
TEST(Health, DivergenceErrorGuardTripsOnTinyBound)
{
    Config cfg;
    cfg.set("health.divergence_error", 1e-6);
    cfg.set("health.recovery_quanta", 0);
    FullSystem sys(cfg, cosimOptions(cfg));
    sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_GE(sys.bridge().health()->divergenceTrips.value(), 1.0);
    EXPECT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);

    cfg.set("health.degrade", false);
    FullSystem strict(cfg, cosimOptions(cfg));
    try {
        strict.run(4000000);
        ADD_FAILURE() << "the divergence guard never tripped";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Divergence);
        EXPECT_NE(std::string(e.what()).find("estimate error diverged"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_GE(strict.bridge().health()->divergenceTrips.value(), 1.0);
}

TEST(Health, DivergenceErrorGuardOffAtZero)
{
    Config cfg;
    cfg.set("health.divergence_error", 0.0);
    cfg.set("health.degrade", false);
    FullSystem sys(cfg, cosimOptions(cfg));
    sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_EQ(sys.bridge().health()->divergenceTrips.value(), 0.0);
    EXPECT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Healthy);
}

} // namespace
