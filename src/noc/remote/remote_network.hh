/**
 * @file
 * The out-of-process NoC backend client: a NetworkModel whose detailed
 * network lives in a rasim-nocd server, driven over the quantum-RPC
 * protocol. Selected with network.backend=remote.
 *
 * Determinism: injections buffer locally (inject() never performs IO)
 * and flush at advanceTo() as one Step frame carrying the inject batch
 * and the advance target; the server simulates the quantum and replies
 * with the deliveries in delivery order, which this client replays
 * through the delivery handler in that exact order. Every value the
 * rest of the system reads between quanta (curTime, idle, accounting)
 * is mirrored from the last reply, so a remote run is bit-identical to
 * hosting the same network in-process.
 *
 * One exchange per quantum (protocol v5): under reciprocal coupling
 * quantum N's deliveries re-tune the latency table before quantum
 * N+1's injections sample it, so neither side can run ahead of the
 * other without breaking bit-identity. The amortized cost per quantum
 * drops instead by (a) sending inject batch and advance target in one
 * Step frame, and (b) eliding the RPC entirely while the fabric is
 * idle and nothing is buffered (the server's own idle fast-forward
 * catches its clock up on the next real exchange). Both preserve the
 * delivery stream, stats tree and tuned table bit for bit.
 *
 * Failure: every transport fault or quantum timeout is first fought
 * locally. The deterministic retry policy (network.remote.retry.*)
 * reconnects with exponential backoff and rebuilds the server's
 * state from the client's *recovery lineage*: the last base checkpoint
 * image (refreshed every network.remote.ckpt_quanta quanta) plus a
 * journal of every quantum request issued since. Replaying the journal
 * into a fresh session reproduces, by the server's own determinism,
 * the exact pre-failure state — so the retried quantum proceeds as if
 * nothing happened, bit for bit. The client talks to one endpoint
 * (remote.socket): a server that died and was restarted on that
 * address by whoever runs it is rebuilt from the lineage exactly like
 * a reconnect to a server that only dropped the connection. Restarting
 * a dead server is the caller's job. Only when the retry budget is
 * exhausted does the failure surface inside advanceTo() as a typed
 * SimError — precisely where the co-simulation bridge's health
 * machinery catches backend failures and degrades the run to the
 * tuned-abstract fallback; the lineage is dropped at that point, so a
 * later re-engagement opens a fresh session fast-forwarded to the
 * current tick (the pre-retry lossy semantics).
 *
 * Chaos: the constructor's last argument, an ipc::ChannelDecorator,
 * wraps every connection the client opens. Only tests pass one: the
 * transport fault injector in tests/ipc/faulty_transport.hh, drawing
 * from one schedule shared across all of the client's connections, so
 * a faulty run is exactly reproducible — and, while every fault stays
 * within the retry budget, bit-identical to the fault-free run (the
 * chaos differential proof; see tests/noc/chaos_differential_test.cc).
 *
 * Attestation (DESIGN.md section 13): CkptData and CkptLoadAck carry
 * CRC64 digests of the serialized network state, and every
 * network.remote.attest_quanta quanta a Step requests one; the client
 * checks the restored base on every cold open and the rebuilt replica
 * against the journal during replay, failing the attempt on any
 * replica whose state diverged instead of silently computing on it.
 *
 * A server that is alive but wedged is caught by
 * remote.quantum_timeout_ms.
 */

#ifndef RASIM_NOC_REMOTE_REMOTE_NETWORK_HH
#define RASIM_NOC_REMOTE_REMOTE_NETWORK_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ipc/frame.hh"
#include "ipc/protocol.hh"
#include "ipc/retry.hh"
#include "ipc/socket.hh"
#include "noc/network_model.hh"
#include "noc/params.hh"
#include "sim/sim_error.hh"
#include "sim/sim_object.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace noc
{
namespace remote
{

struct RemoteOptions
{
    /** Server address (unix:/path, tcp:host:port, or a bare path). */
    std::string socket = "unix:/tmp/rasim-nocd.sock";
    /** Budget for connect + Hello handshake, in ms. */
    double connect_timeout_ms = 5000.0;
    /** Budget for one quantum's StepReply, in ms (0 = forever). */
    double quantum_timeout_ms = 30000.0;
    /** Server-side ParallelEngine workers (0 = serial). No config
     *  key: FullSystem sets it from system.parallel and
     *  system.engine_workers. */
    int engine_workers = 0;
    /** Refresh the recovery base image every this many successful
     *  quanta; 0 = only explicit checkpoints refresh the base, so the
     *  journal spans the whole lineage. */
    std::uint64_t ckpt_quanta = 256;
    /** Request a CRC64 state attestation with every this many
     *  issued quanta, journaling the digest so a recovery replay
     *  can prove the rebuilt replica reconverged; 0 = attest only at
     *  checkpoints. */
    std::uint64_t attest_quanta = 0;
    /** Deterministic retry/backoff budgets. */
    ipc::RetryOptions retry;

    void
    keys(config::Binder &v)
    {
        v("remote.socket", socket, config::neutral);
        v("remote.connect_timeout_ms", connect_timeout_ms,
          config::neutral);
        v("remote.quantum_timeout_ms", quantum_timeout_ms,
          config::neutral);
        // The hosted router is noc.router, which travels in the
        // Hello's NoC record; this key only refuses a value.
        v.retired("remote.model", "cycle");
        v("network.remote.ckpt_quanta", ckpt_quanta);
        v("network.remote.attest_quanta", attest_quanta);
        v(retry, config::neutral);
    }

    void validate() const;
};

class RemoteNetwork : public SimObject, public NetworkModel
{
  public:
    /** Connects and opens a session eagerly, so a missing server is a
     *  construction-time SimError, not a mid-run surprise.
     *  @p decorate (tests only) wraps every connection opened, given
     *  its ordinal (0 for the first, then one more per reconnect). */
    RemoteNetwork(Simulation &sim, const std::string &name,
                  const NocParams &params, RemoteOptions options,
                  SimObject *parent = nullptr,
                  ipc::ChannelDecorator decorate = {});
    ~RemoteNetwork() override;

    // NetworkModel interface.
    void inject(const PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    void setDeliveryHandler(DeliveryHandler handler) override;
    Tick curTime() const override { return cur_time_; }
    bool idle() const override { return idle_ && pending_.empty(); }
    std::size_t numNodes() const override;
    std::optional<Accounting> accounting() const override;

    /** Pull the hosted network's flattened statistics subtree. */
    std::vector<ipc::StatRow> fetchRemoteStats();

    /** True while a session is open (observability / tests). */
    bool connected() const { return chan_ && chan_->valid(); }

    const NocParams &params() const { return params_; }
    const RemoteOptions &options() const { return options_; }

    /** Packets reported delivered by the server so far. */
    std::uint64_t deliveredCount() const { return acct_.delivered; }

    /**
     * Checkpoint: the client-side mirror state plus a paired
     * server-side checkpoint image taken over the live session (so a
     * cross-process kill-and-resume restores both halves coherently).
     * When the server is unreachable the image is omitted and restore
     * falls back to a fresh session at the saved tick.
     */
    void save(ArchiveWriter &aw);
    void restore(ArchiveReader &ar);

    /** @name Mirrored delivery statistics
     * Sampled from the replayed deliveries in delivery order, so they
     * match a server-hosted (or in-process) detailed network's
     * aggregates bit for bit. */
    /// @{
    stats::Scalar packetsInjected;
    stats::Scalar packetsDelivered;
    stats::Distribution totalLatency;
    stats::Distribution networkLatency;
    stats::Distribution queueLatency;
    stats::Distribution hopCount;
    std::vector<std::unique_ptr<stats::Distribution>> vnetLatency;
    /// @}

    /** @name Transport statistics */
    /// @{
    stats::Scalar rpcRoundTrips;  ///< quantum round-trips completed
    stats::Scalar elidedQuanta;   ///< idle quanta served without IO
    // Retired with protocol v5 and always 0; still registered because
    // the perfbench harness reports them as remote.spec_*.
    stats::Scalar specHits;
    stats::Scalar specRebases;
    /// @}

    /** @name Failure-handling statistics (the "health" group) */
    /// @{
    stats::Group health;          ///< …dumps under <name>.health.*
    stats::Scalar reconnects;     ///< sessions re-opened after a loss
    stats::Scalar retries;        ///< attempts re-run after a backoff
    // Retired with the multi-endpoint failover, the hot standby and
    // the client prober and always 0: failovers, breakerTrips,
    // standbyPrimeFailures, reprimes, heartbeatMisses, workerRestarts.
    // Still registered, in their old order, because perfbench's stats
    // digest covers them.
    stats::Scalar failovers;
    stats::Scalar backoffMsTotal; ///< wall-clock slept in backoffs
    stats::Scalar breakerTrips;
    stats::Scalar standbyPrimeFailures;
    stats::Scalar reprimes;
    stats::Scalar heartbeatMisses;
    stats::Scalar attestationMismatches; ///< replica digests that diverged
    stats::Scalar workerRestarts;
    /// @}

    /**
     * Crash-window test instrumentation: callbacks fired at the exact
     * client-side moments the crash-anywhere tests need to SIGKILL a
     * server in (inside a checkpoint stream, mid-replay, between a
     * recovery's cold open and its replay). Never set outside tests;
     * all default-empty. corrupt_attest flips every digest the client
     * records, forcing the attestation cross-checks to fire.
     */
    struct TestHooks
    {
        /** Before each raw exchange hits the wire (Step, sync,
         *  checkpoint), with a running operation index. */
        std::function<void(std::uint64_t)> on_op;
        /** Before the CkptSave request is sent. */
        std::function<void()> on_ckpt_save;
        /** Before journal record @p i is re-issued during replay. */
        std::function<void(std::size_t)> on_replay;
        /** After a recovery opened a session, before the journal
         *  replay. */
        std::function<void()> on_recover;
        /** Corrupt recorded digests (attestation negative tests). */
        bool corrupt_attest = false;
    };
    TestHooks test_hooks;

  private:
    /** One quantum of the recovery journal: replaying these Step
     *  requests against a session restored to journal_base_
     *  reproduces the pre-failure server state exactly. */
    struct QuantumRecord
    {
        Tick target;
        std::vector<PacketPtr> packets;
        /** The original exchange carried an attestation request; the
         *  digest it returned is the proof a recovery replay must
         *  reproduce before the rebuilt replica is trusted. */
        bool attested = false;
        std::uint64_t digest = 0;
    };

    /** Run @p fn as one retry round: any retryable SimError drops the
     *  connection, backs off deterministically, recovers the session
     *  (cold open + journal replay) and re-runs @p fn.
     *  An exhausted round drops the recovery lineage (giveUp()) and
     *  rethrows, surfacing to the bridge's health machinery. */
    template <typename Fn>
    auto
    runWithRetry(Fn &&fn) -> decltype(fn())
    {
        retry_.beginRound();
        for (;;) {
            try {
                ensureSession();
                auto result = fn();
                syncHealthStats();
                return result;
            } catch (const SimError &err) {
                markDisconnected();
                retry_.noteFailure();
                if (!retryable(err) || !retry_.shouldRetry()) {
                    giveUp();
                    syncHealthStats();
                    throw;
                }
                retry_.backoff();
                syncHealthStats();
            }
        }
    }

    /** Worth another attempt? Transport/Timeout errors are. */
    static bool
    retryable(const SimError &err)
    {
        return err.kind() == ErrorKind::Transport ||
               err.kind() == ErrorKind::Timeout;
    }

    /** Mirror the retry policy's counters into the health stats. */
    void syncHealthStats();

    /** Open a session if none is live: cold open, then replay the
     *  journal. */
    void ensureSession();
    /** Connect to the server and pass the channel through the
     *  decorator, if any. */
    std::unique_ptr<ipc::ByteChannel> openChannel(double timeout_ms);
    /** Hello/HelloAck handshake on @p ch at @p start_tick. */
    ipc::HelloReply helloOn(ipc::ByteChannel &ch, Tick start_tick);
    /** Push @p image into the session on @p ch; returns the restored
     *  server tick plus the replica's own re-serialization digest. */
    ipc::CkptLoadReply ckptLoadOn(ipc::ByteChannel &ch,
                                  const std::string &image);
    /** Connect, say Hello, restore the base image and check its
     *  attestation digest. */
    void coldOpen();
    /** Re-issue every journaled quantum against the fresh session,
     *  discarding the replies (their deliveries were already applied
     *  in the original run) but cross-checking every journaled
     *  attestation digest — a mismatch fails the attempt. */
    void replayJournal();
    /** Capture a fresh base image at the current tick and truncate
     *  the journal. Failure drops the broken connection and keeps the
     *  old (longer-journal) lineage. */
    void refreshBase();
    /** Drop the whole recovery lineage (exhausted round): buffered
     *  injections die with it and the next session starts from an
     *  empty fabric at the current tick. */
    void giveUp();

    /** Drop a broken connection (the lineage survives for replay). */
    void markDisconnected();
    /** Receive one reply on the live channel, mapping EOF to a
     *  Transport SimError. */
    ipc::Message expectReply(double timeout_ms);
    /** Ditto on an explicit channel (cold-open handshakes). */
    ipc::Message expectReplyOn(ipc::ByteChannel &ch, double timeout_ms);
    /** Mirror a quantum reply and replay its deliveries in order. */
    void applyReply(const ipc::AdvanceReply &rep);
    /** Send @p req on the live channel and decode its StepReply
     *  (no retry, nothing applied): the one wire exchange of a
     *  quantum, shared by stepOnce, syncNow and journal replay. */
    ipc::AdvanceReply exchangeStep(const ipc::StepRequest &req,
                                   std::uint8_t &flags,
                                   std::uint64_t &digest);
    /** One raw quantum exchange (no retry): send @p req and apply
     *  the reply. */
    void stepOnce(const ipc::StepRequest &req);
    /** Raw idle catch-up of the server clock (no retry): an empty
     *  Step to cur_time_, so paired state (stats, checkpoints) is
     *  read at the same tick on both sides. */
    void syncNow();
    /** Raw CkptSave exchange (no retry): the server's image at its
     *  current tick, verified against its attestation digest. */
    ipc::CkptReply ckptSaveNow();
    /** Adopt @p image (and its digest) as the new recovery base. */
    void adoptBase(std::string image, std::uint64_t digest);

    NocParams params_;
    RemoteOptions options_;

    std::unique_ptr<ipc::ByteChannel> chan_;
    ipc::ChannelDecorator decorate_;
    std::uint64_t channels_opened_ = 0; ///< the decorator's ordinal
    ipc::RetryPolicy retry_;
    bool ever_connected_ = false;

    DeliveryHandler handler_;
    std::vector<PacketPtr> pending_; ///< injections since last quantum

    // Recovery lineage: base image + journal of quanta since.
    std::string base_image_;  ///< empty = cold Hello at journal_base_
    std::uint64_t base_digest_ = 0; ///< CRC64 attestation of the base
    Tick journal_base_ = 0;   ///< tick the base image was taken at
    std::vector<QuantumRecord> journal_;
    std::uint64_t quanta_since_base_ = 0;

    // Attestation bookkeeping.
    std::uint64_t attest_counter_ = 0; ///< quanta issued
    std::uint64_t last_step_digest_ = 0; ///< from the last StepReply
    bool last_step_attested_ = false;
    std::uint64_t op_counter_ = 0; ///< raw exchanges (test_hooks.on_op)

    // Mirrored from the last quantum reply (or HelloAck).
    /** Where the server's clock actually is; trails cur_time_ while
     *  idle quanta are elided. */
    Tick server_time_ = 0;
    Tick cur_time_ = 0;
    bool idle_ = true;
    Accounting acct_;
    std::uint64_t num_nodes_ = 0;
};

} // namespace remote
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_REMOTE_REMOTE_NETWORK_HH
