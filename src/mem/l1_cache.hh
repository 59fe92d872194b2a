/**
 * @file
 * Private L1 cache controller: MESI-style (MSI + upgrade) state
 * machine against distributed directories, with MSHRs, a write-back
 * buffer and pluggable replacement.
 *
 * Race handling summary (home nodes serialise per-block transactions):
 *  - Inv arriving in M/IM_D-with-data/I is stale (silently-evicted or
 *    reordered epoch) and only needs an InvAck.
 *  - Inv in IS_D is real under reordering: the load completes with the
 *    arriving data but the line is not cached (was_invalidated).
 *  - Fwd* arriving before the data of our own GetM is deferred until
 *    the line reaches M.
 *  - Fwd* arriving while a dirty eviction is in flight is answered
 *    from the write-back buffer; the PutM goes stale at the home.
 */

#ifndef RASIM_MEM_L1_CACHE_HH
#define RASIM_MEM_L1_CACHE_HH

#include <functional>
#include <utility>
#include <vector>

#include "mem/message_hub.hh"
#include "mem/msg.hh"
#include "mem/params.hh"
#include "mem/replacement.hh"
#include "sim/flat_map.hh"
#include "sim/serialize.hh"
#include "sim/sim_object.hh"
#include "sim/small_vector.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace mem
{

class L1Cache : public SimObject, public Serializable
{
  public:
    /** Completion callback for a core memory operation. */
    using Callback = std::function<void()>;
    /** Maps a block address to its home (directory) node. */
    using HomeOf = std::function<NodeId(Addr)>;
    /**
     * Rebuilds a core completion callback from its is_write flag when
     * restoring a checkpoint: closures cannot be archived, but the
     * core's load/store completion handlers are a pure function of the
     * operation kind.
     */
    using CompletionFactory = std::function<Callback(bool is_write)>;

    L1Cache(Simulation &sim, const std::string &name, NodeId node,
            const MemParams &params, MessageHub &hub, HomeOf home_of,
            SimObject *parent = nullptr);

    /**
     * Issue a load/store to @p addr. Returns false when no MSHR,
     * write-back buffer entry or stable victim is available — the core
     * must retry after the retry callback fires.
     * On true, @p cb runs when the operation completes.
     */
    bool access(Addr addr, bool is_write, Callback cb);

    /** As access(), but without hit/miss accounting (used for waiter
     *  re-issue so one core operation is classified exactly once). */
    bool accessInternal(Addr addr, bool is_write, Callback cb,
                        bool count_stats);

    /** Invoked when a previously exhausted resource frees up. */
    void setRetryCallback(Callback cb) { retry_cb_ = std::move(cb); }

    /** Install the callback rebuilder used by restore(). */
    void
    setCompletionFactory(CompletionFactory f)
    {
        completion_factory_ = std::move(f);
    }

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    /** Coherence message entry point (registered with the hub). */
    void handleMessage(const CoherenceMsg &msg);

    /** True when no transaction or write-back is outstanding. */
    bool quiescent() const;

    NodeId node() const { return node_; }

    /** Introspection for tests: stable state of a block ('I' when
     *  absent), one of "ISM" plus 'T' for transient. */
    char probeState(Addr addr) const;

    stats::Scalar loadHits;
    stats::Scalar loadMisses;
    stats::Scalar storeHits;
    stats::Scalar storeMisses;
    stats::Scalar upgrades;
    stats::Scalar writebacks;
    stats::Scalar invsReceived;
    stats::Scalar fwdsReceived;
    stats::Scalar retriesSignalled;

  private:
    enum class State : std::uint8_t
    {
        I,
        S,
        M,
        IS_D, ///< load miss, waiting for data
        IM_D, ///< store miss, waiting for data and/or acks
        SM_D, ///< upgrade, waiting for ack count and/or acks
        MI_A, ///< dirty eviction, waiting for WBAck (wb buffer)
    };

    struct Line
    {
        Addr block = 0;
        State state = State::I;
    };

    struct Mshr
    {
        bool is_write = false;
        bool data_received = false;
        bool was_invalidated = false;
        int pending_acks = 0;
        /** (is_write, completion) of every core operation waiting on
         *  this miss; one or two almost always, so they sit inline. */
        SmallVector<std::pair<bool, Callback>, 2> waiters;
    };

    int setOf(Addr block) const;
    void touchLine(Addr block, Line *line);
    Line *findLine(Addr block);
    const Line *findLine(Addr block) const;

    /** Allocate a way for @p block; may start a write-back.
     *  @return nullptr when no stable victim or wb space exists. */
    Line *allocateLine(Addr block);

    void sendToHome(MsgType type, Addr block);
    /** Schedule a hit-path completion, tracked for checkpointing. */
    void scheduleCompletion(Tick done, bool is_write, Callback cb);
    void completeTransaction(Addr block, Line &line);
    void finishMshr(Addr block);
    void processDeferred(Addr block);
    void signalRetry();

    void handleData(const CoherenceMsg &msg);
    void handleInvAck(const CoherenceMsg &msg);
    void handleInv(const CoherenceMsg &msg);
    void handleFwd(const CoherenceMsg &msg);
    void handleWBAck(const CoherenceMsg &msg);

    NodeId node_;
    const MemParams &params_;
    MessageHub &hub_;
    HomeOf home_of_;
    std::vector<std::vector<Line>> sets_;
    std::unique_ptr<ReplacementPolicy> repl_;
    /** Open addressing: no Mshr& survives an insert into mshrs_ (the
     *  table may rehash); the controller never holds one across
     *  finishMshr()/accessInternal(). */
    FlatMap<Addr, Mshr> mshrs_;
    /** Dirty blocks evicted but not yet acknowledged by the home. */
    FlatMap<Addr, bool> wb_buffer_;
    /** Forwards stalled until the local transaction completes. */
    FlatMap<Addr, std::vector<CoherenceMsg>> deferred_;
    Callback retry_cb_;
    CompletionFactory completion_factory_;
    /** Hit completions in flight, keyed by their event's insertion
     *  sequence: seq -> (completion tick, is_write). */
    FlatMap<std::uint64_t, std::pair<Tick, bool>> pending_completions_;
    bool want_retry_ = false;
};

} // namespace mem
} // namespace rasim

#endif // RASIM_MEM_L1_CACHE_HH
