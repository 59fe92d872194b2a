/**
 * @file
 * Directory (home-node) controller: one slice per node, serialising
 * coherence transactions per block. Data misses at the home go through
 * the local DRAM bank model; a per-entry "cached" bit stands in for an
 * L2 data slice of unbounded capacity (documented simplification).
 */

#ifndef RASIM_MEM_DIRECTORY_HH
#define RASIM_MEM_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/dram.hh"
#include "mem/message_hub.hh"
#include "mem/msg.hh"
#include "mem/params.hh"
#include "sim/flat_map.hh"
#include "sim/serialize.hh"
#include "sim/sim_object.hh"
#include "sim/small_vector.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace mem
{

/**
 * Sharer set as a sorted small vector: iteration is ascending (same
 * order the std::set it replaced produced, which checkpoints rely on).
 * Up to inline_sharers nodes live inside the set itself, so a block
 * with narrow sharing — nearly all of them — owns no heap memory; wider
 * sharing spills once and clear() keeps the spilled capacity.
 */
class NodeSet
{
  public:
    void
    insert(NodeId node)
    {
        auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
        if (it == nodes_.end() || *it != node)
            nodes_.insert(it, node);
    }

    std::size_t
    count(NodeId node) const
    {
        return std::binary_search(nodes_.begin(), nodes_.end(), node)
                   ? 1
                   : 0;
    }

    void clear() { nodes_.clear(); }
    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }

    auto begin() const { return nodes_.begin(); }
    auto end() const { return nodes_.end(); }

    static constexpr std::size_t inline_sharers = 4;

  private:
    SmallVector<NodeId, inline_sharers> nodes_;
};

/**
 * FIFO of coherence requests queued behind a busy block: a vector plus
 * a head index. An empty queue owns no heap memory — every directory
 * entry holds one, and a std::deque would allocate a map and a node
 * even when empty — and draining it keeps the capacity.
 */
class MsgQueue
{
  public:
    bool empty() const { return head_ == msgs_.size(); }
    std::size_t size() const { return msgs_.size() - head_; }

    void push(const CoherenceMsg &msg) { msgs_.push_back(msg); }

    /** Remove and return the oldest message. @pre !empty(). */
    CoherenceMsg
    pop()
    {
        CoherenceMsg msg = msgs_[head_++];
        if (head_ == msgs_.size()) {
            msgs_.clear();
            head_ = 0;
        } else if (head_ >= 64 && 2 * head_ >= msgs_.size()) {
            // A block that stays busy never drains: drop the consumed
            // prefix so the vector tracks the live length.
            msgs_.erase(msgs_.begin(), msgs_.begin() + head_);
            head_ = 0;
        }
        return msg;
    }

    /** Oldest-first iteration over the queued messages. */
    auto begin() const { return msgs_.begin() + head_; }
    auto end() const { return msgs_.end(); }

  private:
    std::vector<CoherenceMsg> msgs_;
    std::uint32_t head_ = 0;
};

class Directory : public SimObject, public Serializable
{
  public:
    Directory(Simulation &sim, const std::string &name, NodeId node,
              const MemParams &params, MessageHub &hub,
              SimObject *parent = nullptr);

    /** Coherence message entry point (registered with the hub). */
    void handleMessage(const CoherenceMsg &msg);

    /** True when no transaction is mid-flight at this slice. */
    bool quiescent() const;

    NodeId node() const { return node_; }

    /** Introspection for tests: 'I'/'S'/'M', 'B' while busy. */
    char probeState(Addr addr) const;
    std::size_t probeSharerCount(Addr addr) const;
    /** Requests queued behind the block's in-flight transaction. */
    std::size_t probeQueued(Addr addr) const;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    stats::Scalar getSReceived;
    stats::Scalar getMReceived;
    stats::Scalar putMReceived;
    stats::Scalar forwardsSent;
    stats::Scalar invalidationsSent;
    stats::Scalar queuedMessages;

  private:
    enum class DirState : std::uint8_t { I, S, M };

    struct Entry
    {
        NodeSet sharers;
        /** Requests waiting for the in-flight transaction to finish. */
        MsgQueue queue;
        NodeId owner = invalid_node;
        /** Requestor of the in-flight forward transaction. */
        NodeId pending_requestor = invalid_node;
        DirState state = DirState::I;
        /** Data present in the L2 slice (no DRAM access needed). */
        bool cached = false;
        /** A forward-based transaction is in flight. */
        bool busy = false;
    };

    void process(const CoherenceMsg &msg);
    void processGetS(const CoherenceMsg &msg, Entry &entry);
    void processGetM(const CoherenceMsg &msg, Entry &entry);
    void processPutM(const CoherenceMsg &msg, Entry &entry);
    void unblock(Addr addr, Entry &entry);

    /** Tick at which the block's data is available at this slice. */
    Tick dataReadyTick(const Entry &entry, Addr addr);

    void sendAt(Tick when, const CoherenceMsg &msg, NodeId dst);

    struct PendingSend
    {
        Tick when = 0;
        CoherenceMsg msg;
        NodeId dst = 0;
    };

    NodeId node_;
    const MemParams &params_;
    MessageHub &hub_;
    Dram dram_;
    /**
     * Per-block directory state. Open addressing: references into the
     * table are invalidated by insertion (rehash), so no Entry& may be
     * held across an entries_[] of a different address — unblock()'s
     * existing "no rehash while handling addr's own queue" invariant.
     */
    FlatMap<Addr, Entry> entries_;
    /** sendAt() events not yet fired, keyed by event sequence. */
    FlatMap<std::uint64_t, PendingSend> pending_sends_;
    std::uint64_t busy_count_ = 0;
};

} // namespace mem
} // namespace rasim

#endif // RASIM_MEM_DIRECTORY_HH
