/**
 * @file
 * The private per-core L1 cache and its MESI requester-side controller.
 *
 * Table 1: 32 KB, 4-way, 128 B blocks, 2-cycle hits, write-back, 32
 * MSHRs. The L1 talks to its core through direct calls (no network) and
 * to the L2 home banks through the node's network interface.
 */

#ifndef STACKNOC_COHERENCE_L1_CACHE_HH
#define STACKNOC_COHERENCE_L1_CACHE_HH

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/tag_array.hh"
#include "sim/stats.hh"
#include "sim/ticking.hh"
#include "noc/network_interface.hh"
#include "coherence/messages.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::coherence {

/** Static address-interleaved mapping of blocks to L2 home banks. */
struct HomeMap
{
    int numBanks = 64;
    NodeId cacheLayerBase = 64;

    BankId
    bankOf(BlockAddr addr) const
    {
        return static_cast<BankId>(
            addr % static_cast<std::uint64_t>(numBanks));
    }

    NodeId homeNode(BlockAddr addr) const
    {
        return cacheLayerBase + bankOf(addr);
    }
};

/**
 * Blocks whose L1 tag state changed since the last drain: every state
 * write, fill, invalidation and eviction appends the block. The MESI
 * checker enables the log and drains it at cycle end, after the phase
 * barrier; the owning L1 is its only writer. It holds at most one
 * entry per tag frame, since past that a full tag census is cheaper:
 * further changes only set @c overflowed.
 */
struct TagChangeLog
{
    std::vector<BlockAddr> blocks;
    std::size_t capacity = 0; //!< 0: disabled
    bool overflowed = false;
};

/** Store-buffer depth: outstanding fire-and-forget store writes. */
constexpr std::size_t kStoreBufferDepth = 16;

/** L1 geometry and timing. */
struct L1Config
{
    int sets = 64; //!< 32 KB / 128 B blocks / 4 ways
    int ways = 4;
    Cycle hitLatency = 2;
    int mshrs = 32;
};

/**
 * One L1 cache. access() returns false when the request cannot be
 * accepted this cycle (MSHR full, conflicting outstanding transaction,
 * or a pending writeback to the same block); the core retries.
 */
class L1Cache final : public Ticking, public noc::NetworkClient
{
  public:
    /**
     * @param l1name component name.
     * @param core owning core id (== its core-layer node id).
     * @param out packet injection port (the node's NI in production).
     * @param home block-to-bank mapping.
     * @param config cache geometry.
     * @param group statistics group shared by all L1s.
     */
    L1Cache(std::string l1name, CoreId core, noc::PacketSender &out,
            const HomeMap &home, const L1Config &config,
            stats::Group &group);

    /**
     * Where completions go: called once per accepted access with its
     * token, at the cycle the operation completes. The owning core binds
     * it once, at construction.
     */
    using CompletionSink = std::function<void(std::uint64_t token, Cycle)>;

    /** Route every completion to @p sink (replaces any earlier sink). */
    void bindCompletionSink(CompletionSink sink) { sink_ = std::move(sink); }

    /**
     * Start a memory operation.
     *
     * @param is_write store (needs M) vs load (needs S/E/M).
     * @param addr block address.
     * @param l2_hit_hint trace annotation: would this hit in L2?
     * @param token handed back to the completion sink when the operation
     *        completes (the core passes the op's sequence number). A
     *        plain value, so a pending completion checkpoints as is.
     * @return false when the core must retry next cycle.
     */
    bool access(bool is_write, BlockAddr addr, bool l2_hit_hint,
                std::uint64_t token, Cycle now);

    void deliver(noc::PacketPtr pkt, Cycle now) override;
    void tick(Cycle now) override;

    /**
     * tick() only fires delayed hit completions, so the L1 is idle
     * whenever that timer list is empty. MSHR completions run inline
     * from deliver() (called during the NI's tick) and never need the
     * L1's own tick; access() wakes before it can schedule a timer.
     */
    bool quiescent(Cycle) const override { return delayed_.empty(); }

    TickKind tickKind() const override { return TickKind::L1Cache; }

    /** @return MESI state of @p addr (I when absent). */
    L1State state(BlockAddr addr) const;

    /** @return whether @p addr is present in a stable readable state. */
    bool isResident(BlockAddr addr) const;

    /** @return some stable resident block, for re-reference synthesis. */
    const cache::TagEntry *anyResident(std::uint64_t salt) const
    {
        return tags_.anyResident(salt);
    }

    int mshrsInUse() const { return static_cast<int>(mshrs_.size()); }
    CoreId core() const { return core_; }

    /** Read-only tag array access (validation: MESI legality census). */
    const cache::TagArray &tags() const { return tags_; }

    /** Start logging tag-state changes (validation use only). */
    void
    enableTagChangeLog()
    {
        tagLog_.capacity = static_cast<std::size_t>(tags_.numSets()) *
                           static_cast<std::size_t>(tags_.ways());
    }

    /** The tag-change log, for the MESI checker to drain. */
    TagChangeLog &tagChangeLog() { return tagLog_; }

    /**
     * Fault injection for validation tests ONLY: force @p addr into
     * state @p st, allocating a frame (and silently dropping its
     * victim) when the block is absent, without any protocol message.
     * The MESI checker must catch the illegal state pair this plants.
     *
     * @return false when every way of the block's set is pinned.
     */
    bool corruptTagStateForTest(BlockAddr addr, L1State st);

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    struct Mshr
    {
        bool isWrite;
        Cycle startedAt;
        std::uint64_t token;
    };

    /** Hand @p token to the sink. */
    void
    complete(std::uint64_t token, Cycle now)
    {
        if (sink_)
            sink_(token, now);
    }

    void sendRequest(noc::PacketClass cls, CohKind kind, BlockAddr addr,
                     bool l2_hit_hint, Cycle now);
    void completeMiss(BlockAddr addr, L1State final_state, Cycle now);
    void handleInv(const noc::Packet &pkt, Cycle now);
    void handleRecall(const noc::Packet &pkt, Cycle now);

    /** Log a tag change of @p addr when the log is enabled. */
    void
    noteTagChange(BlockAddr addr)
    {
        if (tagLog_.capacity == 0)
            return;
        if (tagLog_.blocks.size() < tagLog_.capacity)
            tagLog_.blocks.push_back(addr);
        else
            tagLog_.overflowed = true;
    }

    /** Write @p st into @p e, logging the block when the state moves. */
    void
    setState(cache::TagEntry &e, L1State st)
    {
        const auto byte = static_cast<std::uint8_t>(st);
        if (e.state == byte)
            return;
        e.state = byte;
        noteTagChange(e.addr);
    }

    /** Drop @p addr from the tags, logging it when it was present. */
    void
    invalidate(BlockAddr addr)
    {
        if (tags_.invalidate(addr))
            noteTagChange(addr);
    }

    CoreId core_;
    noc::PacketSender &out_;
    HomeMap home_;
    L1Config config_;
    cache::TagArray tags_;

    std::unordered_map<BlockAddr, Mshr> mshrs_;
    std::unordered_set<BlockAddr> pendingPutM_;
    /** Hit and store completions: (due cycle, token). */
    std::vector<std::pair<Cycle, std::uint64_t>> delayed_;
    CompletionSink sink_;
    TagChangeLog tagLog_;

    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &storeWrites_;
    stats::Counter &upgrades_;
    stats::Counter &writebacks_;
    stats::Counter &invsReceived_;
    stats::Counter &recallsReceived_;
    stats::Counter &retries_;
    stats::Average &missLatency_;
    stats::Histogram &missLatencyHist_;
};

} // namespace stacknoc::coherence

#endif // STACKNOC_COHERENCE_L1_CACHE_HH
