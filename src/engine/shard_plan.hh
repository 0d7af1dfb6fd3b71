/**
 * @file
 * Spatial partitioning of a Simulator's component registry into shards.
 */

#ifndef STACKNOC_ENGINE_SHARD_PLAN_HH
#define STACKNOC_ENGINE_SHARD_PLAN_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "sim/ticking.hh"

namespace stacknoc::engine {

/** One component's slot in a shard plan. */
struct ShardItem
{
    Ticking *component = nullptr;
    /**
     * Position in the global kind-batched schedule: all components
     * sorted by (tickKind, registration index). This is the canonical
     * within-cycle tick order of every engine — the sequential engine
     * walks it directly, and the sharded engine's commit phase merges
     * per-shard trace logs by it — so results are bit-identical
     * across engines, thread counts, and elision modes.
     */
    std::uint32_t ordinal = 0;
    /** The affinity key the component was registered with. */
    int affinity = Simulator::kSerialAffinity;
    /** Batching class, for the engines' devirtualized kind loops. */
    TickKind kind = TickKind::Other;
};

/**
 * The partition the sharded engine executes: parallel shards (each
 * ticked by one worker, components in ascending ordinal order) plus the
 * serial list (components with kSerialAffinity, ticked on the main
 * thread after the phase barrier, also in ascending ordinal order).
 *
 * Components sharing an affinity key always land in the same shard —
 * that is the co-location guarantee system builders rely on (e.g. both
 * layers' routers of one mesh column, so cross-layer TSB pairs never
 * straddle a shard boundary).
 *
 * Each list is grouped by TickKind (the schedule sort is kind-major),
 * so an engine walking a list front to back executes contiguous
 * per-kind batches. The kind order mirrors the historical registration
 * order of CmpSystem (routers, NIs, sideband, banks, memory
 * controllers, L1s, cores), preserving every direct-call ordering
 * contract between kinds.
 */
struct ShardPlan
{
    std::vector<std::vector<ShardItem>> shards;
    std::vector<ShardItem> serial;

    std::size_t numShards() const { return shards.size(); }

    std::size_t
    parallelCount() const
    {
        std::size_t n = 0;
        for (const auto &s : shards)
            n += s.size();
        return n;
    }
};

/**
 * Partition @p sim's registry into at most @p nshards shards: the
 * distinct affinity keys are sorted and dealt in contiguous rank ranges
 * (key rank r of K goes to shard r * shards / K), so shard sizes differ
 * by at most one key. The CMP's keys are mesh positions x + width * y,
 * so each shard gets whole mesh rows and only the Y-direction links
 * between row bands cross a shard boundary; every other channel push
 * stays on its shard and skips the mailboxes. The effective shard
 * count is min(nshards, number of distinct keys) so no shard is empty.
 */
ShardPlan buildShardPlan(const Simulator &sim, int nshards);

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_SHARD_PLAN_HH
