/**
 * @file
 * The deterministic sharded parallel execution engine.
 */

#ifndef STACKNOC_ENGINE_SHARDED_ENGINE_HH
#define STACKNOC_ENGINE_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "engine/shard_plan.hh"
#include "sim/channel.hh"
#include "telemetry/trace.hh"

namespace stacknoc::engine {

/**
 * Ticks spatial shards of the component registry on persistent worker
 * threads, bit-identical to SequentialEngine. Each cycle:
 *
 *  1. Parallel compute phase: every shard ticks its active components
 *     in ascending schedule-ordinal order (kind-batched, devirtualized
 *     dispatch) with thread-local staging installed. A channel push
 *     to a receiver on the same shard is immediate, as in the
 *     sequential engine; a push that crosses a shard boundary, and
 *     every trace record, is deferred into per-shard buffers instead
 *     of touching another thread's state. Stats need no deferral:
 *     every component owns its stat writers, and stats::Group sums
 *     them on read. With elision on, a component reporting
 *     quiescent() after its tick leaves the active set until a wake
 *     re-arms it.
 *  2. Barrier (sense = epoch counter, spin with yield fallback).
 *  3. Commit phase (main thread): the staged values of the
 *     shard-boundary channels are spliced into the live queues
 *     (waking each channel's receiver); trace logs are merged by
 *     schedule ordinal — the exact sequential recording order — and
 *     replayed.
 *  4. Serial phase (main thread): components registered with
 *     kSerialAffinity tick with staging off.
 *  5. Cycle-end callbacks and clock advance via Simulator::completeCycle.
 *
 * The engine tags every component of its plan with its shard index
 * (Ticking::setShard), which is what channels compare against, and
 * clears the tags on destruction. The main thread executes shard 0
 * itself, so N shards cost N-1 worker threads. See docs/ENGINE.md for
 * why each step preserves equivalence.
 */
class ShardedParallelEngine : public ExecutionEngine
{
  public:
    /**
     * @param threads requested shard count (>= 2). The effective count
     * is capped at the number of distinct affinity keys.
     * @param elide skip quiescent components (see docs/ENGINE.md).
     */
    ShardedParallelEngine(Simulator &sim, int threads, bool elide = true);
    ~ShardedParallelEngine() override;

    void run(Cycle cycles) override;
    const char *name() const override { return "sharded"; }
    int threads() const override { return requested_threads_; }

    std::uint64_t tickedComponents() const override;

    /**
     * Install the profiler and size its per-shard slots. Workers read
     * the pointer only after observing a cycle epoch published later,
     * so installation needs no extra synchronisation — but it must
     * happen before the first run().
     */
    void setProfiler(telemetry::CycleProfiler *profiler) override;

    void forEachActiveFlag(const ActiveFlagFn &fn) override;

    /** The partition being executed (test/diagnostic use). */
    const ShardPlan &plan() const { return plan_; }

  private:
    /** Per-shard deferral buffers, one cache-line-separated allocation
     *  per shard to keep workers from false-sharing. */
    struct ShardState
    {
        std::vector<ChannelBase *> staged_channels;
        telemetry::TraceLog trace_log;
        /**
         * Active flags, 1:1 with the shard's plan items. Written by
         * the owning worker (deactivation after a quiescent tick) and,
         * through bound wake pointers, by same-shard direct calls and
         * channel pushes during the compute phase or by the main
         * thread during commit/serial/cycle-end — never concurrently,
         * thanks to the phase barrier.
         */
        std::vector<std::uint8_t> active;
        /** Component ticks this shard executed (occupancy telemetry). */
        std::uint64_t ticked = 0;
    };

    /** One cycle; stamps phase times when a profiler is installed. */
    void runCycle();
    void runShard(std::size_t shard, Cycle now);
    void workerLoop(std::size_t shard);

    /** Commit phase: splice boundary channels, merge trace logs. */
    void commitStagedState();

    /** Serial-phase body: tick (active) serial components. */
    void runSerial(Cycle now);

    ShardPlan plan_;
    int requested_threads_;
    std::uint64_t registry_version_;
    /** Active flags for the serial list (main thread only). */
    std::vector<std::uint8_t> serial_active_;
    /** Barrier spin budget before yielding (0 when oversubscribed). */
    int spin_iters_ = 0;

    std::vector<std::unique_ptr<ShardState>> shard_state_;
    std::vector<telemetry::TraceLog *> trace_logs_;

    // Cycle handshake: the main thread publishes cycle_ then bumps
    // epoch_ (release); workers observe the new epoch (acquire), tick
    // their shard, and bump done_ (release). Monotonic epochs double as
    // the barrier sense, so no reinitialisation race exists.
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<bool> stop_{false};
    Cycle cycle_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_SHARDED_ENGINE_HH
