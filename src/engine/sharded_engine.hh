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
 * threads, bit-identical to SequentialEngine. Each cycle t:
 *
 *  1. Parallel compute phase. Every shard first drains the mailboxes
 *     addressed to it from cycle t-1 (the other parity): the values
 *     other shards pushed to its receivers are spliced into their live
 *     queues, and the receivers are woken by the thread that owns
 *     them. It then ticks its active components in ascending
 *     schedule-ordinal order (kind-batched, devirtualized dispatch)
 *     with its outbox for parity t installed. A channel push to a
 *     receiver on the same shard is immediate, as in the sequential
 *     engine; a push that crosses a shard boundary is staged in the
 *     channel and enrolled in the mailbox of the receiver's shard, and
 *     every trace record goes to the shard's trace log. Stats need no
 *     deferral: every component owns its stat writers, and
 *     stats::Group sums them on read. With elision on, a component
 *     reporting quiescent() after its tick leaves the active set until
 *     a wake re-arms it.
 *  2. Barrier (sense = epoch counter, spin with yield fallback). It
 *     orders every parity-t push before the next cycle's drains.
 *  3. Commit phase (main thread): only with a tracer installed, the
 *     trace logs are merged by schedule ordinal — the exact sequential
 *     recording order — and replayed. Then the main thread drains the
 *     parity-t mailboxes of the serial list.
 *  4. Serial phase (main thread): components registered with
 *     kSerialAffinity tick with staging off.
 *  5. Cycle-end callbacks and clock advance via Simulator::completeCycle.
 *     Cross-shard values of cycle t are still staged here; observers
 *     see them through Channel::forEachInFlight.
 *
 * A sender writes only parity t's buffers during cycle t, and every
 * channel has latency >= 1, so no buffer is written and drained in the
 * same phase and no atomics are needed. run() drains every mailbox
 * after its last cycle, so nothing is staged between runs (checkpoints,
 * active-flag walks, engine teardown).
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
        /**
         * This shard's outboxes by cycle parity (see ChannelBase::Outbox).
         * Filled by this shard during cycles of that parity; slot r is
         * drained and cleared by shard r (the serial slot by the main
         * thread) during the next cycle.
         */
        ChannelBase::Outbox outbox[2];
        telemetry::TraceLog trace_log;
        /**
         * Active flags, 1:1 with the shard's plan items. Written by
         * the owning worker (deactivation after a quiescent tick,
         * mailbox drains, and same-shard direct calls and channel
         * pushes) during the compute phase, or by the main thread
         * during serial/cycle-end and between runs — never
         * concurrently, thanks to the phase barrier.
         */
        std::vector<std::uint8_t> active;
        /** Component ticks this shard executed (occupancy telemetry). */
        std::uint64_t ticked = 0;
    };

    /** One cycle; stamps phase times when a profiler is installed. */
    void runCycle();
    void runShard(std::size_t shard, Cycle now);
    void workerLoop(std::size_t shard);

    /** Drain the @p parity mailboxes of every sender addressed to
     *  outbox slot @p slot (a shard, or the serial slot). */
    void drainMailboxes(unsigned parity, std::size_t slot);

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
