/**
 * @file
 * Execution engines: strategies for advancing a Simulator's clock.
 *
 * The Simulator owns the component registry and the clock; an
 * ExecutionEngine owns the tick loop. SequentialEngine reproduces the
 * historical single-threaded loop exactly; ShardedParallelEngine ticks
 * spatial shards of the component registry on persistent worker threads
 * with a two-phase (compute, then commit) cycle that is bit-identical
 * to the sequential engine regardless of thread count. See
 * docs/ENGINE.md for the determinism contract.
 */

#ifndef STACKNOC_ENGINE_ENGINE_HH
#define STACKNOC_ENGINE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hh"
#include "sim/simulator.hh"

namespace stacknoc::telemetry {
class CycleProfiler;
} // namespace stacknoc::telemetry

namespace stacknoc::engine {

/** Drives a Simulator's registered components through time. */
class ExecutionEngine
{
  public:
    explicit ExecutionEngine(Simulator &sim, bool elide = true)
        : sim_(sim), elide_(elide)
    {}
    virtual ~ExecutionEngine() = default;

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /** Advance the simulation by @p cycles. */
    virtual void run(Cycle cycles) = 0;

    /** Engine kind, for logs and stats ("sequential" / "sharded"). */
    virtual const char *name() const = 0;

    /** Number of threads ticking components (1 for sequential). */
    virtual int threads() const = 0;

    /**
     * Install a cycle-accounting profiler (nullptr = off, the
     * default). Must happen before the first run(); with no profiler
     * the engines take their historical fast paths and pay nothing.
     */
    virtual void setProfiler(telemetry::CycleProfiler *profiler)
    {
        profiler_ = profiler;
    }

    telemetry::CycleProfiler *profiler() const { return profiler_; }

    /** Whether quiescent components are skipped (idle elision). */
    bool elides() const { return elide_; }

    /**
     * Component ticks actually executed so far. With elision off this
     * equals tickSlots(); the gap is the elision win. Observer-only:
     * the counts never feed back into simulation state, so they are
     * free to differ between engines (a component another engine
     * happened to tick while quiescent is still a no-op).
     */
    virtual std::uint64_t tickedComponents() const { return ticked_; }

    /** Component-tick opportunities so far (components x cycles). */
    virtual std::uint64_t tickSlots() const { return slots_; }

    using ActiveFlagFn = std::function<void(std::size_t, std::uint8_t &)>;

    /**
     * Call @p fn with each component's schedule ordinal and its
     * idle-elision active flag (1 = ticks next cycle). Checkpoints save
     * and restore the active set through this between run() calls,
     * whichever engine is attached.
     */
    virtual void forEachActiveFlag(const ActiveFlagFn &fn) = 0;

  protected:
    Simulator &sim_;
    telemetry::CycleProfiler *profiler_ = nullptr;
    const bool elide_;
    std::uint64_t ticked_ = 0;
    std::uint64_t slots_ = 0;
};

/**
 * Factory: @p threads <= 1 builds a SequentialEngine, anything larger a
 * ShardedParallelEngine with that many shards. Call only after every
 * component has been registered with the Simulator. @p elide enables
 * idle elision (the default); false restores the full per-cycle walk.
 */
std::unique_ptr<ExecutionEngine> makeEngine(Simulator &sim, int threads,
                                            bool elide = true);

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_ENGINE_HH
