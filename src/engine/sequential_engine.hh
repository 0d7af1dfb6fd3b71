/**
 * @file
 * The single-threaded tick loop behind the engine interface.
 */

#ifndef STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH
#define STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH

#include <cstdint>
#include <vector>

#include "engine/engine.hh"
#include "engine/shard_plan.hh"

namespace stacknoc::engine {

/**
 * Ticks every active component on the calling thread, walking the
 * kind-batched schedule (engine/shard_plan.hh) in ordinal order — the
 * reference tick order the sharded engine must be bit-identical to.
 *
 * With elision on (the default) a component reporting quiescent() after
 * its tick leaves the active set and is skipped until a channel push or
 * direct call wakes it; the skipped ticks are no-ops by the quiescence
 * contract, so results match the full walk exactly. With elision off
 * every component ticks every cycle, in the same schedule order.
 *
 * With a profiler installed the same loop additionally attributes
 * compute time to component kinds with chained timestamps, so phase
 * durations tile the measured wall time. Tick order, and therefore
 * every simulation result, is identical either way.
 */
class SequentialEngine : public ExecutionEngine
{
  public:
    explicit SequentialEngine(Simulator &sim, bool elide = true)
        : ExecutionEngine(sim, elide)
    {}
    ~SequentialEngine() override;

    void run(Cycle cycles) override;
    const char *name() const override { return "sequential"; }
    int threads() const override { return 1; }
    /** Builds the schedule first, so a never-run engine reports it. */
    void forEachActiveFlag(const ActiveFlagFn &fn) override;

  private:
    /** (Re)build the schedule when the registry changed; rebind flags. */
    void ensureSchedule();
    void unbindFlags();

    /** The kind-batched schedule, parallel items then serial items. */
    std::vector<ShardItem> order_;
    /** Active flags, 1:1 with order_ (wake flags; elision only). */
    std::vector<std::uint8_t> active_;
    std::uint64_t scheduleVersion_ = 0;
    bool scheduleBuilt_ = false;
    bool kindsSet_ = false; //!< profiler kind names published once
};

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH
