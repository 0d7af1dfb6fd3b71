#include "engine/sequential_engine.hh"

#include <string>

#include "engine/tick_dispatch.hh"
#include "telemetry/profile.hh"

namespace stacknoc::engine {

namespace {

/** Kind buckets for the profiler's compute attribution, in TickKind
 *  order (== the batched schedule order). */
const std::vector<std::string> kKindNames = {
    "router", "ni", "rca", "l2bank", "mc", "l1", "core", "other",
};

} // namespace

SequentialEngine::~SequentialEngine()
{
    unbindFlags();
}

void
SequentialEngine::unbindFlags()
{
    for (std::size_t i = 0; i < order_.size(); ++i)
        order_[i].component->unbindWakeFlag(&active_[i]);
}

void
SequentialEngine::ensureSchedule()
{
    if (scheduleBuilt_ && scheduleVersion_ == sim_.registryVersion())
        return;
    unbindFlags();

    // One shard holds every parallel component in schedule order; the
    // serial list follows, mirroring the sharded engine's phase order.
    ShardPlan plan = buildShardPlan(sim_, 1);
    order_.clear();
    for (auto &shard : plan.shards)
        for (const ShardItem &item : shard)
            order_.push_back(item);
    for (const ShardItem &item : plan.serial)
        order_.push_back(item);

    // Everything starts awake; the first tick establishes quiescence.
    active_.assign(order_.size(), 1);
    if (elide_) {
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i].component->bindWakeFlag(&active_[i]);
    }

    scheduleVersion_ = sim_.registryVersion();
    scheduleBuilt_ = true;
}

void
SequentialEngine::forEachActiveFlag(const ActiveFlagFn &fn)
{
    ensureSchedule();
    for (std::size_t i = 0; i < order_.size(); ++i)
        fn(order_[i].ordinal, active_[i]);
}

void
SequentialEngine::run(Cycle cycles)
{
    ensureSchedule();
    telemetry::CycleProfiler *prof = profiler_;
    if (prof != nullptr && !kindsSet_) {
        prof->setKinds(kKindNames);
        kindsSet_ = true;
    }

    const std::size_t n = order_.size();
    for (Cycle i = 0; i < cycles; ++i) {
        const Cycle now = sim_.now();
        // With a profiler, chained timestamps: each clock read ends one
        // measurement and starts the next, so the phase durations tile
        // the loop and their sum tracks wall time. The schedule is
        // kind-major, so one read where the kind changes (and one after
        // the loop) attributes every component, skipped ones included,
        // to its own kind.
        const double cycle_start = prof ? prof->nowSeconds() : 0.0;
        double t_prev = cycle_start;
        TickKind run_kind = n != 0 ? order_[0].kind : TickKind::Other;
        const auto stamp_kind = [&] {
            const double t = prof->nowSeconds();
            prof->addKindSeconds(static_cast<std::uint8_t>(run_kind),
                                 t - t_prev);
            t_prev = t;
        };
        std::uint64_t ticked = 0;
        for (std::size_t s = 0; s < n; ++s) {
            const ShardItem &item = order_[s];
            if (prof && item.kind != run_kind) {
                stamp_kind();
                run_kind = item.kind;
            }
            if (!active_[s])
                continue;
            tickByKind(item, now);
            ++ticked;
            if (elide_ && quiescentByKind(item, now))
                active_[s] = 0;
        }
        if (prof && n != 0)
            stamp_kind();
        ticked_ += ticked;
        slots_ += n;

        if (prof)
            prof->addPhase(telemetry::EnginePhase::Compute, cycle_start,
                           t_prev);
        sim_.completeCycle();
        if (prof) {
            prof->addPhase(telemetry::EnginePhase::CycleEnd, t_prev,
                           prof->nowSeconds());
            prof->addCycles(1);
        }
    }
}

} // namespace stacknoc::engine
