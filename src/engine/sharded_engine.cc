#include "engine/sharded_engine.hh"

#include "common/logging.hh"
#include "engine/tick_dispatch.hh"
#include "telemetry/profile.hh"

namespace stacknoc::engine {

namespace {

/**
 * Spin for @p spin_iters checks, then start yielding the core. A zero
 * budget yields immediately — the right behavior when shards
 * outnumber hardware threads, where spinning only steals cycles from
 * the thread being waited on.
 */
template <typename Pred>
void
spinWait(int spin_iters, Pred pred)
{
    for (int i = 0; !pred(); ++i) {
        if (i >= spin_iters)
            std::this_thread::yield();
    }
}

} // namespace

ShardedParallelEngine::ShardedParallelEngine(Simulator &sim, int threads,
                                             bool elide)
    : ExecutionEngine(sim, elide),
      plan_(buildShardPlan(sim, threads)),
      requested_threads_(threads),
      registry_version_(sim.registryVersion())
{
    panic_if(threads < 2,
             "ShardedParallelEngine needs >= 2 threads (use "
             "SequentialEngine for 1)");

    const std::size_t nshards = plan_.numShards();
    shard_state_.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
        shard_state_.push_back(std::make_unique<ShardState>());
        auto &st = *shard_state_.back();
        // One mailbox per receiving shard, plus the serial slot.
        for (auto &outbox : st.outbox)
            outbox.resize(nshards + 1);
        trace_logs_.push_back(&st.trace_log);
        // Everything starts awake; the first tick proves quiescence.
        st.active.assign(plan_.shards[s].size(), 1);
        for (std::size_t i = 0; i < plan_.shards[s].size(); ++i) {
            // The shard tag lets pushes to this component from its own
            // shard skip staging (see ChannelBase).
            Ticking *c = plan_.shards[s][i].component;
            c->setShard(static_cast<int>(s));
            if (elide_)
                c->bindWakeFlag(&st.active[i]);
        }
    }
    serial_active_.assign(plan_.serial.size(), 1);
    if (elide_) {
        for (std::size_t i = 0; i < plan_.serial.size(); ++i)
            plan_.serial[i].component->bindWakeFlag(&serial_active_[i]);
    }

    // Spin only when every shard can own a hardware thread; otherwise
    // the barrier must yield so the preempted shard gets to run.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_iters_ = (hw != 0 && nshards <= hw) ? (1 << 14) : 0;

    // The main thread runs shard 0; each remaining shard gets a
    // persistent worker parked on the epoch counter.
    for (std::size_t s = 1; s < nshards; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

ShardedParallelEngine::~ShardedParallelEngine()
{
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (auto &w : workers_)
        w.join();

    for (std::size_t s = 0; s < plan_.shards.size(); ++s) {
        auto &st = *shard_state_[s];
        for (std::size_t i = 0; i < plan_.shards[s].size(); ++i) {
            Ticking *c = plan_.shards[s][i].component;
            c->setShard(Ticking::kNoShard);
            c->unbindWakeFlag(&st.active[i]);
        }
    }
    for (std::size_t i = 0; i < plan_.serial.size(); ++i)
        plan_.serial[i].component->unbindWakeFlag(&serial_active_[i]);
}

std::uint64_t
ShardedParallelEngine::tickedComponents() const
{
    std::uint64_t total = ticked_; // serial-phase ticks
    for (const auto &st : shard_state_)
        total += st->ticked;
    return total;
}

void
ShardedParallelEngine::forEachActiveFlag(const ActiveFlagFn &fn)
{
    for (std::size_t s = 0; s < plan_.shards.size(); ++s) {
        auto &st = *shard_state_[s];
        for (std::size_t i = 0; i < plan_.shards[s].size(); ++i)
            fn(plan_.shards[s][i].ordinal, st.active[i]);
    }
    for (std::size_t i = 0; i < plan_.serial.size(); ++i)
        fn(plan_.serial[i].ordinal, serial_active_[i]);
}

void
ShardedParallelEngine::setProfiler(telemetry::CycleProfiler *profiler)
{
    ExecutionEngine::setProfiler(profiler);
    if (profiler_ != nullptr)
        profiler_->setShardCount(plan_.numShards());
}

void
ShardedParallelEngine::workerLoop(std::size_t shard)
{
    std::uint64_t seen = 0;
    for (;;) {
        ++seen;
        spinWait(spin_iters_, [&] {
            return epoch_.load(std::memory_order_acquire) >= seen;
        });
        if (stop_.load(std::memory_order_acquire))
            return;
        // Safe to read only after the epoch acquire: setProfiler runs
        // on the main thread before the epoch publishing this cycle.
        if (telemetry::CycleProfiler *prof = profiler_) {
            const double t0 = prof->nowSeconds();
            runShard(shard, cycle_);
            prof->addShardPhase(shard, telemetry::EnginePhase::Compute,
                                t0, prof->nowSeconds());
        } else {
            runShard(shard, cycle_);
        }
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
ShardedParallelEngine::drainMailboxes(unsigned parity, std::size_t slot)
{
    // Order-free: each channel is enrolled in one sender's outbox only
    // (channels are single-sender).
    for (auto &sender : shard_state_) {
        std::vector<ChannelBase *> &mailbox = sender->outbox[parity][slot];
        for (ChannelBase *ch : mailbox)
            ch->drainStaged(parity);
        mailbox.clear();
    }
}

void
ShardedParallelEngine::runShard(std::size_t shard, Cycle now)
{
    ShardState &st = *shard_state_[shard];
    const auto parity = static_cast<unsigned>(now & 1);
    drainMailboxes(parity ^ 1, shard);
    ChannelBase::setStaging(&st.outbox[parity], static_cast<int>(shard),
                            parity);
    telemetry::setTraceLog(&st.trace_log);
    const std::vector<ShardItem> &items = plan_.shards[shard];
    std::uint64_t ticked = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!st.active[i])
            continue;
        const ShardItem &item = items[i];
        st.trace_log.beginComponent(item.ordinal);
        tickByKind(item, now);
        ++ticked;
        if (elide_ && quiescentByKind(item, now))
            st.active[i] = 0;
    }
    st.ticked += ticked;
    ChannelBase::setStaging(nullptr);
    telemetry::setTraceLog(nullptr);
}

void
ShardedParallelEngine::runSerial(Cycle now)
{
    const std::vector<ShardItem> &items = plan_.serial;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!serial_active_[i])
            continue;
        const ShardItem &item = items[i];
        tickByKind(item, now);
        ++ticked_;
        if (elide_ && quiescentByKind(item, now))
            serial_active_[i] = 0;
    }
}

void
ShardedParallelEngine::runCycle()
{
    // With a profiler installed, chained wall-clock stamps tile the
    // cycle into phases. The clock reads are observer-only: the
    // tick/commit/serial sequence, and therefore every simulation
    // result, is the same with or without them.
    using telemetry::EnginePhase;
    telemetry::CycleProfiler *prof = profiler_;
    double t = prof ? prof->nowSeconds() : 0.0;
    const auto stamp = [&](EnginePhase phase) {
        const double t_next = prof->nowSeconds();
        prof->addPhase(phase, t, t_next);
        t = t_next;
    };

    const Cycle now = sim_.now();
    cycle_ = now;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);

    if (!plan_.shards.empty())
        runShard(0, now);
    if (prof) {
        const double t0 = t;
        stamp(EnginePhase::Compute);
        prof->addShardPhase(0, EnginePhase::Compute, t0, t);
    }

    const std::size_t nworkers = workers_.size();
    spinWait(spin_iters_, [&] {
        return done_.load(std::memory_order_acquire) == nworkers;
    });
    if (prof) {
        stamp(EnginePhase::Barrier);
        prof->countCriticalShard();
    }

    // Commit phase: what is left is the trace merge, and the serial
    // list's mailboxes (its receivers tick this cycle, on this thread).
    if (telemetry::tracer() != nullptr)
        telemetry::TraceLog::applyInOrder(trace_logs_.data(),
                                          trace_logs_.size());
    drainMailboxes(static_cast<unsigned>(now & 1), plan_.numShards());
    if (prof)
        stamp(EnginePhase::Commit);

    runSerial(now);
    if (prof)
        stamp(EnginePhase::Serial);

    slots_ += plan_.parallelCount() + plan_.serial.size();
    sim_.completeCycle();
    if (prof) {
        stamp(EnginePhase::CycleEnd);
        prof->addCycles(1);
    }
}

void
ShardedParallelEngine::run(Cycle cycles)
{
    panic_if(sim_.registryVersion() != registry_version_,
             "components were registered after the shard plan was built");
    for (Cycle i = 0; i < cycles; ++i)
        runCycle();
    // Leave nothing staged between runs: the last cycle's cross-shard
    // values land in their queues now instead of at the next cycle's
    // start, which no receiver can tell apart.
    for (std::size_t slot = 0; slot < plan_.numShards(); ++slot) {
        for (unsigned parity : {0u, 1u})
            drainMailboxes(parity, slot);
    }
}

} // namespace stacknoc::engine
