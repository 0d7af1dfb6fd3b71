#include "telemetry/profile.hh"

#include <iomanip>
#include <ostream>

#include "common/logging.hh"

namespace stacknoc::telemetry {

const char *
enginePhaseName(EnginePhase ph)
{
    switch (ph) {
      case EnginePhase::Compute: return "compute";
      case EnginePhase::Barrier: return "barrier";
      case EnginePhase::Commit: return "commit";
      case EnginePhase::Serial: return "serial";
      case EnginePhase::CycleEnd: return "cycle_end";
    }
    return "unknown";
}

CycleProfiler::CycleProfiler(std::size_t span_capacity)
    : epoch_(Clock::now()), spanCapacity_(span_capacity)
{
}

void
CycleProfiler::SpanLog::push(std::size_t capacity, EnginePhase ph,
                             double t0, double t1)
{
    ++recorded;
    if (spans.size() >= capacity) {
        ++dropped;
        return;
    }
    spans.push_back({ph, t0, t1});
}

void
CycleProfiler::setShardCount(std::size_t n)
{
    if (shards_.size() == n)
        return;
    panic_if(!shards_.empty(),
             "profiler shard count changed after first use");
    shards_.reserve(n);
    for (std::size_t s = 0; s < n; ++s)
        shards_.push_back(std::make_unique<ShardSlot>());
}

void
CycleProfiler::setKinds(std::vector<std::string> names)
{
    kindNames_ = std::move(names);
    kindSeconds_.assign(kindNames_.size(), 0.0);
}

std::size_t
CycleProfiler::cycleEndSection(const std::string &name)
{
    for (std::size_t i = 0; i < sectionNames_.size(); ++i) {
        if (sectionNames_[i] == name)
            return i;
    }
    sectionNames_.push_back(name);
    sectionSeconds_.push_back(0.0);
    return sectionNames_.size() - 1;
}

void
CycleProfiler::addPhase(EnginePhase ph, double t0, double t1)
{
    phaseSeconds_[static_cast<std::size_t>(ph)] += t1 - t0;
    if (spanCapacity_ > 0)
        mainLog_.push(spanCapacity_, ph, t0, t1);
}

void
CycleProfiler::addShardPhase(std::size_t shard, EnginePhase ph,
                             double t0, double t1)
{
    ShardSlot &slot = *shards_[shard];
    slot.seconds[static_cast<std::size_t>(ph)] += t1 - t0;
    if (ph == EnginePhase::Compute)
        slot.computeEnd = t1;
    if (spanCapacity_ > 0)
        slot.log.push(spanCapacity_, ph, t0, t1);
}

void
CycleProfiler::countCriticalShard()
{
    if (shards_.empty())
        return;
    ShardSlot *last = shards_.front().get();
    for (const auto &slot : shards_) {
        if (slot->computeEnd > last->computeEnd)
            last = slot.get();
    }
    ++last->criticalCycles;
}

double
CycleProfiler::phaseSeconds(EnginePhase ph) const
{
    return phaseSeconds_[static_cast<std::size_t>(ph)];
}

double
CycleProfiler::totalPhaseSeconds() const
{
    double total = 0.0;
    for (const double s : phaseSeconds_)
        total += s;
    return total;
}

double
CycleProfiler::shardSeconds(std::size_t shard, EnginePhase ph) const
{
    return shards_.at(shard)->seconds[static_cast<std::size_t>(ph)];
}

double
CycleProfiler::criticalShardShare(std::size_t shard) const
{
    std::uint64_t counted = 0;
    for (const auto &slot : shards_)
        counted += slot->criticalCycles;
    if (counted == 0)
        return 0.0;
    return static_cast<double>(shards_.at(shard)->criticalCycles) /
           static_cast<double>(counted);
}

std::uint64_t
CycleProfiler::spansRecorded() const
{
    std::uint64_t total = mainLog_.recorded;
    for (const auto &slot : shards_)
        total += slot->log.recorded;
    return total;
}

std::uint64_t
CycleProfiler::spansDropped() const
{
    std::uint64_t total = mainLog_.dropped;
    for (const auto &slot : shards_)
        total += slot->log.dropped;
    return total;
}

void
CycleProfiler::forEachSpan(
    const std::function<void(std::uint32_t, const PhaseSpan &)> &fn) const
{
    for (const PhaseSpan &span : mainLog_.spans)
        fn(0, span);
    for (std::size_t s = 0; s < shards_.size(); ++s)
        for (const PhaseSpan &span : shards_[s]->log.spans)
            fn(static_cast<std::uint32_t>(s + 1), span);
}

void
CycleProfiler::writeTable(std::ostream &os, double wall_seconds) const
{
    const auto share = [&](double s) {
        return wall_seconds > 0.0 ? 100.0 * s / wall_seconds : 0.0;
    };

    os << "profile: " << cycles_ << " cycles, wall " << std::fixed
       << std::setprecision(3) << wall_seconds << " s, phase sum "
       << totalPhaseSeconds() << " s\n";
    os << "  phase        seconds   share\n";
    for (std::size_t p = 0; p < kNumEnginePhases; ++p) {
        const auto ph = static_cast<EnginePhase>(p);
        os << "  " << std::left << std::setw(11) << enginePhaseName(ph)
           << std::right << std::setw(9) << std::setprecision(3)
           << phaseSeconds(ph) << std::setw(7) << std::setprecision(1)
           << share(phaseSeconds(ph)) << "%\n";
    }
    if (shards_.size() > 1) {
        os << "  shard        compute   share  critical\n";
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const double sec = shardSeconds(s, EnginePhase::Compute);
            os << "  shard" << std::left << std::setw(6) << s
               << std::right << std::setw(9) << std::setprecision(3)
               << sec << std::setw(7) << std::setprecision(1)
               << share(sec) << "%" << std::setw(9)
               << std::setprecision(1) << 100.0 * criticalShardShare(s)
               << "%\n";
        }
    }
    if (!kindNames_.empty()) {
        os << "  kind         seconds   share\n";
        for (std::size_t k = 0; k < kindNames_.size(); ++k) {
            if (kindSeconds_[k] <= 0.0)
                continue;
            os << "  " << std::left << std::setw(11) << kindNames_[k]
               << std::right << std::setw(9) << std::setprecision(3)
               << kindSeconds_[k] << std::setw(7)
               << std::setprecision(1) << share(kindSeconds_[k])
               << "%\n";
        }
    }
    if (!sectionNames_.empty()) {
        os << "  cycle_end section              seconds   share\n";
        for (std::size_t i = 0; i < sectionNames_.size(); ++i) {
            os << "  " << std::left << std::setw(28) << sectionNames_[i]
               << std::right << std::setw(9) << std::setprecision(3)
               << sectionSeconds_[i] << std::setw(7)
               << std::setprecision(1) << share(sectionSeconds_[i])
               << "%\n";
        }
    }
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
}

} // namespace stacknoc::telemetry
