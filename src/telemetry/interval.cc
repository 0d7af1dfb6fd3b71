#include "telemetry/interval.hh"

#include "common/logging.hh"

namespace stacknoc::telemetry {

IntervalSampler::IntervalSampler(Cycle period, std::size_t max_snapshots)
    : period_(period), maxSnapshots_(max_snapshots)
{
    panic_if(period_ == 0, "interval sampler needs a non-zero period");
}

void
IntervalSampler::addGroup(const stats::Group *group)
{
    panic_if(group == nullptr, "null stats group registered");
    groups_.push_back(group);
}

void
IntervalSampler::onCycle(Cycle now)
{
    // onCycle fires after cycle `now` completed; a snapshot at the end
    // of cycle origin + k*period - 1 covers exactly `period` cycles.
    if ((now + 1 - origin_) % period_ != 0)
        return;
    takeSnapshot(now);
}

void
IntervalSampler::onReset(Cycle now)
{
    measured_ = true;
    measureStart_ = now;
    origin_ = now; // re-align intervals to the measured window
    // Everything sampled so far belongs to warm-up.
    for (auto &snap : snapshots_)
        snap.warmup = true;
}

void
IntervalSampler::takeSnapshot(Cycle now)
{
    if (snapshots_.size() >= maxSnapshots_) {
        ++dropped_;
        ++nextIndex_;
        return;
    }
    IntervalSnapshot snap;
    snap.index = nextIndex_++;
    snap.cycle = now;
    snap.warmup = !measured_;
    trace("interval: snapshot %llu at cycle %llu%s",
          static_cast<unsigned long long>(snap.index),
          static_cast<unsigned long long>(now),
          snap.warmup ? " (warmup)" : "");
    for (const stats::Group *g : groups_) {
        const std::string prefix = g->name() + ".";
        for (const auto &[n, c] : g->allCounters()) {
            snap.values.emplace_back(prefix + n,
                                     static_cast<double>(c.value()));
        }
        for (const auto &[n, a] : g->allAverages()) {
            snap.values.emplace_back(prefix + n + ".sum",
                                     static_cast<double>(a.sum()));
            snap.values.emplace_back(prefix + n + ".count",
                                     static_cast<double>(a.count()));
        }
        for (const auto &[n, h] : g->allHistograms()) {
            snap.values.emplace_back(prefix + n + ".count",
                                     static_cast<double>(h.count()));
            snap.values.emplace_back(prefix + n + ".sum",
                                     static_cast<double>(h.sum()));
        }
    }
    snapshots_.push_back(std::move(snap));
}

} // namespace stacknoc::telemetry
