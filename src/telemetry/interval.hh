/**
 * @file
 * Interval time-series: every N cycles, snapshot the scalar content of
 * the registered statistics groups so throughput and latency trends
 * over a run become visible instead of one flat end-of-run mean.
 *
 * Snapshots record cumulative values; consumers difference adjacent
 * snapshots for per-interval rates. Snapshots taken before the
 * measured window (statistics are zeroed at the end of warm-up) are
 * flagged so the two regimes stay separable.
 */

#ifndef STACKNOC_TELEMETRY_INTERVAL_HH
#define STACKNOC_TELEMETRY_INTERVAL_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "telemetry/probe.hh"

namespace stacknoc::telemetry {

/** One point of the time series. */
struct IntervalSnapshot
{
    std::uint64_t index = 0; //!< snapshot ordinal (0-based)
    Cycle cycle = 0;         //!< last cycle covered by this snapshot
    bool warmup = false;     //!< taken before the measured window

    /**
     * Flattened "group.stat" -> cumulative value. Counters contribute
     * their value; averages contribute ".sum" and ".count" entries;
     * histograms contribute ".count" and ".sum" entries.
     */
    std::vector<std::pair<std::string, double>> values;
};

/** Periodic snapshotter of statistics groups. */
class IntervalSampler : public Probe
{
  public:
    /** Retention cap on snapshots; later intervals are only counted. */
    static constexpr std::size_t kMaxSnapshots = std::size_t{1} << 16;

    /**
     * @param period cycles per snapshot (must be > 0).
     * @param max_snapshots bound on retained snapshots.
     */
    explicit IntervalSampler(Cycle period,
                             std::size_t max_snapshots = kMaxSnapshots);

    /** Register a group to snapshot (not owned; must outlive this). */
    void addGroup(const stats::Group *group);

    void onCycle(Cycle now) override;
    void onReset(Cycle now) override;

    Cycle period() const { return period_; }

    /** Cycle the measured window began, or 0 before any reset. */
    Cycle measureStart() const { return measureStart_; }

    const std::vector<IntervalSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /** Snapshots suppressed by the max_snapshots bound. */
    std::uint64_t droppedSnapshots() const { return dropped_; }

  private:
    void takeSnapshot(Cycle now);

    Cycle period_;
    std::size_t maxSnapshots_;
    Cycle origin_ = 0; //!< interval phase anchor
    Cycle measureStart_ = 0;
    bool measured_ = false; //!< onReset() has happened
    std::uint64_t nextIndex_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<const stats::Group *> groups_;
    std::vector<IntervalSnapshot> snapshots_;
};

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_INTERVAL_HH
