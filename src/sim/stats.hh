/**
 * @file
 * A small statistics package: scalar counters, averages, arbitrary-edge
 * distributions, and log2-bucketed percentile histograms, organised into
 * named groups.
 */

#ifndef STACKNOC_SIM_STATS_HH
#define STACKNOC_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stacknoc::stats {

class Counter;
class Average;
class Distribution;
class Histogram;

/**
 * A deferred statistics-mutation log, the mechanism that keeps shared
 * stat objects (one Counter referenced by all 64 routers, one Average
 * sampled by every NI, ...) data-race free under the sharded parallel
 * execution engine.
 *
 * Each worker thread installs one TickLog via setTickLog(); while
 * installed, every Counter::inc / Average::sample / Histogram::sample /
 * Distribution::sample appends an entry instead of mutating the stat.
 * After the phase barrier the engine replays each shard's log on one
 * thread. Every mutation is an integer add, min or max, so the replay
 * order cannot change any result: the log needs no ordering and the
 * shards' logs need no merge.
 *
 * With no log installed (the default) every stat mutates immediately.
 */
class TickLog
{
  public:
    void
    counterInc(Counter *c, std::uint64_t n)
    {
        entries_.push_back({Op::CounterInc, c, n, 0});
    }

    void
    averageSample(Average *a, std::uint64_t v)
    {
        entries_.push_back({Op::AvgSample, a, v, 0});
    }

    void
    distributionSample(Distribution *d, std::uint64_t v, std::uint64_t w)
    {
        entries_.push_back({Op::DistSample, d, v, w});
    }

    void
    histogramSample(Histogram *h, std::uint64_t v, std::uint64_t w)
    {
        entries_.push_back({Op::HistSample, h, v, w});
    }

    /**
     * Apply every entry front to back, then clear the log. Must run
     * with no TickLog installed on the calling thread (entries are
     * replayed through the ordinary stat mutators).
     */
    void replay();

  private:
    enum class Op : std::uint8_t {
        CounterInc,
        AvgSample,
        DistSample,
        HistSample,
    };

    struct Entry
    {
        Op op;
        void *target;
        std::uint64_t a; //!< count / value
        std::uint64_t b; //!< weight
    };

    std::vector<Entry> entries_;
};

namespace detail {
inline thread_local TickLog *t_tick_log = nullptr;
} // namespace detail

/** Install @p log as this thread's deferral target (null = immediate). */
inline void
setTickLog(TickLog *log)
{
    detail::t_tick_log = log;
}

/** @return this thread's installed deferral log, or null. */
inline TickLog *
tickLog()
{
    return detail::t_tick_log;
}

/** A monotonically growing scalar statistic. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        if (TickLog *log = tickLog()) {
            log->counterInc(this, n);
            return;
        }
        value_ += n;
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * An accumulating mean (sum / count) of integer samples. The sum is an
 * integer, so samples commute; mean() converts it to double, which is
 * exact below 2^53.
 */
class Average
{
  public:
    void
    sample(std::uint64_t v)
    {
        if (TickLog *log = tickLog()) {
            log->averageSample(this, v);
            return;
        }
        sum_ += v;
        ++count_;
    }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
    }

  private:
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A distribution over user-supplied bin edges.
 *
 * Edges {e0, e1, ..., en} define bins [0,e0), [e0,e1), ..., [en,inf).
 * Figure 3 of the paper uses edges {16, 33, 66, 99, 132, 165}.
 */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::vector<std::uint64_t> edges);

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }

    /** @return fraction of samples in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

    /** Human-readable label of bin @p i, e.g. "[16,33)" or "165+". */
    std::string binLabel(std::size_t i) const;

    const std::vector<std::uint64_t> &edges() const { return edges_; }

    void reset();

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * A log2-bucketed histogram: constant-size, O(1) sampling, approximate
 * percentiles. Bucket 0 holds the value 0; bucket i >= 1 holds values in
 * [2^(i-1), 2^i - 1]. Exact minimum, maximum and sum are tracked on the
 * side, so mean() is exact and percentile() is clamped to observed
 * bounds.
 */
class Histogram
{
  public:
    /** Buckets 0..64: value 0 plus one bucket per bit width. */
    static constexpr std::size_t kNumBuckets = 65;

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const;
    std::uint64_t minValue() const { return count_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    /**
     * Rank-based percentile for @p p in [0, 1], linearly interpolated
     * inside the containing log2 bucket and clamped to the observed
     * [min, max]. Exact when the bucket holds a single value (0, 1) or
     * when p selects the extremes.
     */
    double percentile(double p) const;

    /** @return the bucket a value falls into. */
    static std::size_t bucketOf(std::uint64_t v);

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t bucketLo(std::size_t i);

    /** Inclusive upper bound of bucket @p i. */
    static std::uint64_t bucketHi(std::size_t i);

    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_.at(i);
    }

    void reset();

  private:
    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics. Groups own their stats; components
 * hold references obtained at construction time.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Counter &counter(const std::string &stat_name);
    Average &average(const std::string &stat_name);
    Distribution &distribution(const std::string &stat_name,
                               std::vector<std::uint64_t> edges);
    Histogram &histogram(const std::string &stat_name);

    /** Lookup without creating; returns nullptr when absent. */
    const Counter *findCounter(const std::string &stat_name) const;
    const Average *findAverage(const std::string &stat_name) const;
    const Distribution *findDistribution(const std::string &stat_name) const;
    const Histogram *findHistogram(const std::string &stat_name) const;

    const std::string &name() const { return name_; }

    /** Pretty-print every stat in the group. */
    void dump(std::ostream &os) const;

    /** Reset every stat in the group to zero. */
    void reset();

    // Read-only iteration, used by the telemetry exporters.
    const std::map<std::string, Counter> &allCounters() const
    {
        return counters_;
    }
    const std::map<std::string, Average> &allAverages() const
    {
        return averages_;
    }
    const std::map<std::string, Distribution> &allDistributions() const
    {
        return distributions_;
    }
    const std::map<std::string, Histogram> &allHistograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace stacknoc::stats

#endif // STACKNOC_SIM_STATS_HH
