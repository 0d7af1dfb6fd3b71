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
#include <deque>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace stacknoc::stats {

namespace detail {

/**
 * The writers of one stat name. Every registration (Group::counter(),
 * ...) returns a fresh writer, so a component only mutates its own
 * writers and no two shards write the same one. Reads fold all writers
 * (the first one lists the rest) from whichever writer they start at;
 * each fold is an integer sum, min or max, so order cannot change it.
 * Writers are cache-line aligned, so no two share a line.
 */
template <class T>
class alignas(64) Writers
{
  public:
    Writers() = default;
    Writers(const Writers &) = delete;
    Writers &operator=(const Writers &) = delete;

    /** Add @p w, a fresh writer, to this stat. Call on its first writer. */
    void
    link(T &w)
    {
        w.Writers::first_ = this;
        more_.push_back(&w);
    }

    /** Zero every writer of this stat. */
    void
    reset()
    {
        static_cast<T *>(first_)->zero();
        for (Writers *w : first_->more_)
            static_cast<T *>(w)->zero();
    }

  protected:
    /** Call @p f on every writer of this stat. */
    template <class F>
    void
    forEach(F &&f) const
    {
        const Writers *first = first_;
        f(static_cast<const T &>(*first));
        for (const Writers *w : first->more_)
            f(static_cast<const T &>(*w));
    }

    /** @return the sum of @p field over every writer. */
    template <class F>
    std::uint64_t
    sumOf(F &&field) const
    {
        std::uint64_t sum = 0;
        forEach([&](const T &w) { sum += std::invoke(field, w); });
        return sum;
    }

  private:
    Writers *first_ = this;
    std::vector<Writers *> more_; //!< later writers (first writer only)
};

} // namespace detail

/** A monotonically growing scalar statistic. */
class Counter : public detail::Writers<Counter>
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return sumOf(&Counter::value_); }

  private:
    friend class detail::Writers<Counter>;
    void zero() { value_ = 0; }

    std::uint64_t value_ = 0;
};

/**
 * An accumulating mean (sum / count) of integer samples. The sum is an
 * integer, so samples commute; mean() converts it to double, which is
 * exact below 2^53.
 */
class Average : public detail::Writers<Average>
{
  public:
    void
    sample(std::uint64_t v)
    {
        sum_ += v;
        ++count_;
    }

    double
    mean() const
    {
        return count() ? static_cast<double>(sum()) / count() : 0.0;
    }
    std::uint64_t sum() const { return sumOf(&Average::sum_); }
    std::uint64_t count() const { return sumOf(&Average::count_); }

  private:
    friend class detail::Writers<Average>;
    void zero() { sum_ = count_ = 0; }

    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A distribution over user-supplied bin edges.
 *
 * Edges {e0, e1, ..., en} define bins [0,e0), [e0,e1), ..., [en,inf).
 * Figure 3 of the paper uses edges {16, 33, 66, 99, 132, 165}.
 */
class Distribution : public detail::Writers<Distribution>
{
  public:
    Distribution() = default;
    explicit Distribution(std::vector<std::uint64_t> edges);

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t
    binCount(std::size_t i) const
    {
        return sumOf([i](const Distribution &w) { return w.counts_.at(i); });
    }
    std::uint64_t total() const { return sumOf(&Distribution::total_); }

    /** @return fraction of samples in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

    /** Human-readable label of bin @p i, e.g. "[16,33)" or "165+". */
    std::string binLabel(std::size_t i) const;

    const std::vector<std::uint64_t> &edges() const { return edges_; }

  private:
    friend class detail::Writers<Distribution>;
    void zero();

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
class Histogram : public detail::Writers<Histogram>
{
  public:
    /** Buckets 0..64: value 0 plus one bucket per bit width. */
    static constexpr std::size_t kNumBuckets = 65;

    void sample(std::uint64_t v, std::uint64_t weight = 1);

    std::uint64_t count() const { return sumOf(&Histogram::count_); }
    std::uint64_t sum() const { return sumOf(&Histogram::sum_); }
    double mean() const;
    /** Smallest sample of every writer (empty writers ignored), or 0. */
    std::uint64_t minValue() const;
    std::uint64_t maxValue() const;

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

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return sumOf([i](const Histogram &w) { return w.counts_.at(i); });
    }

  private:
    friend class detail::Writers<Histogram>;
    void zero();

    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics. Groups own their stats; components
 * hold references obtained at construction time. Every registration
 * returns a new writer of the named stat (see detail::Writers), and
 * every read of a stat sums all of its writers.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Counter &counter(const std::string &stat_name);
    Average &average(const std::string &stat_name);
    /** Every writer of a distribution must use the same @p edges. */
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

    /** Reset every writer of every stat in the group to zero. */
    void reset();

    // Read-only iteration by name, used by the telemetry exporters.
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
    /** Each name's first writer; later writers live in the deques. */
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Histogram> histograms_;
    std::deque<Counter> moreCounters_;
    std::deque<Average> moreAverages_;
    std::deque<Distribution> moreDistributions_;
    std::deque<Histogram> moreHistograms_;
};

/** One writer of a stat per site (a node, a bank), for an object that
 *  components on every shard call into with their own site id. */
template <class T>
class PerSite
{
  public:
    PerSite(Group &g, const std::string &name, int sites)
    {
        for (int s = 0; s < sites; ++s) {
            if constexpr (std::is_same_v<T, Counter>)
                writers_.push_back(&g.counter(name));
            else if constexpr (std::is_same_v<T, Average>)
                writers_.push_back(&g.average(name));
            else
                writers_.push_back(&g.histogram(name));
        }
    }

    T &operator[](std::size_t site) { return *writers_[site]; }

  private:
    std::vector<T *> writers_;
};

} // namespace stacknoc::stats

#endif // STACKNOC_SIM_STATS_HH
