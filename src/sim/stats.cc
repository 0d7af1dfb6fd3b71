#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <iomanip>

#include "common/logging.hh"

namespace stacknoc::stats {

Distribution::Distribution(std::vector<std::uint64_t> edges)
    : edges_(std::move(edges)), counts_(edges_.size() + 1, 0)
{
    for (std::size_t i = 1; i < edges_.size(); ++i)
        panic_if(edges_[i] <= edges_[i - 1],
                 "Distribution edges must be strictly increasing");
}

void
Distribution::sample(std::uint64_t v, std::uint64_t weight)
{
    std::size_t bin = edges_.size();
    for (std::size_t i = 0; i < edges_.size(); ++i) {
        if (v < edges_[i]) {
            bin = i;
            break;
        }
    }
    counts_[bin] += weight;
    total_ += weight;
}

double
Distribution::binFraction(std::size_t i) const
{
    return total() ? static_cast<double>(binCount(i)) / total() : 0.0;
}

std::string
Distribution::binLabel(std::size_t i) const
{
    if (i == edges_.size())
        return std::to_string(edges_.empty() ? 0 : edges_.back()) + "+";
    const std::uint64_t lo = i == 0 ? 0 : edges_[i - 1];
    return "[" + std::to_string(lo) + "," + std::to_string(edges_[i]) + ")";
}

void
Distribution::zero()
{
    for (auto &c : counts_)
        c = 0;
    total_ = 0;
}

std::size_t
Histogram::bucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t
Histogram::bucketLo(std::size_t i)
{
    return i == 0 ? 0 : 1ULL << (i - 1);
}

std::uint64_t
Histogram::bucketHi(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~0ULL;
    return (1ULL << i) - 1;
}

void
Histogram::sample(std::uint64_t v, std::uint64_t weight)
{
    if (weight == 0)
        return;
    counts_[bucketOf(v)] += weight;
    count_ += weight;
    sum_ += v * weight;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

double
Histogram::mean() const
{
    return count() ? static_cast<double>(sum()) / count() : 0.0;
}

std::uint64_t
Histogram::minValue() const
{
    // An empty writer's min_ is ~0, so it never wins the min.
    std::uint64_t lo = ~0ULL;
    forEach([&](const Histogram &w) { lo = std::min(lo, w.min_); });
    return count() ? lo : 0;
}

std::uint64_t
Histogram::maxValue() const
{
    std::uint64_t hi = 0;
    forEach([&](const Histogram &w) { hi = std::max(hi, w.max_); });
    return hi;
}

double
Histogram::percentile(double p) const
{
    std::array<std::uint64_t, kNumBuckets> counts{};
    std::uint64_t count = 0;
    forEach([&](const Histogram &w) {
        for (std::size_t i = 0; i < kNumBuckets; ++i)
            counts[i] += w.counts_[i];
        count += w.count_;
    });
    if (count == 0)
        return 0.0;
    const double min = static_cast<double>(minValue());
    const double max = static_cast<double>(maxValue());
    p = std::clamp(p, 0.0, 1.0);
    // 1-based rank of the selected sample.
    const double exact_rank = p * static_cast<double>(count);
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(exact_rank + 0.5));

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (counts[i] == 0)
            continue;
        if (cum + counts[i] < rank) {
            cum += counts[i];
            continue;
        }
        const double lo = static_cast<double>(bucketLo(i));
        const double hi = static_cast<double>(bucketHi(i));
        // Midpoint convention: the k-th of n samples in a bucket sits at
        // fraction (k - 0.5) / n of the bucket's width.
        const double frac =
            (static_cast<double>(rank - cum) - 0.5) /
            static_cast<double>(counts[i]);
        return std::clamp(lo + frac * (hi - lo), min, max);
    }
    return max;
}

void
Histogram::zero()
{
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ULL;
    max_ = 0;
}

namespace {

/**
 * Register a writer of @p name: the name's first writer lives in
 * @p heads, every later one in @p more, linked to the first one.
 */
template <class T, class... Args>
T &
addWriter(std::map<std::string, T> &heads, std::deque<T> &more,
          const std::string &name, const Args &...args)
{
    auto [it, first] = heads.try_emplace(name, args...);
    if (first)
        return it->second;
    T &w = more.emplace_back(args...);
    it->second.link(w);
    return w;
}

} // namespace

Counter &
Group::counter(const std::string &stat_name)
{
    return addWriter(counters_, moreCounters_, stat_name);
}

Average &
Group::average(const std::string &stat_name)
{
    return addWriter(averages_, moreAverages_, stat_name);
}

Distribution &
Group::distribution(const std::string &stat_name,
                    std::vector<std::uint64_t> edges)
{
    Distribution &d =
        addWriter(distributions_, moreDistributions_, stat_name, edges);
    panic_if(distributions_.at(stat_name).edges() != edges,
             "writers of distribution '%s' disagree on bin edges",
             stat_name.c_str());
    return d;
}

Histogram &
Group::histogram(const std::string &stat_name)
{
    return addWriter(histograms_, moreHistograms_, stat_name);
}

const Counter *
Group::findCounter(const std::string &stat_name) const
{
    auto it = counters_.find(stat_name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Average *
Group::findAverage(const std::string &stat_name) const
{
    auto it = averages_.find(stat_name);
    return it == averages_.end() ? nullptr : &it->second;
}

const Distribution *
Group::findDistribution(const std::string &stat_name) const
{
    auto it = distributions_.find(stat_name);
    return it == distributions_.end() ? nullptr : &it->second;
}

const Histogram *
Group::findHistogram(const std::string &stat_name) const
{
    auto it = histograms_.find(stat_name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
Group::dump(std::ostream &os) const
{
    for (const auto &[n, c] : counters_)
        os << name_ << "." << n << " " << c.value() << "\n";
    for (const auto &[n, a] : averages_) {
        os << name_ << "." << n << " mean=" << a.mean()
           << " count=" << a.count() << "\n";
    }
    for (const auto &[n, d] : distributions_) {
        os << name_ << "." << n << " total=" << d.total();
        for (std::size_t i = 0; i < d.numBins(); ++i) {
            os << " " << d.binLabel(i) << "="
               << std::setprecision(4) << d.binFraction(i) * 100.0 << "%";
        }
        os << "\n";
    }
    for (const auto &[n, h] : histograms_) {
        os << name_ << "." << n << " count=" << h.count()
           << " mean=" << std::setprecision(6) << h.mean()
           << " p50=" << h.percentile(0.50)
           << " p95=" << h.percentile(0.95)
           << " p99=" << h.percentile(0.99)
           << " max=" << h.maxValue() << "\n";
    }
}

void
Group::reset()
{
    for (auto &[n, c] : counters_)
        c.reset();
    for (auto &[n, a] : averages_)
        a.reset();
    for (auto &[n, d] : distributions_)
        d.reset();
    for (auto &[n, h] : histograms_)
        h.reset();
}

} // namespace stacknoc::stats
