#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <iomanip>

#include "common/logging.hh"

namespace stacknoc::stats {

void
TickLog::replay()
{
    panic_if(tickLog() != nullptr,
             "TickLog::replay would re-defer into an installed log");
    for (const Entry &e : entries_) {
        switch (e.op) {
          case Op::CounterInc:
            static_cast<Counter *>(e.target)->inc(e.a);
            break;
          case Op::AvgSample:
            static_cast<Average *>(e.target)->sample(e.a);
            break;
          case Op::DistSample:
            static_cast<Distribution *>(e.target)->sample(e.a, e.b);
            break;
          case Op::HistSample:
            static_cast<Histogram *>(e.target)->sample(e.a, e.b);
            break;
        }
    }
    entries_.clear();
}

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
    if (TickLog *log = tickLog()) {
        log->distributionSample(this, v, weight);
        return;
    }
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
    return total_ ? static_cast<double>(counts_.at(i)) / total_ : 0.0;
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
Distribution::reset()
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
    if (TickLog *log = tickLog()) {
        log->histogramSample(this, v, weight);
        return;
    }
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
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // 1-based rank of the selected sample.
    const double exact_rank = p * static_cast<double>(count_);
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(exact_rank + 0.5));

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        if (cum + counts_[i] < rank) {
            cum += counts_[i];
            continue;
        }
        const double lo = static_cast<double>(bucketLo(i));
        const double hi = static_cast<double>(bucketHi(i));
        // Midpoint convention: the k-th of n samples in a bucket sits at
        // fraction (k - 0.5) / n of the bucket's width.
        const double frac =
            (static_cast<double>(rank - cum) - 0.5) /
            static_cast<double>(counts_[i]);
        const double v = lo + frac * (hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
    }
    return static_cast<double>(max_);
}

void
Histogram::reset()
{
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ULL;
    max_ = 0;
}

Counter &
Group::counter(const std::string &stat_name)
{
    return counters_[stat_name];
}

Average &
Group::average(const std::string &stat_name)
{
    return averages_[stat_name];
}

Distribution &
Group::distribution(const std::string &stat_name,
                    std::vector<std::uint64_t> edges)
{
    auto it = distributions_.find(stat_name);
    if (it == distributions_.end()) {
        it = distributions_.emplace(stat_name, Distribution(std::move(edges)))
                 .first;
    }
    return it->second;
}

Histogram &
Group::histogram(const std::string &stat_name)
{
    return histograms_[stat_name];
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
