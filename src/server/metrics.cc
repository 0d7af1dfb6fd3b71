#include "server/metrics.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace stacknoc::server {

namespace {

/** Compact number rendering: integers without a decimal point. */
std::string
renderNumber(double v)
{
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRId64,
                      static_cast<std::int64_t>(v));
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** `name` or `name{labels}` or `name{labels,extra}`. */
std::string
seriesName(const std::string &name, const std::string &labels,
           const std::string &extra = "")
{
    std::string body = labels;
    if (!extra.empty())
        body += body.empty() ? extra : ("," + extra);
    if (body.empty())
        return name;
    return name + "{" + body + "}";
}

void
renderHistogram(std::ostream &os, const std::string &name,
                const std::string &labels, const stats::Histogram &h)
{
    // Cumulative counts on the log2 bucket upper bounds. Empty
    // histograms still expose {le="+Inf"} 0 / _sum 0 / _count 0, which
    // scrapers require for a well-formed histogram family.
    std::size_t top = 0;
    for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i)
        if (h.bucketCount(i) > 0)
            top = i;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= top; ++i) {
        cum += h.bucketCount(i);
        if (h.bucketCount(i) == 0 && i != top)
            continue; // only emit informative bounds
        char le[32];
        std::snprintf(le, sizeof le, "le=\"%llu\"",
                      static_cast<unsigned long long>(
                          stats::Histogram::bucketHi(i)));
        os << seriesName(name + "_bucket", labels, le) << " " << cum
           << "\n";
    }
    os << seriesName(name + "_bucket", labels, "le=\"+Inf\"") << " "
       << h.count() << "\n";
    os << seriesName(name + "_sum", labels) << " " << h.sum() << "\n";
    os << seriesName(name + "_count", labels) << " " << h.count()
       << "\n";
}

} // namespace

MetricsRegistry::Family &
MetricsRegistry::family(const std::string &name, const std::string &help,
                        Kind kind)
{
    auto [it, inserted] = families_.try_emplace(name);
    if (inserted) {
        it->second.help = help;
        it->second.kind = kind;
    }
    return it->second;
}

stats::Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         const std::string &labels)
{
    return family(name, help, Kind::Counter).counters[labels];
}

MetricsRegistry::Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const std::string &labels)
{
    return family(name, help, Kind::Gauge).gauges[labels];
}

stats::Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           const std::string &labels)
{
    return family(name, help, Kind::Histogram).histograms[labels];
}

void
MetricsRegistry::renderPrometheus(std::ostream &os) const
{
    for (const auto &[name, fam] : families_) {
        os << "# HELP " << name << " " << fam.help << "\n";
        os << "# TYPE " << name << " ";
        switch (fam.kind) {
        case Kind::Counter:
            os << "counter\n";
            for (const auto &[labels, c] : fam.counters)
                os << seriesName(name, labels) << " " << c.value()
                   << "\n";
            break;
        case Kind::Gauge:
            os << "gauge\n";
            for (const auto &[labels, g] : fam.gauges)
                os << seriesName(name, labels) << " "
                   << renderNumber(g.value()) << "\n";
            break;
        case Kind::Histogram:
            os << "histogram\n";
            for (const auto &[labels, h] : fam.histograms)
                renderHistogram(os, name, labels, h);
            break;
        }
    }
}

} // namespace stacknoc::server
