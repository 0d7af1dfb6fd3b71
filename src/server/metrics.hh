/**
 * @file
 * Fleet-level metrics for the campaign server: the registry behind
 * the socket's `metrics` and `status` commands.
 *
 * A MetricsRegistry is a small, ordered catalogue of named metric
 * families — monotonic counters, settable gauges, and log2-bucketed
 * histograms (stats::Histogram, the same type the simulator's
 * stats::Group uses) — each optionally split into labelled series
 * (e.g. `worker="3"`, `phase="measure"`). It renders itself as
 * Prometheus text exposition format v0.0.4.
 *
 * Lock-free single-writer by construction: the CampaignServer's one
 * poll loop is the only thread that ever touches the registry, so the
 * mutators are plain stores — no atomics, no observable cost when
 * nobody scrapes. The simulation itself is never instrumented here;
 * workers are separate processes and the registry only counts what
 * crosses the server's file descriptors, which is what keeps fleet
 * observability observer-only with respect to simulated state.
 */

#ifndef STACKNOC_SERVER_METRICS_HH
#define STACKNOC_SERVER_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "sim/stats.hh"

namespace stacknoc::server {

class MetricsRegistry
{
  public:
    /** A settable instantaneous value (queue depth, cache bytes...). */
    class Gauge
    {
      public:
        void set(double v) { value_ = v; }
        void add(double d) { value_ += d; }
        double value() const { return value_; }

      private:
        double value_ = 0.0;
    };

    /**
     * Find or create the @p labels series of counter family @p name.
     * @p labels is the rendered label body without braces — `""` for an
     * unlabelled series, `worker="0"` / `phase="measure",...` otherwise
     * (values pre-escaped by the caller; series render in label order).
     * References remain valid for the registry's lifetime.
     */
    stats::Counter &counter(const std::string &name,
                            const std::string &help,
                            const std::string &labels = "");

    /** Find or create a gauge series (same contract as counter()). */
    Gauge &gauge(const std::string &name, const std::string &help,
                 const std::string &labels = "");

    /**
     * Find or create a log2 histogram series. Sample integer values
     * (the server records durations in microseconds); the exposition
     * emits cumulative `_bucket{le=...}` lines on the log2 bucket upper
     * bounds plus `_sum` and `_count`.
     */
    stats::Histogram &histogram(const std::string &name,
                                const std::string &help,
                                const std::string &labels = "");

    /** Prometheus text exposition format v0.0.4. */
    void renderPrometheus(std::ostream &os) const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Family
    {
        std::string help;
        Kind kind = Kind::Counter;
        // Keyed by the rendered label body ("" = unlabelled).
        std::map<std::string, stats::Counter> counters;
        std::map<std::string, Gauge> gauges;
        std::map<std::string, stats::Histogram> histograms;
    };

    Family &family(const std::string &name, const std::string &help,
                   Kind kind);

    /** Ordered by name so scrapes are stable line-for-line. */
    std::map<std::string, Family> families_;
};

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_METRICS_HH
