/**
 * @file
 * perfbench — host-speed benchmark of the simulator.
 *
 * Runs one workload in-process through the library's public API
 * (system::CmpSystem, snapshot::saveCheckpoint / restoreCheckpoint /
 * statsDigest and the stats groups) and prints the metrics listed in
 * BENCHMARK.json. A run first makes one uninterrupted single-thread
 * reference run of the seed, then repeats measured passes (set-up plus a
 * fixed window of simulated cycles) until the wall-clock budget is
 * spent. Every pass must reproduce the reference run's stats digest, so
 * the simulated statistics double as output checks; they are not
 * accuracy figures (the model is unvalidated against hardware).
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates plain
 * passes with passes that enable the engine's CycleProfiler, prints the
 * per-layer metrics and writes the benchmark's own spans as Chrome
 * trace-event JSON. The last line of stdout is always one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--tiny] [--out-dir DIR] [--commit SHA]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "noc/packet.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/state_io.hh"
#include "system/cmp_system.hh"
#include "telemetry/json.hh"
#include "telemetry/profile.hh"

using namespace stacknoc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using telemetry::EnginePhase;

// --- Workloads ---------------------------------------------------------

/**
 * One workload: MRAM-4TSB-WB on the 8x8 mesh, a closed batch run of a
 * fixed number of simulated cycles per pass. Why each exists is recorded
 * in BENCHMARK.json and README.md.
 */
struct Workload
{
    const char *name;
    std::vector<std::string> apps; //!< round-robin across the 64 cores
    int threads;                   //!< execution-engine threads
    bool restore;                  //!< set-up restores a warm checkpoint
    bool checked;                  //!< checkers + power/thermal/heatmap
    Cycle cycles;                  //!< measured window per pass
};

const std::vector<Workload> kWorkloads = {
    {"tpcc_wb_seq", {"tpcc"}, 1, false, false, 20000},
    {"readmix_sharded4", {"gcc", "namd", "povray", "dealII"}, 4, true,
     false, 20000},
    // Validation at period 1 runs about 10x slower, hence the shorter
    // window; a pass still takes about 3 s.
    {"tpcc_checked", {"tpcc"}, 1, false, true, 4000},
};

constexpr Cycle kWarmup = 3000;
constexpr Cycle kChunk = 500;
// --tiny: the self-check's run length.
constexpr Cycle kTinyWarmup = 300;
constexpr Cycle kTinyCycles = 400;
constexpr Cycle kTinyChunk = 100;

/**
 * Reference stats digests at the full run length, for the default seed
 * (1) and one held-out seed (4242) that was not used while tuning. Any
 * change to simulated behaviour moves them.
 */
struct RecordedDigest
{
    const char *workload;
    std::uint64_t seed;
    std::uint64_t digest;
};

const RecordedDigest kRecorded[] = {
    {"tpcc_wb_seq", 1, 0xd95ee130370b227cULL},
    {"tpcc_wb_seq", 4242, 0x32a3cfddd2057ef5ULL},
    {"readmix_sharded4", 1, 0xf987e0cb844313caULL},
    {"readmix_sharded4", 4242, 0x208b41f7b694d751ULL},
    {"tpcc_checked", 1, 0xc8e6ab47c0cae449ULL},
    {"tpcc_checked", 4242, 0x25aaf2a59b57bfddULL},
};

// --- Metrics -----------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"ticks_per_s", "ticks/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"sim_instr_throughput", "instr/cycle"},
    {"sim_uncore_latency_cycles", "cycles"},
    {"sim_energy_uj", "uJ"},
};

const MetricDef kPerLayer[] = {
    {"engine.compute_s", "s"},
    {"engine.barrier_s", "s"},
    {"engine.commit_s", "s"},
    {"engine.serial_s", "s"},
    {"engine.cycle_end_s", "s"},
    {"engine.shard_imbalance", "ratio"},
    {"engine.active_fraction", "ratio"},
    {"engine.ticked_components", "count"},
    {"engine.ns_per_ticked_component", "ns"},
    {"engine.chunk_ms_p50", "ms"},
    {"engine.chunk_ms_p90", "ms"},
    {"engine.chunk_samples", "count"},
    {"engine.warmup_s", "s"},
    {"engine.trace_overhead", "ratio"},
    {"engine.phase_coverage", "ratio"},
    {"engine.profile_coverage", "ratio"},
    {"noc.router_self_s", "s"},
    {"noc.ni_self_s", "s"},
    {"noc.router_ns_per_flit", "ns"},
    {"noc.packets_injected", "count"},
    {"noc.flits_switched", "count"},
    {"noc.flits_buffered", "count"},
    {"noc.net_latency_avg_cycles", "cycles"},
    {"noc.net_latency_p95_cycles", "cycles"},
    {"noc.ni_queue_latency_avg_cycles", "cycles"},
    {"sttnoc.rca_self_s", "s"},
    {"sttnoc.holds_started", "count"},
    {"sttnoc.busy_marks", "count"},
    {"sttnoc.busy_nacks", "count"},
    {"sttnoc.hold_cap_release_ratio", "ratio"},
    {"coherence.l2bank_self_s", "s"},
    {"coherence.l1_self_s", "s"},
    {"coherence.l2bank_ns_per_request", "ns"},
    {"coherence.l1_hit_ratio", "ratio"},
    {"coherence.l1_retries", "count"},
    {"coherence.l2_misses", "count"},
    {"coherence.l2_invs_sent", "count"},
    {"coherence.l2_admission_refusals", "count"},
    {"coherence.bank_queue_latency_avg_cycles", "cycles"},
    {"mem.mc_self_s", "s"},
    {"mem.bank_reads", "count"},
    {"mem.bank_writes", "count"},
    {"mem.bank_busy_cycles", "cycles"},
    {"mem.dram_reads", "count"},
    {"mem.dram_queue_latency_avg_cycles", "cycles"},
    {"cpu.core_self_s", "s"},
    {"cpu.core_ns_per_instr", "ns"},
    {"cpu.instructions_committed", "count"},
    {"cpu.mem_ops", "count"},
    {"cpu.commit_stall_cycles", "cycles"},
    {"system.construct_s", "s"},
    {"system.metrics_s", "s"},
    {"snapshot.restore_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.save_s", "s"},
    {"snapshot.digest_s", "s"},
    {"validate.sweeps", "count"},
    {"validate.violations", "count"},
    {"telemetry.power_frames", "count"},
    {"telemetry.heatmap_frames", "count"},
};

/** Profiler component kinds -> per-layer self-time metric. */
const std::map<std::string, std::string> kKindMetric = {
    {"router", "noc.router_self_s"},  {"ni", "noc.ni_self_s"},
    {"rca", "sttnoc.rca_self_s"},     {"l2bank", "coherence.l2bank_self_s"},
    {"mc", "mem.mc_self_s"},          {"l1", "coherence.l1_self_s"},
    {"core", "cpu.core_self_s"},
};

using Values = std::map<std::string, double>;

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartiles as Python's statistics.quantiles(v, n=4) computes them. */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        const double x = v.empty() ? 0.0 : v[0];
        return {x, x, x};
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
             v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            4.0;
    }
    return q;
}

/** Linearly interpolated percentile @p p in [0, 1]; 0 if empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Output checks -----------------------------------------------------

/** Counts checks; a failed check is a failed operation. */
class Checks
{
  public:
    bool
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- Spans -------------------------------------------------------------

/**
 * The benchmark's own spans, one around each public call it makes into
 * a layer. Kept in memory; written once as Chrome trace-event JSON.
 */
class SpanLog
{
  public:
    /** Opens a span as a child of the innermost open one. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name)
            : log_(log), id_(log.open(std::move(name)))
        {}
        ~Scope() { end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span (idempotent); @return its seconds. */
        double
        end()
        {
            if (!closed_) {
                closed_ = true;
                log_.close(id_);
            }
            const Span &s = log_.spans_[id_];
            return s.t1 - s.t0;
        }

      private:
        SpanLog &log_;
        std::size_t id_;
        bool closed_ = false;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    /**
     * Write every span as a complete ("X") event whose args carry its
     * self time (duration minus the child spans it covers) and its
     * parent; @p other lands in the document's "otherData".
     */
    void
    writeChromeTrace(std::ostream &os, const Values &other) const
    {
        std::vector<double> childSeconds(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent != kNone)
                childSeconds[s.parent] += s.t1 - s.t0;

        telemetry::JsonWriter w(os);
        w.beginObject().key("traceEvents").beginArray();
        w.beginObject()
            .kv("name", "process_name")
            .kv("ph", "M")
            .kv("pid", 1)
            .kv("tid", 0)
            .key("args")
            .beginObject()
            .kv("name", "perfbench spans (host wall time)")
            .endObject()
            .endObject();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject()
                .kv("name", s.name)
                .kv("cat", "perfbench")
                .kv("ph", "X")
                .kv("ts", s.t0 * 1e6)
                .kv("dur", (s.t1 - s.t0) * 1e6)
                .kv("pid", 1)
                .kv("tid", 0)
                .key("args")
                .beginObject()
                .kv("self_us", (s.t1 - s.t0 - childSeconds[i]) * 1e6)
                .kv("parent", s.parent != kNone ? spans_[s.parent].name
                                                : std::string());
            w.endObject().endObject();
        }
        w.endArray();
        w.kv("displayTimeUnit", "ms");
        w.key("otherData").beginObject();
        for (const auto &[k, v] : other)
            w.kv(k, v);
        w.endObject().endObject();
        os << "\n";
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Span
    {
        std::string name;
        double t0 = 0.0;
        double t1 = 0.0;
        std::size_t parent = kNone;
    };

    std::size_t
    open(std::string name)
    {
        spans_.push_back({std::move(name), now(), 0.0, current_});
        current_ = spans_.size() - 1;
        return current_;
    }

    void
    close(std::size_t id)
    {
        spans_[id].t1 = now();
        current_ = spans_[id].parent;
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::size_t current_ = kNone;
};

// --- One system run ----------------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string outDir = ".bench_build/perfbench-out";
    std::string commit = "unknown";
    Cycle warmup = kWarmup;
    Cycle cycles = 0;
    Cycle chunk = kChunk;
};

system::SystemConfig
makeConfig(const Workload &w, std::uint64_t seed, int threads,
           bool observers, bool profile)
{
    system::SystemConfig cfg;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.profile = profile;
    cfg.apps = w.apps; // one entry replicates across all cores
    if (w.apps.size() > 1) {
        cfg.apps.clear();
        for (int c = 0; c < cfg.meshWidth * cfg.meshHeight; ++c)
            cfg.apps.push_back(
                w.apps[static_cast<std::size_t>(c) % w.apps.size()]);
    }
    if (observers) {
        cfg.validate = true;
        cfg.validation.period = 1;
        cfg.validation.failFast = false; // violations become failed checks
        cfg.power = true;
        cfg.thermal = true;
        cfg.heatmapPeriod = 1024;
        cfg.intervalPeriod = 1024;
    }
    return cfg;
}

/** Profiler accumulators at one instant (empty without a profiler). */
struct ProfileTotals
{
    std::array<double, telemetry::kNumEnginePhases> phase{};
    std::vector<double> shardCompute;
    std::vector<double> kind;
};

ProfileTotals
profileTotals(const telemetry::CycleProfiler *p)
{
    ProfileTotals t;
    if (p == nullptr)
        return t;
    for (std::size_t i = 0; i < telemetry::kNumEnginePhases; ++i)
        t.phase[i] = p->phaseSeconds(static_cast<EnginePhase>(i));
    for (std::size_t s = 0; s < p->numShards(); ++s)
        t.shardCompute.push_back(p->shardSeconds(s, EnginePhase::Compute));
    for (std::size_t k = 0; k < p->kindNames().size(); ++k)
        t.kind.push_back(p->kindSeconds(k));
    return t;
}

/** Element-wise @p a - @p b; entries missing from @p b count as 0 (the
 *  engine sizes shard and kind slots on its first profiled cycle). */
std::vector<double>
minus(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> d(a);
    for (std::size_t i = 0; i < d.size() && i < b.size(); ++i)
        d[i] -= b[i];
    return d;
}

double
counterOf(const stats::Group &g, const char *name)
{
    if (const stats::Counter *c = g.findCounter(name))
        return static_cast<double>(c->value());
    std::fprintf(stderr, "perfbench: warning: stat %s.%s not found\n",
                 g.name().c_str(), name);
    return 0.0;
}

double
averageOf(const stats::Group &g, const char *name)
{
    if (const stats::Average *a = g.findAverage(name))
        return a->mean();
    std::fprintf(stderr, "perfbench: warning: stat %s.%s not found\n",
                 g.name().c_str(), name);
    return 0.0;
}

/** Simulated counts of the measured window, by layer. */
void
addSimCounts(const system::CmpSystem &sys, const system::Metrics &m,
             Values &v)
{
    const stats::Group &net = sys.network().stats();
    const stats::Group &cache = sys.cacheStats();
    const stats::Group &core = sys.coreStats();
    const stats::Group &mem = sys.memStats();

    v["noc.packets_injected"] = counterOf(net, "packets_injected");
    v["noc.flits_switched"] = counterOf(net, "flits_switched");
    v["noc.flits_buffered"] = counterOf(net, "flits_buffered");
    v["noc.net_latency_avg_cycles"] = m.avgNetworkLatency;
    v["noc.net_latency_p95_cycles"] = m.p95NetworkLatency;
    v["noc.ni_queue_latency_avg_cycles"] =
        averageOf(net, "packet_ni_queue_latency");

    if (const sttnoc::BankAwarePolicy *policy = sys.policy()) {
        const stats::Group &st = policy->stats();
        const double holds = counterOf(st, "holds_started");
        v["sttnoc.holds_started"] = holds;
        v["sttnoc.busy_marks"] = counterOf(st, "busy_marks");
        v["sttnoc.busy_nacks"] = counterOf(st, "busy_nacks");
        v["sttnoc.hold_cap_release_ratio"] =
            ratio(counterOf(st, "hold_cap_releases"), holds);
    }

    const double hits = counterOf(cache, "l1_hits");
    v["coherence.l1_hit_ratio"] =
        ratio(hits, hits + counterOf(cache, "l1_misses"));
    v["coherence.l1_retries"] = counterOf(cache, "l1_retries");
    v["coherence.l2_misses"] = counterOf(cache, "l2_misses");
    v["coherence.l2_invs_sent"] = counterOf(cache, "l2_invs_sent");
    v["coherence.l2_admission_refusals"] =
        counterOf(cache, "l2_admission_refusals");
    v["coherence.bank_queue_latency_avg_cycles"] = m.avgBankQueueLatency;

    v["mem.bank_reads"] = counterOf(cache, "bank_reads");
    v["mem.bank_writes"] = counterOf(cache, "bank_writes");
    v["mem.bank_busy_cycles"] = counterOf(cache, "bank_busy_cycles");
    v["mem.dram_reads"] = counterOf(mem, "dram_reads");
    v["mem.dram_queue_latency_avg_cycles"] =
        averageOf(mem, "dram_queue_latency");

    v["cpu.instructions_committed"] =
        counterOf(core, "instructions_committed");
    v["cpu.mem_ops"] = counterOf(core, "mem_ops");
    v["cpu.commit_stall_cycles"] = counterOf(core, "commit_stall_cycles");
}

/** Profiler window deltas: phases and shards, plus kinds when the
 *  engine attributes them (sequential engine only). */
void
addProfile(const ProfileTotals &t0, const ProfileTotals &t1,
           const telemetry::CycleProfiler &prof, double window_s,
           Values &v)
{
    static const char *const kPhaseMetric[telemetry::kNumEnginePhases] = {
        "engine.compute_s", "engine.barrier_s", "engine.commit_s",
        "engine.serial_s", "engine.cycle_end_s"};
    double phase_sum = 0.0;
    for (std::size_t i = 0; i < telemetry::kNumEnginePhases; ++i) {
        const double d = t1.phase[i] - t0.phase[i];
        v[kPhaseMetric[i]] = d;
        phase_sum += d;
    }
    v["engine.phase_coverage"] = ratio(phase_sum, window_s);

    const std::vector<double> shards =
        minus(t1.shardCompute, t0.shardCompute);
    double shard_sum = 0.0, shard_max = 0.0;
    for (double s : shards) {
        shard_sum += s;
        shard_max = std::max(shard_max, s);
    }
    v["engine.shard_imbalance"] =
        shards.empty()
            ? 1.0
            : ratio(shard_max, shard_sum / static_cast<double>(shards.size()));

    const std::vector<double> kinds = minus(t1.kind, t0.kind);
    if (kinds.empty())
        return;
    double kind_sum = 0.0;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        kind_sum += kinds[k];
        const auto it = kKindMetric.find(prof.kindNames()[k]);
        if (it != kKindMetric.end())
            v[it->second] = kinds[k];
    }
    const double compute = v["engine.compute_s"];
    v["engine.profile_coverage"] =
        ratio(kind_sum + phase_sum - compute, window_s);
}

/** Per-kind cost normalised by the work the kind did. */
void
addKindRates(Values &v, const system::CmpSystem &sys)
{
    const stats::Group &cache = sys.cacheStats();
    v["noc.router_ns_per_flit"] =
        1e9 * ratio(v["noc.router_self_s"], v["noc.flits_switched"]);
    v["coherence.l2bank_ns_per_request"] =
        1e9 * ratio(v["coherence.l2bank_self_s"],
                    counterOf(cache, "bank_requests_served"));
    v["cpu.core_ns_per_instr"] =
        1e9 * ratio(v["cpu.core_self_s"], v["cpu.instructions_committed"]);
}

/** What one run of one system produced. */
struct Pass
{
    bool profiled = false;
    std::string error; //!< set-up failure; the pass then has no results
    double setupS = 0.0;
    double windowS = 0.0;
    std::vector<double> chunkS;
    std::uint64_t digest = 0;
    system::Metrics metrics;
    double energyDrift = 0.0; //!< |streaming - computeEnergy| / total
    Values layer;
};

/**
 * Window seconds assembled from each chunk's fastest run across @p ps.
 * Every pass simulates the same cycles chunk by chunk, and the host's
 * other tenants only ever add time, so the per-chunk minimum is the
 * steadiest estimate of the window's cost; a median over passes follows
 * the host's load instead.
 */
double
bestWindowS(const std::vector<const Pass *> &ps)
{
    if (ps.empty())
        return 0.0;
    std::vector<double> best = ps.front()->chunkS;
    for (const Pass *p : ps)
        for (std::size_t i = 0; i < best.size() && i < p->chunkS.size(); ++i)
            best[i] = std::min(best[i], p->chunkS[i]);
    double sum = 0.0;
    for (double s : best)
        sum += s;
    return sum;
}

/**
 * Construct @p cfg's system, set it up — restore from @p restore_path,
 * or warm up — then run the measured window in fixed chunks. A non-null
 * @p checkpoint receives the warm state right after warm-up. Every
 * public call into the library gets its own span.
 */
Pass
runSystem(const system::SystemConfig &cfg, const Options &o,
          std::uint64_t warm_key, SpanLog &spans,
          const std::string &restore_path, std::string *checkpoint)
{
    Pass p;
    p.profiled = cfg.profile;
    SpanLog::Scope pass(spans, cfg.profile ? "pass (profiled)" : "pass");
    noc::resetPacketIds();

    const double t_setup = spans.now();
    std::unique_ptr<system::CmpSystem> sys;
    {
        SpanLog::Scope s(spans, "CmpSystem");
        sys = std::make_unique<system::CmpSystem>(cfg);
        p.layer["system.construct_s"] = s.end();
    }
    if (!restore_path.empty()) {
        SpanLog::Scope s(spans, "restoreCheckpoint");
        std::ifstream in(restore_path, std::ios::binary);
        p.error = in ? snapshot::restoreCheckpoint(*sys, in, warm_key)
                     : "cannot open checkpoint " + restore_path;
        p.layer["snapshot.restore_s"] = s.end();
        if (!p.error.empty())
            return p;
    } else {
        SpanLog::Scope s(spans, "warmup");
        sys->warmup(o.warmup);
        p.layer["engine.warmup_s"] = s.end();
    }
    p.setupS = spans.now() - t_setup;

    if (checkpoint != nullptr) {
        SpanLog::Scope s(spans, "saveCheckpoint");
        std::ostringstream out(std::ios::binary);
        snapshot::saveCheckpoint(*sys, out, warm_key);
        *checkpoint = std::move(out).str();
        p.layer["snapshot.save_s"] = s.end();
        p.layer["snapshot.bytes"] = static_cast<double>(checkpoint->size());
    }

    const ProfileTotals prof0 = profileTotals(sys->profiler());
    const std::uint64_t ticked0 = sys->engineTickedComponents();
    const std::uint64_t slots0 = sys->engineTickSlots();
    const std::uint64_t sweeps0 =
        sys->validation() ? sys->validation()->sweeps() : 0;
    for (Cycle done = 0; done < o.cycles;) {
        const Cycle n = std::min(o.chunk, o.cycles - done);
        SpanLog::Scope s(spans, "run");
        sys->run(n);
        p.chunkS.push_back(s.end());
        done += n;
    }
    for (double c : p.chunkS)
        p.windowS += c;
    sys->finalizeTelemetry();

    {
        SpanLog::Scope s(spans, "statsDigest");
        p.digest = snapshot::statsDigest(*sys);
        p.layer["snapshot.digest_s"] = s.end();
    }
    {
        SpanLog::Scope s(spans, "metrics");
        p.metrics = sys->metrics();
        p.layer["system.metrics_s"] = s.end();
    }

    Values &v = p.layer;
    const auto ticked =
        static_cast<double>(sys->engineTickedComponents() - ticked0);
    v["engine.ticked_components"] = ticked;
    v["engine.active_fraction"] =
        ratio(ticked, static_cast<double>(sys->engineTickSlots() - slots0));
    v["engine.ns_per_ticked_component"] = 1e9 * ratio(p.windowS, ticked);
    addSimCounts(*sys, p.metrics, v);
    if (const telemetry::CycleProfiler *prof = sys->profiler()) {
        addProfile(prof0, profileTotals(prof), *prof, p.windowS, v);
        addKindRates(v, *sys);
    }
    if (const validate::ValidationHub *hub = sys->validation()) {
        v["validate.sweeps"] = static_cast<double>(hub->sweeps() - sweeps0);
        v["validate.violations"] =
            static_cast<double>(hub->violations().size());
    }
    if (const telemetry::EnergyProbe *power = sys->power()) {
        v["telemetry.power_frames"] = static_cast<double>(
            power->frames().size() + power->framesDropped());
        const double total = p.metrics.energy.totalUJ();
        p.energyDrift = ratio(std::abs(power->totalUJ() - total), total);
    }
    if (const system::HeatmapCollector *heat = sys->heatmap())
        v["telemetry.heatmap_frames"] = static_cast<double>(
            heat->frames().size() + heat->framesDropped());

    SpanLog::Scope s(spans, "~CmpSystem");
    sys.reset();
    return p;
}

// --- Provenance --------------------------------------------------------

struct Provenance
{
    int nproc = 0;
    unsigned hardwareThreads = 0;
    std::string buildType = PERFBENCH_BUILD_TYPE;
    std::string cxxFlags = PERFBENCH_CXX_FLAGS;
    std::string compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "gcc " __VERSION__;
#else
        "unknown";
#endif
    bool optimized =
#if defined(__OPTIMIZE__)
        true;
#else
        false;
#endif
    bool sanitizer = false;

    bool
    representative() const
    {
        return optimized && !sanitizer && buildType != "Debug";
    }
};

Provenance
provenance()
{
    Provenance p;
    p.hardwareThreads = std::thread::hardware_concurrency();
    cpu_set_t set;
    CPU_ZERO(&set);
    p.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(p.hardwareThreads);
    p.sanitizer = p.cxxFlags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    p.sanitizer = true;
#endif
    return p;
}

/** Identity of this binary, so a rebuilt simulator never restores a
 *  checkpoint an older build wrote under the same format version. */
std::string
buildId()
{
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        return "0";
    const std::uint64_t size = fs::file_size(exe, ec);
    const auto mtime = fs::last_write_time(exe, ec).time_since_epoch().count();
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (std::uint64_t x : {size, static_cast<std::uint64_t>(mtime)}) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return hex64(h).substr(2);
}

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --- Command line ------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--tiny] [--out-dir DIR] [--commit SHA]\n"
                 "workloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || end == nullptr || *end != '\0')
        usage((std::string(flag) + " expects a non-negative integer").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = need();
            for (const Workload &w : kWorkloads)
                if (name == w.name)
                    o.workload = &w;
            if (o.workload == nullptr)
                usage(("unknown workload '" + name + "'").c_str());
        } else if (arg == "--seed") {
            o.seed = parseUint(need(), "--seed");
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUint(need(), "--seconds"));
        } else if (arg == "--trace") {
            const std::string t = need();
            if (t != "0" && t != "1")
                usage("--trace expects 0 or 1");
            o.trace = t == "1";
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--out-dir") {
            o.outDir = need();
        } else if (arg == "--commit") {
            o.commit = need();
        } else {
            usage(("unknown option '" + arg + "'").c_str());
        }
    }
    if (o.workload == nullptr)
        usage("--workload is required");
    o.cycles = o.workload->cycles;
    if (o.tiny) {
        o.warmup = kTinyWarmup;
        o.cycles = kTinyCycles;
        o.chunk = kTinyChunk;
    }
    return o;
}

/** The final stdout line: one JSON object with all digits kept. */
void
printResult(const Checks &checks, const MetricDef *defs, std::size_t n,
            const Values &values)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it != values.end() ? it->second : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, std::isfinite(v) ? v : 0.0,
                    defs[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
runBenchmark(const Options &o)
{
    const Workload &w = *o.workload;
    const Provenance prov = provenance();
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                w.name, static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.tiny ? " tiny" : "");
    {
        std::ostringstream line;
        telemetry::JsonWriter j(line);
        j.beginObject()
            .kv("nproc", prov.nproc)
            .kv("hardware_threads", static_cast<int>(prov.hardwareThreads))
            .kv("build_type", prov.buildType)
            .kv("compiler", prov.compiler)
            .kv("cxx_flags", prov.cxxFlags)
            .kv("optimized", prov.optimized)
            .kv("sanitizer", prov.sanitizer)
            .kv("git_commit", o.commit)
            .kv("representative", prov.representative())
            .endObject();
        std::printf("provenance %s\n", line.str().c_str());
    }
    if (!prov.representative()) {
        const char *banner =
            "!!! NON-REPRESENTATIVE BUILD (Debug, unoptimized or sanitizer)"
            " — host timings are not comparable !!!\n";
        std::printf("%s", banner);
        std::fprintf(stderr, "%s", banner);
    }

    Checks checks;
    SpanLog spans;
    const std::uint64_t warm_key = snapshot::warmConfigDigest(
        makeConfig(w, o.seed, w.threads, w.checked, false), o.warmup);

    // Reference: one uninterrupted single-thread run with no observers.
    // Every pass must reproduce its digest — restored, sharded, profiled
    // and checker-laden runs alike.
    std::string image;
    const Pass ref = runSystem(makeConfig(w, o.seed, 1, false, o.trace), o,
                               warm_key, spans, "", w.restore ? &image : nullptr);
    std::printf("reference stats_digest %s\n", hex64(ref.digest).c_str());
    if (!o.tiny) {
        for (const RecordedDigest &r : kRecorded) {
            if (w.name == std::string(r.workload) && r.seed == o.seed)
                checks.expect(ref.digest == r.digest,
                              "reference digest " + hex64(ref.digest) +
                                  " != recorded " + hex64(r.digest));
        }
    }

    // Warm checkpoint, saved once per seed (and build) and reused.
    std::string ckpt_path;
    if (w.restore) {
        const fs::path dir = fs::path(o.outDir) / "ckpt";
        fs::create_directories(dir);
        ckpt_path = (dir / ("ckpt_" + hex64(warm_key).substr(2) + "_" +
                            buildId() + ".bin"))
                        .string();
        if (!fs::exists(ckpt_path)) {
            const std::string tmp = ckpt_path + ".tmp";
            {
                std::ofstream out(tmp, std::ios::binary);
                out.write(image.data(),
                          static_cast<std::streamsize>(image.size()));
                if (!checks.expect(static_cast<bool>(out),
                                   "write checkpoint " + tmp))
                    return 1;
            }
            fs::rename(tmp, ckpt_path);
        }
    }

    // Measured passes until the budget is spent. A traced run alternates
    // plain and profiled passes, so the two see the same host conditions.
    std::vector<Pass> passes;
    const int min_passes = o.trace ? 4 : 3;
    const double t_start = spans.now();
    for (int k = 0; k < min_passes || spans.now() - t_start < o.seconds;
         ++k) {
        const bool profiled = o.trace && k % 2 == 1;
        Pass p = runSystem(
            makeConfig(w, o.seed, w.threads, w.checked, profiled), o,
            warm_key, spans, ckpt_path, nullptr);
        const std::string tag = "pass " + std::to_string(k);
        if (!checks.expect(p.error.empty(), tag + ": " + p.error))
            continue;
        checks.expect(p.digest == ref.digest,
                      tag + " digest " + hex64(p.digest) +
                          " != reference " + hex64(ref.digest));
        checks.expect(p.metrics.cycles == o.cycles,
                      tag + " measured the wrong number of cycles");
        std::printf("%s%s: setup %.4f s, window %.4f s, %.1f ticks/s\n",
                    tag.c_str(), p.profiled ? " (profiled)" : "", p.setupS,
                    p.windowS,
                    ratio(static_cast<double>(o.cycles), p.windowS));
        if (w.checked) {
            checks.expect(p.layer["validate.violations"] == 0.0,
                          tag + " reported invariant violations");
            checks.expect(p.energyDrift < 1e-6,
                          tag + " streaming energy does not reconcile "
                                "with computeEnergy");
        }
        passes.push_back(std::move(p));
    }

    std::vector<const Pass *> plain, profiled;
    for (const Pass &p : passes)
        (p.profiled ? profiled : plain).push_back(&p);
    if (!checks.expect(!plain.empty() && (profiled.empty() != o.trace),
                       "too few passes completed")) {
        plain = {&ref};
        profiled = {&ref};
    }
    auto medianOf = [](const std::vector<const Pass *> &ps, auto &&get) {
        std::vector<double> xs;
        for (const Pass *p : ps)
            xs.push_back(get(*p));
        return median(xs);
    };
    auto tps = [&o](const Pass &p) {
        return ratio(static_cast<double>(o.cycles), p.windowS);
    };
    const system::Metrics &m = plain.front()->metrics;

    std::vector<double> rates;
    for (const Pass *p : plain)
        rates.push_back(tps(*p));
    const auto q = quartiles(rates);
    const double best_rate =
        ratio(static_cast<double>(o.cycles), bestWindowS(plain));
    std::printf("pass ticks/s q1=%.1f median=%.1f q3=%.1f n=%zu "
                "best-per-chunk=%.1f (window %llu cycles)\n",
                q[0], q[1], q[2], rates.size(), best_rate,
                static_cast<unsigned long long>(o.cycles));

    Values values;
    const MetricDef *defs = kEndToEnd;
    std::size_t ndefs = std::size(kEndToEnd);
    if (!o.trace) {
        values["ticks_per_s"] = best_rate;
        values["setup_s"] =
            medianOf(plain, [](const Pass &p) { return p.setupS; });
        values["peak_rss_mib"] = peakRssMiB();
        values["sim_instr_throughput"] = m.instructionThroughput();
        values["sim_uncore_latency_cycles"] = m.avgUncoreLatency;
        values["sim_energy_uj"] = m.energy.totalUJ();
    } else {
        defs = kPerLayer;
        ndefs = std::size(kPerLayer);
        // Simulated counts repeat exactly; host timings are medians. The
        // benchmark's spans, engine counts and chunk timings come from
        // plain passes; the figures only profiled passes have come from
        // those.
        auto medianKey = [&](const std::vector<const Pass *> &ps,
                             const std::string &k) {
            return medianOf(ps, [&k](const Pass &p) {
                const auto it = p.layer.find(k);
                return it != p.layer.end() ? it->second : 0.0;
            });
        };
        const Values &plain_keys = plain.front()->layer;
        for (const auto &[k, v] : plain_keys)
            values[k] = medianKey(plain, k);
        for (const auto &[k, v] : profiled.front()->layer)
            if (plain_keys.count(k) == 0)
                values[k] = medianKey(profiled, k);
        for (const char *k : {"snapshot.save_s", "snapshot.bytes"})
            if (ref.layer.count(k) != 0)
                values[k] = ref.layer.at(k);
        // The profiler attributes component kinds only under the
        // sequential engine, so a sharded workload takes them from its
        // profiled single-thread reference run.
        if (w.threads > 1) {
            for (const auto &[k, v] : ref.layer)
                if (k.find("_self_s") != std::string::npos ||
                    k.find("_ns_per_") != std::string::npos ||
                    k == "engine.profile_coverage")
                    values[k] = v;
        }
        std::vector<double> chunk_ms;
        for (const Pass *p : plain)
            for (double c : p->chunkS)
                chunk_ms.push_back(1e3 * c);
        values["engine.chunk_ms_p50"] = percentile(chunk_ms, 0.5);
        values["engine.chunk_ms_p90"] = percentile(chunk_ms, 0.9);
        values["engine.chunk_samples"] = static_cast<double>(chunk_ms.size());
        values["engine.trace_overhead"] =
            ratio(bestWindowS(profiled), bestWindowS(plain)) - 1.0;
    }

    for (const auto &[k, v] : values)
        checks.expect(std::isfinite(v), "metric " + k + " is not finite");
    for (std::size_t i = 0; i < ndefs; ++i)
        std::printf("metric %-40s %.6g %s\n", defs[i].name,
                    values[defs[i].name], defs[i].unit);
    if (o.trace) {
        const fs::path dir = fs::path(o.outDir) / "traces";
        fs::create_directories(dir);
        const fs::path file =
            dir / (std::string(w.name) + "-seed" + std::to_string(o.seed) +
                   ".json");
        std::ofstream out(file);
        spans.writeChromeTrace(out, values);
        checks.expect(static_cast<bool>(out),
                      "write trace " + file.string());
        std::printf("trace %s\n", file.string().c_str());
    }
    std::printf("checks attempted=%llu failed=%llu failed_share=%.4f\n",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                ratio(static_cast<double>(checks.failed()),
                      static_cast<double>(checks.attempted())));

    printResult(checks, defs, ndefs, values);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options o = parseArgs(argc, argv);
    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
