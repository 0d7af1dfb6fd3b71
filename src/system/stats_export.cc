#include "system/stats_export.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "telemetry/json.hh"

namespace stacknoc::system {

namespace {

/** The six-way energy split plus its total, as keys of the current
 *  object, each key suffixed with @p suffix. */
void
writeEnergy(telemetry::JsonWriter &w, const EnergyBreakdown &e,
            const std::string &suffix)
{
    w.kv("cache_dynamic" + suffix, e.cacheDynamicUJ);
    w.kv("cache_leakage" + suffix, e.cacheLeakageUJ);
    w.kv("net_dynamic" + suffix, e.netDynamicUJ);
    w.kv("net_leakage" + suffix, e.netLeakageUJ);
    w.kv("retry_write" + suffix, e.retryWriteUJ);
    w.kv("retransmit_flit" + suffix, e.retransmitFlitUJ);
    w.kv("total" + suffix, e.totalUJ());
}

void
writeMetrics(telemetry::JsonWriter &w, const Metrics &m)
{
    w.key("metrics");
    w.beginObject();
    w.kv("cycles", static_cast<std::uint64_t>(m.cycles));
    w.kv("instruction_throughput", m.instructionThroughput());
    w.kv("mean_ipc", m.meanIpc());
    w.kv("min_ipc", m.minIpc());
    w.kv("avg_network_latency", m.avgNetworkLatency);
    w.kv("p50_network_latency", m.p50NetworkLatency);
    w.kv("p95_network_latency", m.p95NetworkLatency);
    w.kv("p99_network_latency", m.p99NetworkLatency);
    w.kv("avg_bank_queue_latency", m.avgBankQueueLatency);
    w.kv("avg_uncore_latency", m.avgUncoreLatency);
    w.key("energy_uj");
    w.beginObject();
    writeEnergy(w, m.energy, "");
    w.endObject();
    w.endObject();
}

/**
 * The heatmap schema's "frames" array, the layout
 * tools/heatmap_render.py reads: [{"start", "end", "grids": [[layer 0
 * cells], [layer 1 cells]]}, ...], taking each frame's
 * [layer][y * width + x] grids from @p grids. Grid files and the
 * power/thermal JSON sections all write their frames through it.
 */
template <typename Frame, typename Value>
void
writeGridFrames(telemetry::JsonWriter &w, const std::vector<Frame> &frames,
                std::vector<std::vector<Value>> Frame::*grids)
{
    w.beginArray();
    for (const Frame &f : frames) {
        w.beginObject();
        w.kv("start", static_cast<std::uint64_t>(f.start));
        w.kv("end", static_cast<std::uint64_t>(f.end));
        w.key("grids");
        w.beginArray();
        for (const auto &grid : f.*grids) {
            w.beginArray();
            for (const Value v : grid)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

void
writePower(telemetry::JsonWriter &w, const CmpSystem &sys)
{
    const telemetry::EnergyProbe &p = *sys.power();
    const telemetry::EnergyParams &pp = p.params();

    w.beginObject();
    w.kv("period", static_cast<std::uint64_t>(sys.heatmap()->period()));
    w.kv("width", p.shape().width());
    w.kv("height", p.shape().height());
    w.kv("layers", p.shape().layers());
    w.kv("frames_dropped", p.framesDropped());

    w.key("params");
    w.beginObject();
    w.kv("bank_read_nj", pp.bankReadNJ);
    w.kv("bank_write_nj", pp.bankWriteNJ);
    w.kv("bank_leakage_mw", pp.bankLeakageMW);
    w.kv("retry_write_nj", pp.retryWriteNJ);
    w.kv("buffer_write_nj", pp.bufferWriteNJ);
    w.kv("buffer_read_nj", pp.bufferReadNJ);
    w.kv("crossbar_nj", pp.crossbarNJ);
    w.kv("arbiter_nj", pp.arbiterNJ);
    w.kv("link_nj", pp.linkNJ);
    w.kv("router_leakage_mw", pp.routerLeakageMW);
    w.kv("retransmit_flit_nj", pp.retransmitFlitNJ);
    w.endObject();

    w.key("totals_uj");
    w.beginObject();
    writeEnergy(w, p.totals(), "");
    w.endObject();

    // The streaming sum against the end-of-run computeEnergy scalar;
    // the observability validator asserts rel_error stays below 1e-6.
    const double computed = sys.metrics().energy.totalUJ();
    const double streamed = p.totalUJ();
    const double base = std::max(std::abs(computed), 1e-12);
    w.key("reconciliation");
    w.beginObject();
    w.kv("compute_energy_total_uj", computed);
    w.kv("streaming_total_uj", streamed);
    w.kv("rel_error", std::abs(streamed - computed) / base);
    w.endObject();

    w.key("series");
    w.beginArray();
    for (const telemetry::PowerFrame &f : p.frames()) {
        w.beginObject();
        w.kv("start", static_cast<std::uint64_t>(f.start));
        w.kv("end", static_cast<std::uint64_t>(f.end));
        writeEnergy(w, f.energy, "_uj");
        w.kv("total_w", f.totalW());
        w.endObject();
    }
    w.endArray();

    w.key("frames");
    writeGridFrames(w, p.frames(), &telemetry::PowerFrame::powerW);
    w.endObject();
}

void
writeThermal(telemetry::JsonWriter &w, const CmpSystem &sys)
{
    const telemetry::ThermalProbe &t = *sys.thermal();
    const telemetry::ThermalParams &tp = t.grid().params();

    w.beginObject();
    w.kv("period", static_cast<std::uint64_t>(sys.heatmap()->period()));
    w.kv("width", t.grid().width());
    w.kv("height", t.grid().height());
    w.kv("layers", t.grid().layers());
    w.kv("frames_dropped", t.framesDropped());
    w.kv("ambient_c", tp.ambientC);

    w.key("params");
    w.beginObject();
    w.kv("cell_capacity_j_per_k", tp.cellCapacityJPerK);
    w.kv("lateral_w_per_k", tp.lateralWPerK);
    w.kv("vertical_w_per_k", tp.verticalWPerK);
    w.kv("sink_w_per_k", tp.sinkWPerK);
    w.endObject();

    w.kv("peak_c", t.peakC());
    w.kv("substeps", t.grid().substepsTaken());

    w.key("hot_banks");
    w.beginArray();
    for (const auto &hb : t.hotBanks(8)) {
        w.beginObject();
        w.kv("bank", static_cast<std::int64_t>(hb.bank));
        w.kv("layer", hb.layer);
        w.kv("x", hb.x);
        w.kv("y", hb.y);
        w.kv("temp_c", hb.tempC);
        w.endObject();
    }
    w.endArray();

    w.key("series");
    w.beginArray();
    for (const telemetry::ThermalFrame &f : t.frames()) {
        w.beginObject();
        w.kv("start", static_cast<std::uint64_t>(f.start));
        w.kv("end", static_cast<std::uint64_t>(f.end));
        w.key("max_c");
        w.beginArray();
        for (const double v : f.layerMaxC)
            w.value(v);
        w.endArray();
        w.key("mean_c");
        w.beginArray();
        for (const double v : f.layerMeanC)
            w.value(v);
        w.endArray();
        w.key("hottest");
        w.beginObject();
        w.kv("layer", f.hottest.layer);
        w.kv("x", f.hottest.x);
        w.kv("y", f.hottest.y);
        w.kv("temp_c", f.hottest.tempC);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("frames");
    writeGridFrames(w, t.frames(), &telemetry::ThermalFrame::tempC);
    w.endObject();
}

} // namespace

void
writeJsonStats(std::ostream &os, const CmpSystem &sys, const RunInfo &info)
{
    telemetry::JsonWriter w(os);
    w.beginObject();

    w.key("run");
    w.beginObject();
    w.kv("scenario", info.scenario);
    w.kv("app", info.app);
    w.kv("seed", info.seed);
    w.kv("warmup_cycles", static_cast<std::uint64_t>(info.warmupCycles));
    w.kv("measured_cycles",
         static_cast<std::uint64_t>(info.measuredCycles));
    w.kv("timed_out", info.timedOut);
    if (info.restored)
        w.kv("restored_from_cycle",
             static_cast<std::uint64_t>(info.restoredFromCycle));
    if (info.hasStatsDigest) {
        char buf[19];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(info.statsDigest));
        w.kv("stats_digest", std::string(buf));
    }
    w.endObject();

    writeMetrics(w, sys.metrics());

    // Wall-clock performance of the execution engine, so speedups are
    // visible in every run artifact. Never feed this into determinism
    // digests: wall time varies run to run by construction.
    w.key("perf");
    w.beginObject();
    w.kv("engine", std::string(sys.engineName()));
    w.kv("threads", static_cast<std::uint64_t>(sys.engineThreads()));
    w.kv("hardware_threads",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("wall_seconds", sys.wallSeconds());
    w.kv("ticks", static_cast<std::uint64_t>(sys.engineTicks()));
    w.kv("ticks_per_sec", sys.ticksPerSecond());
    // Idle-elision occupancy: component ticks actually executed over
    // tick slots offered. Observer-only like wall time — the count may
    // legitimately differ between engines at equal results.
    w.kv("elide", sys.engineElides());
    w.kv("ticked_components",
         static_cast<std::uint64_t>(sys.engineTickedComponents()));
    w.kv("tick_slots", static_cast<std::uint64_t>(sys.engineTickSlots()));
    w.kv("active_fraction", sys.engineActiveFraction());
    w.endObject();

    // Cycle-accounting profile. Wall-clock like "perf": excluded from
    // determinism digests (stats_diff.py skips both by default).
    w.key("profile");
    if (const auto *prof = sys.profiler()) {
        w.beginObject();
        w.kv("cycles", static_cast<std::uint64_t>(prof->cycles()));
        w.kv("total_seconds", prof->totalPhaseSeconds());
        w.kv("active_fraction", sys.engineActiveFraction());
        w.key("phases");
        w.beginObject();
        for (std::size_t p = 0; p < telemetry::kNumEnginePhases; ++p) {
            const auto ph = static_cast<telemetry::EnginePhase>(p);
            w.kv(telemetry::enginePhaseName(ph), prof->phaseSeconds(ph));
        }
        w.endObject();
        w.key("shards");
        w.beginArray();
        for (std::size_t s = 0; s < prof->numShards(); ++s) {
            w.beginObject();
            w.kv("shard", static_cast<std::uint64_t>(s));
            w.kv("compute_seconds",
                 prof->shardSeconds(s, telemetry::EnginePhase::Compute));
            w.kv("critical_shard_share", prof->criticalShardShare(s));
            w.endObject();
        }
        w.endArray();
        w.key("kinds");
        w.beginObject();
        for (std::size_t k = 0; k < prof->kindNames().size(); ++k)
            w.kv(prof->kindNames()[k], prof->kindSeconds(k));
        w.endObject();
        // Named splits of the cycle_end phase (validation checkers).
        w.key("cycle_end");
        w.beginObject();
        for (std::size_t i = 0; i < prof->sectionNames().size(); ++i)
            w.kv(prof->sectionNames()[i], prof->sectionSeconds(i));
        w.endObject();
        w.kv("spans_recorded", prof->spansRecorded());
        w.kv("spans_dropped", prof->spansDropped());
        w.endObject();
    } else {
        w.null();
    }

    w.key("groups");
    w.beginObject();
    w.key("cache");
    telemetry::writeGroupJson(w, sys.cacheStats());
    w.key("core");
    telemetry::writeGroupJson(w, sys.coreStats());
    w.key("mem");
    telemetry::writeGroupJson(w, sys.memStats());
    w.key("net");
    telemetry::writeGroupJson(w, sys.network().stats());
    if (const auto *policy = sys.policy()) {
        w.key("sttnoc");
        telemetry::writeGroupJson(w, policy->stats());
    }
    if (const auto *faults = sys.faults()) {
        w.key("faults");
        telemetry::writeGroupJson(w, faults->stats());
    }
    w.endObject();

    // Fault-campaign summary: the active spec plus the watchdog verdict
    // (null when no faults and no watchdog were configured).
    w.key("faults");
    if (sys.faults() || sys.watchdogProbe()) {
        w.beginObject();
        w.kv("spec", sys.faults() ? sys.faults()->spec().toString()
                                  : std::string("none"));
        w.key("watchdog");
        if (const auto *wd = sys.watchdogProbe()) {
            w.beginObject();
            w.kv("fired", wd->fired());
            w.kv("fired_at", static_cast<std::uint64_t>(wd->firedAt()));
            w.kv("stall_cycles",
                 static_cast<std::uint64_t>(wd->config().stallCycles));
            w.endObject();
        } else {
            w.null();
        }
        w.endObject();
    } else {
        w.null();
    }

    w.key("intervals");
    if (const auto *sampler = sys.intervals())
        telemetry::writeIntervalJson(w, *sampler);
    else
        w.null();

    // Streaming power/thermal telemetry. Both sections are fully
    // deterministic (simulated-time quantities only), so stats_diff
    // compares them by default when both runs enabled the flags.
    w.key("power");
    if (sys.power() != nullptr)
        writePower(w, sys);
    else
        w.null();

    w.key("thermal");
    if (sys.thermal() != nullptr)
        writeThermal(w, sys);
    else
        w.null();

    w.key("probe");
    if (const auto *probe = sys.probe()) {
        w.beginObject();
        w.key("avg_requests_at_hops");
        w.beginObject();
        w.kv("1", probe->avgRequestsAtHops(1));
        w.kv("2", probe->avgRequestsAtHops(2));
        w.kv("3", probe->avgRequestsAtHops(3));
        w.endObject();
        w.endObject();
    } else {
        w.null();
    }

    w.endObject();
    os << "\n";
}

bool
writeGridFiles(const CmpSystem &sys, const std::string &prefix)
{
    const HeatmapCollector *table = sys.heatmap();
    if (table == nullptr)
        return true;
    bool ok = true;
    auto file = [&](const char *metric, std::uint64_t dropped,
                    const auto &frames, auto grids) {
        std::ofstream os(prefix + "." + metric + ".json");
        if (!os) {
            ok = false;
            return;
        }
        telemetry::JsonWriter w(os);
        w.beginObject();
        w.kv("metric", metric);
        w.kv("width", table->shape().width());
        w.kv("height", table->shape().height());
        w.kv("layers", table->shape().layers());
        w.kv("period", static_cast<std::uint64_t>(table->period()));
        w.kv("frames_dropped", dropped);
        w.key("frames");
        writeGridFrames(w, frames, grids);
        w.endObject();
        os << "\n";
    };

    using Frame = HeatmapCollector::Frame;
    const std::uint64_t dropped = table->framesDropped();
    file("flits", dropped, table->frames(), &Frame::flits);
    file("occupancy", dropped, table->frames(), &Frame::occupancy);
    file("tsb", dropped, table->frames(), &Frame::tsb);
    file("holds", dropped, table->frames(), &Frame::holds);
    if (const auto *power = sys.power()) {
        file("power", power->framesDropped(), power->frames(),
             &telemetry::PowerFrame::powerW);
    }
    if (const auto *thermal = sys.thermal()) {
        file("temperature", thermal->framesDropped(), thermal->frames(),
             &telemetry::ThermalFrame::tempC);
    }
    return ok;
}

} // namespace stacknoc::system
