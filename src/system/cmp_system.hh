/**
 * @file
 * The assembled 3D CMP: cores + private L1s on the top layer, STT-RAM or
 * SRAM L2 banks + directory on the stacked layer, four memory
 * controllers, and the 3D NoC with (optionally) the STT-RAM-aware
 * arbitration scheme. This is the main entry point of the library.
 */

#ifndef STACKNOC_SYSTEM_CMP_SYSTEM_HH
#define STACKNOC_SYSTEM_CMP_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/geometry.hh"
#include "engine/engine.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "telemetry/interval.hh"
#include "telemetry/power.hh"
#include "telemetry/probe.hh"
#include "telemetry/thermal.hh"
#include "telemetry/trace.hh"
#include "noc/network.hh"
#include "sttnoc/bank_aware_policy.hh"
#include "sttnoc/rca_fabric.hh"
#include "coherence/l1_cache.hh"
#include "coherence/l2_bank.hh"
#include "mem/memory_controller.hh"
#include "cpu/core.hh"
#include "workload/synthetic_stream.hh"
#include "system/heatmap.hh"
#include "system/metrics.hh"
#include "system/probes.hh"
#include "system/progress.hh"
#include "system/scenario.hh"
#include "telemetry/profile.hh"
#include "validate/checker.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::system {

/** Full-system configuration. */
struct SystemConfig
{
    int meshWidth = 8;
    int meshHeight = 8;

    Scenario scenario{};

    /**
     * Application per core: one entry replicates across all cores
     * (multi-threaded / 64-copy runs); meshWidth*meshHeight entries give
     * a multi-programmed mix.
     */
    std::vector<std::string> apps{"tpcc"};

    std::uint64_t seed = 1;

    workload::StreamParams stream{};
    coherence::L1Config l1{};
    mem::DramParams dram{};

    /** Use real L2 tag arrays instead of trace-annotated hit/miss. */
    bool realTags = false;

    /** Annotated mode: dirty-victim probability on L2 fills. */
    double victimDirtyProb = 0.3;

    /** Per-bank admission bounds (see coherence::L2Config). */
    int bankRequestCap = 8;
    int bankWriteCap = 32;

    /** Probe sampling period (0 disables the occupancy probe). */
    Cycle probePeriod = 64;

    /** Interval time-series period (0 disables the sampler). */
    Cycle intervalPeriod = 0;

    /** Cap on retained interval snapshots. */
    std::size_t intervalMaxSnapshots = std::size_t{1} << 16;

    /** Enable the engine cycle-accounting profiler (observer-only). */
    bool profile = false;

    /** Retained profiler spans per thread (0 = totals only); sized up
     *  by the Chrome-trace exporter path. */
    std::size_t profileSpanCapacity = 0;

    /** Spatial heatmap sampling period (0 disables the collector). */
    Cycle heatmapPeriod = 0;

    /** Cap on retained heatmap frames. */
    std::size_t heatmapMaxFrames = std::size_t{1} << 14;

    /** Streaming per-interval energy telemetry (observer-only). */
    bool power = false;

    /** Thermal RC grid fed by the power frames (implies power). */
    bool thermal = false;

    /** Power/thermal sampling period in cycles. */
    Cycle powerPeriod = 1024;

    /** Cap on retained power/thermal frames (totals keep streaming). */
    std::size_t powerMaxFrames = std::size_t{1} << 14;

    /** Thermal solver constants (see telemetry/thermal.hh). */
    telemetry::ThermalParams thermalParams{};

    /** Emit live progress lines on stderr. */
    bool progress = false;

    /** Cycles between progress reports. */
    Cycle progressPeriod = Cycle{1} << 15;

    /** Planned total run length (for progress %/ETA; 0 hides both). */
    Cycle progressTotalCycles = 0;

    /**
     * Execution-engine threads: 1 runs the historical sequential loop,
     * N >= 2 the sharded parallel engine (bit-identical results; see
     * docs/ENGINE.md).
     */
    int threads = 1;

    /**
     * Idle elision: skip components whose quiescent() predicate holds
     * until a channel push or direct call wakes them (bit-identical to
     * ticking everything; see docs/ENGINE.md). False is the escape
     * hatch (`--no-elide`) that restores the full per-cycle walk.
     */
    bool elide = true;

    /** Enable the runtime invariant checkers (strict observers). */
    bool validate = false;

    /** Checker configuration (period, fail-fast, thresholds). */
    validate::ValidationConfig validation{};

    /** Fault-injection campaign (active when faultsEnabled). */
    fault::FaultSpec faults{};
    bool faultsEnabled = false;

    /** Liveness watchdog (active when watchdogEnabled). */
    fault::WatchdogConfig watchdog{};
    bool watchdogEnabled = false;
};

/** Largest core count the directory's 64-bit sharer set can track. */
constexpr int kMaxCores = 64;

/**
 * Every legality rule on a SystemConfig: mesh size and core count, app
 * count, region tiling, scheme-needs-regions, parent distance H in
 * 1..3, and the stuck-router node range. @return an empty string for a
 * config CmpSystem can build, else a one-line reason naming the field.
 */
std::string checkConfig(const SystemConfig &cfg);

/** The system. Construct, warmup(), run(), then read metrics(). */
class CmpSystem
{
  public:
    explicit CmpSystem(const SystemConfig &config);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    /** Advance the system by @p cycles. */
    void run(Cycle cycles);

    /**
     * Advance @p cycles, then zero every statistic and committed-
     * instruction count so metrics() reflects only the steady state.
     */
    void warmup(Cycle cycles);

    /**
     * Split warmup for wall-clock-guarded drivers: warmupBegin(), any
     * number of run() chunks, then warmupEnd() to perform the resets.
     * warmup(c) is exactly warmupBegin(); run(c); warmupEnd().
     */
    void warmupBegin();
    void warmupEnd();

    /** Results accumulated since construction or the last warmup(). */
    Metrics metrics() const;

    int numCores() const { return shape_.nodesPerLayer(); }
    int numBanks() const { return shape_.nodesPerLayer(); }
    const MeshShape &shape() const { return shape_; }
    const SystemConfig &config() const { return config_; }

    Simulator &simulator() { return sim_; }
    const Simulator &simulator() const { return sim_; }
    noc::Network &network() { return *net_; }
    const noc::Network &network() const { return *net_; }
    cpu::Core &core(int i) { return *cores_.at(std::size_t(i)); }
    coherence::L1Cache &l1(int i) { return *l1s_.at(std::size_t(i)); }
    coherence::L2Bank &bank(int i) { return *banks_.at(std::size_t(i)); }

    /** The bank-aware policy, or nullptr for oblivious scenarios. */
    sttnoc::BankAwarePolicy *policy() { return bankAwarePolicy_.get(); }
    const sttnoc::BankAwarePolicy *
    policy() const
    {
        return bankAwarePolicy_.get();
    }

    const sttnoc::RegionMap &regions() const { return *regions_; }
    const sttnoc::ParentMap &parents() const { return *parents_; }

    stats::Group &cacheStats() { return cacheStats_; }
    const stats::Group &cacheStats() const { return cacheStats_; }
    stats::Group &coreStats() { return coreStats_; }
    const stats::Group &coreStats() const { return coreStats_; }
    stats::Group &memStats() { return memStats_; }
    const stats::Group &memStats() const { return memStats_; }

    RouterOccupancyProbe *probe() { return probe_.get(); }
    const RouterOccupancyProbe *probe() const { return probe_.get(); }

    /** Interval time-series, or nullptr when intervalPeriod == 0. */
    const telemetry::IntervalSampler *
    intervals() const
    {
        return sampler_.get();
    }

    /** The validation hub, or nullptr when validation is off. */
    validate::ValidationHub *validation() { return validation_.get(); }
    const validate::ValidationHub *
    validation() const
    {
        return validation_.get();
    }

    /** The cycle profiler, or nullptr when profiling is off. */
    const telemetry::CycleProfiler *
    profiler() const
    {
        return profiler_.get();
    }

    /** The heatmap collector, or nullptr when heatmapPeriod == 0. */
    const HeatmapCollector *heatmap() const { return heatmap_.get(); }

    /** The streaming energy probe, or nullptr when power is off. */
    const telemetry::EnergyProbe *power() const { return power_.get(); }

    /** The thermal probe, or nullptr when thermal is off. */
    const telemetry::ThermalProbe *thermal() const
    {
        return thermal_.get();
    }

    /**
     * Close the open partial interval of the streaming telemetry so
     * its totals cover exactly the measured window. Call once after
     * the final run() chunk, before exporting or reading power/thermal
     * results; idempotent, no-op when the probes are off.
     */
    void finalizeTelemetry();

    /** The progress reporter, or nullptr when progress is off. */
    ProgressReporter *progress() { return progress_.get(); }

    /** The fault injector, or nullptr when faults are off. */
    const fault::FaultInjector *faults() const { return faults_.get(); }

    /** The liveness watchdog, or nullptr when it is off. */
    const fault::Watchdog *watchdogProbe() const { return watchdog_.get(); }

    /** Dump every statistics group to @p os. */
    void dumpStats(std::ostream &os) const;

    // --- Wall-clock performance of the execution engine -------------

    /** Wall seconds spent inside run()/warmup() so far. */
    double wallSeconds() const { return wallSeconds_; }

    /** Simulated cycles executed inside run()/warmup() so far. */
    Cycle engineTicks() const { return engineTicks_; }

    /** Simulated cycles per wall second (0 before any run()). */
    double
    ticksPerSecond() const
    {
        return wallSeconds_ > 0.0
                   ? static_cast<double>(engineTicks_) / wallSeconds_
                   : 0.0;
    }

    const char *engineName() const { return engine_->name(); }
    int engineThreads() const { return engine_->threads(); }
    bool engineElides() const { return engine_->elides(); }

    /** Component ticks actually executed by the engine. */
    std::uint64_t engineTickedComponents() const
    {
        return engine_->tickedComponents();
    }

    /** Component ticks a full walk would have executed. */
    std::uint64_t engineTickSlots() const { return engine_->tickSlots(); }

    /** Mean fraction of components ticked per cycle (1.0 = no elision). */
    double
    engineActiveFraction() const
    {
        const auto slots = engine_->tickSlots();
        return slots != 0
                   ? static_cast<double>(engine_->tickedComponents()) /
                         static_cast<double>(slots)
                   : 1.0;
    }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    void buildNetwork();
    void buildMemorySystem();
    void buildCores();

    SystemConfig config_;
    MeshShape shape_;
    Simulator sim_;

    stats::Group cacheStats_;
    stats::Group coreStats_;
    stats::Group memStats_;

    std::unique_ptr<fault::FaultInjector> faults_;
    std::unique_ptr<fault::Watchdog> watchdog_;
    std::unique_ptr<sttnoc::RegionMap> regions_;
    std::unique_ptr<sttnoc::ParentMap> parents_;
    std::unique_ptr<noc::ArbitrationPolicy> obliviousPolicy_;
    std::unique_ptr<sttnoc::BankAwarePolicy> bankAwarePolicy_;
    std::unique_ptr<noc::Network> net_;
    std::unique_ptr<sttnoc::RcaFabric> rcaFabric_;

    std::vector<std::unique_ptr<coherence::L1Cache>> l1s_;
    std::vector<std::unique_ptr<coherence::L2Bank>> banks_;
    std::vector<std::unique_ptr<mem::MemoryController>> mcs_;
    std::vector<std::unique_ptr<workload::SyntheticStream>> streams_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<RouterOccupancyProbe> probe_;
    std::unique_ptr<telemetry::IntervalSampler> sampler_;
    std::unique_ptr<validate::ValidationHub> validation_;
    std::unique_ptr<telemetry::CycleProfiler> profiler_;
    std::unique_ptr<HeatmapCollector> heatmap_;
    std::unique_ptr<telemetry::EnergyProbe> power_;
    std::unique_ptr<telemetry::ThermalProbe> thermal_;
    std::unique_ptr<ProgressReporter> progress_;
    /** Tracer owned for diagnostic dumps when none was installed. */
    std::unique_ptr<telemetry::PacketTracer> ownedTracer_;
    telemetry::ProbeHub hub_;
    std::unique_ptr<engine::ExecutionEngine> engine_;

    Cycle measureStart_ = 0;
    double wallSeconds_ = 0.0;
    Cycle engineTicks_ = 0;
};

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_CMP_SYSTEM_HH
