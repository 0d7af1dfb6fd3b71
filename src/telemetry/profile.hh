/**
 * @file
 * Cycle-accounting profiler: attributes the execution engine's wall
 * time to per-cycle phases (parallel compute, barrier wait, commit,
 * serial slot, cycle-end callbacks), to individual shards of
 * the parallel engine (with the share of cycles each shard finished
 * last), and to component kinds under the sequential engine.
 *
 * The profiler is a pure wall-clock observer: it never touches
 * simulation state, so determinism digests are bit-identical with it
 * on or off. Engines consult one pointer per run; with no profiler
 * installed they take their historical fast paths and the profiler
 * code allocates nothing.
 *
 * Timestamps are chained (the end of one phase is the start of the
 * next), so per-cycle phase durations tile the engine loop: their sum
 * tracks measured wall time to within loop overhead — the property
 * the `test_profile.cc` sum-to-wall test and the CI observability
 * smoke job assert. Named cycle-end sections (the validation checkers)
 * further split the cycle_end phase.
 *
 * When constructed with a span capacity, every phase measurement is
 * additionally retained as a {thread, phase, t0, t1} span for the
 * Chrome-trace exporter (see chrome_trace.hh). Spans beyond the
 * capacity are counted as dropped rather than grown unbounded.
 */

#ifndef STACKNOC_TELEMETRY_PROFILE_HH
#define STACKNOC_TELEMETRY_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stacknoc::telemetry {

/** Wall-time attribution buckets of one engine cycle. */
enum class EnginePhase : std::uint8_t {
    Compute = 0, //!< component ticks (main thread's own shard)
    Barrier,     //!< main thread waiting on worker shards
    Commit,      //!< trace-log merge + serial-list mailbox drain
    Serial,      //!< serial-affinity components
    CycleEnd,    //!< cycle-end callbacks (probes, samplers) + clock
};

constexpr std::size_t kNumEnginePhases = 5;

/** @return stable lower-case phase name ("compute", "barrier", ...). */
const char *enginePhaseName(EnginePhase ph);

/** One retained phase measurement, for trace export. */
struct PhaseSpan
{
    EnginePhase phase = EnginePhase::Compute;
    double t0 = 0.0; //!< seconds since profiler construction
    double t1 = 0.0;
};

/**
 * The profiler. One instance per CmpSystem, shared between warmup()
 * and run(); engines call in from the loop via the chained-timestamp
 * helpers below.
 *
 * Threading contract: setShardCount() and setKinds() run before the
 * first profiled cycle. addPhase()/addKindSeconds() are main-thread
 * only; addShardPhase(shard, ...) may be called concurrently by the
 * worker owning @p shard (each shard has its own cache-line-separated
 * slot, and the engine's phase barrier orders those writes before any
 * main-thread read). Accessors are for use after run() returns.
 */
class CycleProfiler
{
  public:
    /**
     * @param span_capacity per-thread bound on retained PhaseSpans
     *        (0 = accumulate totals only, retain nothing).
     */
    explicit CycleProfiler(std::size_t span_capacity = 0);

    /** Monotonic seconds since construction (the span time base). */
    double
    nowSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    // --- Engine-side recording ----------------------------------------

    /** Size the per-shard slots (idempotent; before first cycle). */
    void setShardCount(std::size_t n);

    /** Name the sequential engine's component-kind buckets. */
    void setKinds(std::vector<std::string> names);

    /** Main-thread phase measurement [t0, t1), accumulated + spanned. */
    void addPhase(EnginePhase ph, double t0, double t1);

    /** Per-shard phase measurement, written by the shard's own thread. */
    void addShardPhase(std::size_t shard, EnginePhase ph, double t0,
                       double t1);

    /**
     * Count the current cycle against the shard whose compute phase
     * ended last (the critical shard), from the compute end stamps of
     * addShardPhase(). Main-thread only, after the phase barrier.
     */
    void countCriticalShard();

    /** Sequential per-kind compute attribution (no span). */
    void
    addKindSeconds(std::size_t kind, double dt)
    {
        kindSeconds_[kind] += dt;
    }

    /** Count @p n profiled engine cycles. */
    void addCycles(Cycle n) { cycles_ += n; }

    /**
     * Slot of the named cycle-end section (one validation checker, for
     * example), registering it on first use. Sections split the
     * cycle_end phase: their seconds are inside it, not added to the
     * phase sum. Main-thread only, like addPhase().
     */
    std::size_t cycleEndSection(const std::string &name);

    /** Charge @p dt seconds to cycle-end section @p slot. */
    void
    addSectionSeconds(std::size_t slot, double dt)
    {
        sectionSeconds_[slot] += dt;
    }

    // --- Reporting (after run() has returned) -------------------------

    double phaseSeconds(EnginePhase ph) const;

    /** Sum of all main-thread phase buckets. */
    double totalPhaseSeconds() const;

    std::size_t numShards() const { return shards_.size(); }
    double shardSeconds(std::size_t shard, EnginePhase ph) const;

    /**
     * Fraction of the counted cycles in which @p shard finished compute
     * last, so the barrier waited on it (0 when none were counted).
     */
    double criticalShardShare(std::size_t shard) const;

    const std::vector<std::string> &kindNames() const { return kindNames_; }
    double kindSeconds(std::size_t kind) const
    {
        return kindSeconds_.at(kind);
    }

    Cycle cycles() const { return cycles_; }

    const std::vector<std::string> &sectionNames() const
    {
        return sectionNames_;
    }
    double sectionSeconds(std::size_t slot) const
    {
        return sectionSeconds_.at(slot);
    }

    std::size_t spanCapacity() const { return spanCapacity_; }
    std::uint64_t spansRecorded() const;
    std::uint64_t spansDropped() const;

    /**
     * Visit every retained span as (tid, span): tid 0 is the main
     * thread's phase track, tid 1+s is shard s's compute track.
     */
    void forEachSpan(
        const std::function<void(std::uint32_t tid, const PhaseSpan &)>
            &fn) const;

    /**
     * Pretty-print the phase/shard/kind breakdown. @p wall_seconds is
     * the externally measured engine wall time the shares are printed
     * against.
     */
    void writeTable(std::ostream &os, double wall_seconds) const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Bounded span retention shared by the main and shard tracks. */
    struct SpanLog
    {
        std::vector<PhaseSpan> spans;
        std::uint64_t recorded = 0;
        std::uint64_t dropped = 0;

        void push(std::size_t capacity, EnginePhase ph, double t0,
                  double t1);
    };

    /** One shard's accumulators, cache-line separated from its peers
     *  so concurrent workers never false-share. */
    struct alignas(64) ShardSlot
    {
        std::array<double, kNumEnginePhases> seconds{};
        SpanLog log;
        double computeEnd = 0.0; //!< end stamp of the last compute phase
        std::uint64_t criticalCycles = 0; //!< cycles it finished last
    };

    Clock::time_point epoch_;
    std::size_t spanCapacity_;

    std::array<double, kNumEnginePhases> phaseSeconds_{};
    SpanLog mainLog_;

    std::vector<std::unique_ptr<ShardSlot>> shards_;

    std::vector<std::string> kindNames_;
    std::vector<double> kindSeconds_;

    std::vector<std::string> sectionNames_;
    std::vector<double> sectionSeconds_;

    Cycle cycles_ = 0;
};

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_PROFILE_HH
