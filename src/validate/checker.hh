/**
 * @file
 * The validation layer's spine: checkers, violations, and the hub that
 * sweeps every registered checker on a period and fails fast with a
 * cycle-stamped diagnostic dump.
 *
 * Checkers are strict observers: they read simulator state through
 * const accessors only and never mutate it, so enabling validation
 * cannot change simulated behaviour — the determinism seed sweep proves
 * runs stay bit-identical with checkers on and off.
 */

#ifndef STACKNOC_VALIDATE_CHECKER_HH
#define STACKNOC_VALIDATE_CHECKER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/probe.hh"

namespace stacknoc::noc {
class Network;
} // namespace stacknoc::noc

namespace stacknoc::telemetry {
class CycleProfiler;
} // namespace stacknoc::telemetry

namespace stacknoc::validate {

class FabricCensus;

/** One invariant violation, stamped with the cycle it was detected at. */
struct Violation
{
    std::string checker; //!< Checker::name() of the detector
    Cycle cycle = 0;     //!< cycle the sweep ran at
    std::string message; //!< human-readable diagnosis
};

/** Validation layer configuration. */
struct ValidationConfig
{
    /** Sweep period in cycles (0 disables periodic sweeps). */
    Cycle period = 1;

    /**
     * Abort (panic) on the first violating sweep after dumping
     * diagnostics. Tests that inspect violations disable this.
     */
    bool failFast = true;

    /**
     * Declare a deadlock when packets are in flight but no flit is
     * switched, injected or ejected for this many cycles. Generous:
     * every legitimate wait in the system (DRAM access, bank write
     * burst, hold cap) is at least an order of magnitude shorter.
     */
    Cycle stallThreshold = 5000;

    /**
     * Tolerated post-release arbitration delay for a held packet still
     * sitting at its parent router beyond the starvation cap. The cap
     * guarantees eligibility, not a switch grant: a released write can
     * keep losing arbitrations to higher-priority classes.
     */
    Cycle holdSlack = 2000;

    /** Retained violations when failFast is off (oldest kept). */
    std::size_t maxViolations = 256;

    /** Trace records included in the diagnostic dump. */
    std::size_t dumpTraceRecords = 32;
};

/** One runtime invariant. check() appends violations; it never throws. */
class Checker
{
  public:
    virtual ~Checker() = default;

    /** Stable kebab-case identifier, used in violation reports. */
    virtual const char *name() const = 0;

    /** Evaluate the invariant at cycle @p now. */
    virtual void check(Cycle now, std::vector<Violation> &out) = 0;

    /** Statistics were reset (end of warm-up): re-arm baselines. */
    virtual void onReset(Cycle now) { (void)now; }
};

/**
 * Owns the checkers and runs them as a telemetry probe. On a violating
 * sweep it writes a cycle-stamped diagnostic dump (the violations plus
 * the tail of the packet-lifecycle trace ring, when a tracer is
 * installed) to stderr, then panics when failFast is set.
 *
 * A sweep first fills the shared fabric census (when a checker asked
 * for one), then runs the checkers in registration order. With a
 * profiler installed, the census and each checker are charged to a
 * named cycle-end section ("validate.census", "validate.<checker>").
 */
class ValidationHub : public telemetry::Probe
{
  public:
    explicit ValidationHub(const ValidationConfig &config);
    ~ValidationHub() override;

    /** Register a checker (ownership transferred). */
    void add(std::unique_ptr<Checker> checker);

    /**
     * The fabric census of @p net, created on first call and filled
     * once at the start of every sweep. Checkers hold the reference.
     */
    const FabricCensus &fabricCensus(const noc::Network &net);

    /** Time the census and each checker into @p prof (null: off). */
    void setProfiler(telemetry::CycleProfiler *prof);

    void onCycle(Cycle now) override;
    void onReset(Cycle now) override;

    /** Run one sweep immediately, regardless of the period. */
    void checkNow(Cycle now);

    const ValidationConfig &config() const { return config_; }

    /** Violations accumulated so far (empty while the run is clean). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Sweeps executed. */
    std::uint64_t sweeps() const { return sweeps_; }

    std::size_t checkerCount() const { return checkers_.size(); }

  private:
    /** Dump @p fresh and the trace-ring tail to stderr. */
    void report(const std::vector<Violation> &fresh) const;

    /** Register @p checker's profiler section (profiler installed). */
    void addSection(const Checker &checker);

    ValidationConfig config_;
    std::vector<std::unique_ptr<Checker>> checkers_;
    std::unique_ptr<FabricCensus> census_;
    std::vector<Violation> violations_;
    std::uint64_t sweeps_ = 0;

    telemetry::CycleProfiler *profiler_ = nullptr;
    /** Profiler sections when profiled: the census, then one per
     *  checker in registration order. */
    std::vector<std::size_t> sections_;
};

} // namespace stacknoc::validate

#endif // STACKNOC_VALIDATE_CHECKER_HH
