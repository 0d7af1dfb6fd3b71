/**
 * @file
 * Streaming energy telemetry: the EnergyProbe turns the activity
 * table's per-cell event deltas (system/heatmap.hh) into per-interval
 * power frames — [layer][y * width + x] grids in watts plus the
 * interval's energy split — and streaming category totals.
 *
 * Every cell is priced by energyOf() (telemetry/energy.hh), the same
 * formula the end-of-run computeEnergy applies to the whole window, so
 * summed over frames the streaming totals reconcile with it to
 * floating-point noise; tests pin the drift below 1e-6 relative.
 *
 * The probe has no sampling logic of its own: the table decides when a
 * window closes, skips warm-up, and resets the probe at the warm-up
 * boundary. Each frame also advances the thermal grid when one is
 * attached. Determinism digests are identical with the probe on or
 * off, at any engine thread count.
 */

#ifndef STACKNOC_TELEMETRY_POWER_HH
#define STACKNOC_TELEMETRY_POWER_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "telemetry/energy.hh"

namespace stacknoc::telemetry {

class ThermalProbe;

/** One sampled interval of the EnergyProbe. */
struct PowerFrame
{
    Cycle start = 0; //!< first cycle covered (inclusive)
    Cycle end = 0;   //!< last cycle covered (inclusive)

    /** Total (dynamic + leakage) power, watts, [layer][y*width+x]. */
    std::vector<std::vector<double>> powerW;

    EnergyBreakdown energy; //!< the interval's energy split

    double spanSeconds = 0.0; //!< wall time the interval spans

    /** Mean total power over the interval, watts. */
    double
    totalW() const
    {
        return spanSeconds > 0.0 ? energy.totalUJ() * 1e-6 / spanSeconds
                                 : 0.0;
    }
};

/** Streams per-interval, per-cell uncore power from activity windows. */
class EnergyProbe
{
  public:
    /** Retention cap on frames; totals keep accumulating past it. */
    static constexpr std::size_t kMaxFrames = std::size_t{1} << 14;

    /**
     * @param shape mesh geometry of the grids.
     * @param params event energies (system::energyParams()).
     * @param thermal grid advanced by every frame (may be null; not
     *        owned).
     */
    EnergyProbe(const MeshShape &shape, const EnergyParams &params,
                ThermalProbe *thermal = nullptr);

    /**
     * Price the window [@p start, @p end]: @p cells holds each node's
     * activity, in node order.
     */
    void onSample(Cycle start, Cycle end,
                  const std::vector<Activity> &cells);

    /** Drop frames and totals (warm-up boundary), thermal grid too. */
    void reset();

    const MeshShape &shape() const { return shape_; }
    const EnergyParams &params() const { return params_; }
    const std::vector<PowerFrame> &frames() const { return frames_; }
    std::uint64_t framesDropped() const { return framesDropped_; }

    /** Streaming category totals since the last reset. */
    const EnergyBreakdown &totals() const { return totals_; }
    double totalUJ() const { return totals_.totalUJ(); }

  private:
    MeshShape shape_;
    EnergyParams params_;
    ThermalProbe *thermal_;

    std::vector<PowerFrame> frames_;
    std::uint64_t framesDropped_ = 0;
    EnergyBreakdown totals_;
};

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_POWER_HH
