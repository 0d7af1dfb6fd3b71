/**
 * @file
 * HotSpot-lite transient thermal model of the 3D stack: one RC cell
 * per grid position, lateral conductances between in-layer neighbours,
 * vertical conductances between stacked cells, and a per-cell sink
 * conductance to ambient, integrated with an explicit Euler scheme.
 *
 * The solver is deliberately small and deterministic rather than
 * calibrated: temperatures are updated double-buffered in a fixed cell
 * order using plain double arithmetic, so results are bit-identical
 * across runs and engine thread counts (the solver only ever steps on
 * the main thread, fed by the EnergyProbe's cycle-end frames). Thermal
 * constants are compressed so that microsecond-scale simulations show
 * visible transients: real silicon has time constants in the
 * milliseconds, which would render every short run isothermal. With
 * the defaults, a uniform per-cell power P settles at
 * ambient + P / sinkConductance (the analytic steady state the tests
 * check; lateral and vertical flows cancel by symmetry).
 *
 * Integration is substepped: explicit Euler is stable only for
 * dt < 2 C / Gmax (Gmax = the largest total conductance hanging off a
 * cell), so step() splits each power frame into equal substeps no
 * longer than maxStepSeconds (default C / (5 Gmax)).
 *
 * The ThermalProbe wraps the solver as a view of the EnergyProbe: each
 * power frame advances the grid by the frame's span and records a
 * temperature frame (per-cell grid, per-layer max/mean, hottest cell).
 * Reset returns the grid to ambient — the temperature series
 * measures the post-warm-up window from a cold start, keeping it
 * independent of warm-up length.
 */

#ifndef STACKNOC_TELEMETRY_THERMAL_HH
#define STACKNOC_TELEMETRY_THERMAL_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "telemetry/power.hh"

namespace stacknoc::telemetry {

/** RC constants of the thermal grid (scaled, see file comment). */
struct ThermalParams
{
    double ambientC = 45.0;          //!< heat-sink/coolant temperature
    double cellCapacityJPerK = 5e-8; //!< per-cell heat capacity
    double lateralWPerK = 0.010;     //!< in-layer neighbour conductance
    double verticalWPerK = 0.020;    //!< inter-layer (TSV) conductance
    double sinkWPerK = 0.002;        //!< per-cell conductance to ambient
    /** Explicit-Euler substep bound; 0 picks C / (5 Gmax). */
    double maxStepSeconds = 0.0;
};

/** The RC grid itself: step it with per-cell power, read temperatures. */
class ThermalGrid
{
  public:
    ThermalGrid(int width, int height, int layers,
                const ThermalParams &params);

    /** Return every cell to ambient. */
    void reset();

    /**
     * Advance the grid by @p dt seconds under @p power_w (watts,
     * [layer][y*width+x]; same shape as the grid). Substepped for
     * stability; deterministic for identical inputs.
     */
    void step(const std::vector<std::vector<double>> &power_w,
              double dt);

    int width() const { return width_; }
    int height() const { return height_; }
    int layers() const { return layers_; }
    const ThermalParams &params() const { return params_; }

    /** Temperatures in Celsius, [layer][y*width+x]. */
    const std::vector<std::vector<double>> &
    temperaturesC() const
    {
        return tempC_;
    }

    double cellC(int x, int y, int layer) const;
    double layerMaxC(int layer) const;
    double layerMeanC(int layer) const;

    /** Hottest cell over all layers: its layer, x, y and temperature. */
    struct HotCell
    {
        int layer = 0;
        int x = 0;
        int y = 0;
        double tempC = 0.0;
    };
    HotCell hottest() const;

    std::uint64_t substepsTaken() const { return substepsTaken_; }

  private:
    std::size_t cells() const
    {
        return static_cast<std::size_t>(width_ * height_);
    }

    void substep(const std::vector<std::vector<double>> &power_w,
                 double dt);

    int width_;
    int height_;
    int layers_;
    ThermalParams params_;
    double maxStep_; //!< resolved substep bound, seconds

    std::vector<std::vector<double>> tempC_;
    std::vector<std::vector<double>> scratch_;
    std::uint64_t substepsTaken_ = 0;
};

/** One recorded thermal frame (aligned with a power frame). */
struct ThermalFrame
{
    Cycle start = 0;
    Cycle end = 0;
    /** Temperatures at frame end, Celsius, [layer][y*width+x]. */
    std::vector<std::vector<double>> tempC;
    std::vector<double> layerMaxC;  //!< per layer
    std::vector<double> layerMeanC; //!< per layer
    ThermalGrid::HotCell hottest;
};

/** Drives a ThermalGrid from EnergyProbe frames and retains results. */
class ThermalProbe
{
  public:
    /** Retention cap on frames; the grid keeps stepping past it. */
    static constexpr std::size_t kMaxFrames = std::size_t{1} << 14;

    /**
     * @param shape mesh geometry of the grid.
     * @param params RC constants.
     * @param bank_nodes node of each bank, indexed by bank id (the
     *        hot-bank ranking's cells).
     */
    ThermalProbe(const MeshShape &shape, const ThermalParams &params,
                 const std::vector<NodeId> &bank_nodes);

    /** Advance the grid by @p frame's span under its power. */
    void onPowerFrame(const PowerFrame &frame);

    /** Back to ambient with no frames (warm-up boundary). */
    void reset();

    const ThermalGrid &grid() const { return grid_; }
    const std::vector<ThermalFrame> &frames() const { return frames_; }
    std::uint64_t framesDropped() const { return framesDropped_; }

    /** Hottest cell temperature seen at any frame end so far. */
    double peakC() const { return peakC_; }

    /** One ranked hot bank (by current end-state temperature). */
    struct HotBank
    {
        BankId bank = kInvalidBank;
        int layer = 0;
        int x = 0;
        int y = 0;
        double tempC = 0.0;
    };

    /**
     * The @p count hottest banks by the grid's current temperature,
     * hottest first; ties break toward the lower bank id so the
     * ranking is deterministic.
     */
    std::vector<HotBank> hotBanks(std::size_t count) const;

  private:
    struct BankCell
    {
        BankId bank;
        int layer;
        int x;
        int y;
    };

    ThermalGrid grid_;
    std::vector<BankCell> bankCells_;
    std::vector<ThermalFrame> frames_;
    std::uint64_t framesDropped_ = 0;
    double peakC_;
};

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_THERMAL_HH
