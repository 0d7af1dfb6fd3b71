/**
 * @file
 * The per-node activity table: once per sampling period it reads every
 * cumulative single-writer counter the observers need — per router,
 * its NI and, on the cache layer, its bank — takes the deltas against
 * one set of baselines, and hands the window to its views. Its own view
 * is the spatial heatmap (tools/heatmap_render.py); the streaming
 * energy probe, and through it the thermal grid, are the others.
 *
 * Four heatmap metrics per frame, each a width x height grid per layer:
 *  - flits: flits switched per router during the interval,
 *  - occupancy: input-VC flits buffered per router at frame end,
 *  - tsb: flits buffered in a router's vertical (Up/Down) input ports
 *    at frame end — traffic that crossed, or is about to cross, the
 *    through-silicon bus,
 *  - holds: parent-hold pressure accumulated per bank during the
 *    interval (BankAwarePolicy::holdCyclesOfBank() at the bank's node;
 *    all-zero without the bank-aware policy).
 *
 * Warm-up protocol: during warm-up the table samples to keep its
 * baselines rolling but hands nothing on; onReset rebases every
 * counter, drops every view's frames and re-arms at the reset cycle,
 * so the first measured frame never absorbs warm-up traffic.
 * finalize() closes the partial interval the last period boundary left
 * open, so the frames of every view tile the measured window exactly.
 *
 * The table is a cycle-end observer: it only reads component state
 * after the engine's phase barrier, never mutates it, so determinism
 * digests are identical with it on or off.
 */

#ifndef STACKNOC_SYSTEM_HEATMAP_HH
#define STACKNOC_SYSTEM_HEATMAP_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "telemetry/energy.hh"
#include "telemetry/probe.hh"

namespace stacknoc::mem {
class BankController;
}
namespace stacknoc::noc {
class Network;
}
namespace stacknoc::sttnoc {
class BankAwarePolicy;
class RegionMap;
}
namespace stacknoc::telemetry {
class EnergyProbe;
}

namespace stacknoc::system {

/** Samples per-node activity every @c period cycles into its views. */
class HeatmapCollector : public telemetry::Probe
{
  public:
    /** Retention cap on heatmap frames; sampling goes on past it. */
    static constexpr std::size_t kMaxFrames = std::size_t{1} << 14;

    /** One sampled interval. Grids are row-major, one per layer. */
    struct Frame
    {
        Cycle start = 0; //!< first cycle covered (inclusive)
        Cycle end = 0;   //!< last cycle covered (inclusive)
        /** [layer][y * width + x] */
        std::vector<std::vector<std::uint64_t>> flits;
        std::vector<std::vector<std::uint64_t>> occupancy;
        std::vector<std::vector<std::uint64_t>> tsb;
        std::vector<std::vector<std::uint64_t>> holds;
    };

    /**
     * @param net the network to sample (must outlive the table).
     * @param banks bank controllers indexed by bank id.
     * @param policy bank-aware policy for hold pressure (may be null).
     * @param regions the bank -> node placement.
     * @param period sampling period in cycles (>= 1).
     */
    HeatmapCollector(const noc::Network &net,
                     std::vector<const mem::BankController *> banks,
                     const sttnoc::BankAwarePolicy *policy,
                     const sttnoc::RegionMap &regions, Cycle period);

    /** Feed every sampled window to @p power too (not owned). */
    void setEnergyProbe(telemetry::EnergyProbe *power) { power_ = power; }

    void onCycle(Cycle now) override;
    void onWarmupBegin(Cycle now) override;
    void onReset(Cycle now) override;

    /**
     * Close the open partial interval so every view covers exactly the
     * measured window. @p now is the simulator's current cycle (one
     * past the last executed cycle). Idempotent; sampling stays off
     * until the next reset.
     */
    void finalize(Cycle now);

    Cycle period() const { return period_; }
    const MeshShape &shape() const { return shape_; }
    const std::vector<Frame> &frames() const { return frames_; }
    std::uint64_t framesDropped() const { return framesDropped_; }

    /**
     * Events summed over every window since the last reset: the same
     * quantities the statistics counters count over the measured
     * window, since each plain counter is bumped next to its stat.
     */
    const telemetry::EnergyEvents &windowTotals() const
    {
        return windowTotals_;
    }

    /** Node each bank sits at, indexed by bank id. */
    const std::vector<NodeId> &bankNodes() const { return bankNodes_; }

  private:
    /** Cumulative counters of one node. */
    struct Totals
    {
        telemetry::EnergyEvents events;
        std::uint64_t holdCycles = 0;
    };

    Totals read(NodeId n) const;
    void rebase();
    void sample(Cycle end);

    const noc::Network &net_;
    std::vector<const mem::BankController *> banks_;
    const sttnoc::BankAwarePolicy *policy_;
    MeshShape shape_;
    Cycle period_;
    telemetry::EnergyProbe *power_ = nullptr;

    std::vector<NodeId> bankNodes_;
    std::vector<BankId> bankAt_; //!< per node; kInvalidBank if none

    bool inWarmup_ = false;
    bool finalized_ = false;
    Cycle frameStart_ = 0;
    /** Per-node readings at the last sample: the one delta baseline. */
    std::vector<Totals> base_;
    /** Per-node activity of the last sampled window. */
    std::vector<telemetry::Activity> window_;
    telemetry::EnergyEvents windowTotals_;

    std::vector<Frame> frames_;
    std::uint64_t framesDropped_ = 0;
};

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_HEATMAP_HH
