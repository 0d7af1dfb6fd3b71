#include "telemetry/power.hh"

#include "common/logging.hh"
#include "telemetry/thermal.hh"

namespace stacknoc::telemetry {

EnergyProbe::EnergyProbe(const MeshShape &shape, const EnergyParams &params,
                         ThermalProbe *thermal)
    : shape_(shape), params_(params), thermal_(thermal)
{
    panic_if(params_.clockGHz <= 0.0, "clockGHz must be positive");
}

void
EnergyProbe::onSample(Cycle start, Cycle end,
                      const std::vector<Activity> &cells)
{
    panic_if(cells.size() != static_cast<std::size_t>(shape_.totalNodes()),
             "activity window has %zu cells, the grid %d", cells.size(),
             shape_.totalNodes());
    const auto per = static_cast<std::size_t>(shape_.nodesPerLayer());
    const Cycle cycles = end - start + 1;

    PowerFrame f;
    f.start = start;
    f.end = end;
    f.spanSeconds = params_.seconds(cycles);
    f.powerW.assign(static_cast<std::size_t>(shape_.layers()),
                    std::vector<double>(per, 0.0));
    for (std::size_t n = 0; n < cells.size(); ++n) {
        double joules = 0.0;
        f.energy += energyOf(cells[n], cycles, params_, &joules);
        f.powerW[n / per][n % per] = joules / f.spanSeconds;
    }

    totals_ += f.energy;
    if (thermal_ != nullptr)
        thermal_->onPowerFrame(f);
    if (frames_.size() >= kMaxFrames) {
        ++framesDropped_;
        return;
    }
    frames_.push_back(std::move(f));
}

void
EnergyProbe::reset()
{
    frames_.clear();
    framesDropped_ = 0;
    totals_ = EnergyBreakdown{};
    if (thermal_ != nullptr)
        thermal_->reset();
}

} // namespace stacknoc::telemetry
