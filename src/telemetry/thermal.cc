#include "telemetry/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace stacknoc::telemetry {

ThermalGrid::ThermalGrid(int width, int height, int layers,
                         const ThermalParams &params)
    : width_(width), height_(height), layers_(layers), params_(params)
{
    panic_if(width_ < 1 || height_ < 1 || layers_ < 1,
             "bad thermal grid dimensions %dx%dx%d", width_, height_,
             layers_);
    panic_if(params_.cellCapacityJPerK <= 0.0,
             "cell heat capacity must be positive");
    panic_if(params_.lateralWPerK < 0.0 || params_.verticalWPerK < 0.0 ||
                 params_.sinkWPerK < 0.0,
             "conductances must be non-negative");

    // The largest conductance sum a cell can see: four lateral
    // neighbours, up to two vertical neighbours, plus the sink.
    const double g_max = 4.0 * params_.lateralWPerK +
                         2.0 * params_.verticalWPerK +
                         params_.sinkWPerK;
    const double stable = g_max > 0.0
                              ? params_.cellCapacityJPerK / (5.0 * g_max)
                              : 1.0;
    maxStep_ = params_.maxStepSeconds > 0.0
                   ? std::min(params_.maxStepSeconds, stable)
                   : stable;

    tempC_.assign(static_cast<std::size_t>(layers_),
                  std::vector<double>(cells(), params_.ambientC));
    scratch_ = tempC_;
}

void
ThermalGrid::reset()
{
    for (auto &layer : tempC_)
        std::fill(layer.begin(), layer.end(), params_.ambientC);
    substepsTaken_ = 0;
}

void
ThermalGrid::substep(const std::vector<std::vector<double>> &power_w,
                     double dt)
{
    const double g_lat = params_.lateralWPerK;
    const double g_vert = params_.verticalWPerK;
    const double g_sink = params_.sinkWPerK;
    const double inv_c = 1.0 / params_.cellCapacityJPerK;

    for (int l = 0; l < layers_; ++l) {
        const auto li = static_cast<std::size_t>(l);
        for (int y = 0; y < height_; ++y) {
            for (int x = 0; x < width_; ++x) {
                const auto i = static_cast<std::size_t>(y * width_ + x);
                const double t = tempC_[li][i];

                double flow = power_w[li][i] +
                              g_sink * (params_.ambientC - t);
                if (x > 0)
                    flow += g_lat * (tempC_[li][i - 1] - t);
                if (x < width_ - 1)
                    flow += g_lat * (tempC_[li][i + 1] - t);
                if (y > 0)
                    flow += g_lat *
                            (tempC_[li][i - static_cast<std::size_t>(
                                                width_)] -
                             t);
                if (y < height_ - 1)
                    flow += g_lat *
                            (tempC_[li][i + static_cast<std::size_t>(
                                                width_)] -
                             t);
                if (l > 0)
                    flow += g_vert * (tempC_[li - 1][i] - t);
                if (l < layers_ - 1)
                    flow += g_vert * (tempC_[li + 1][i] - t);

                scratch_[li][i] = t + dt * flow * inv_c;
            }
        }
    }
    tempC_.swap(scratch_);
    ++substepsTaken_;
}

void
ThermalGrid::step(const std::vector<std::vector<double>> &power_w,
                  double dt)
{
    panic_if(power_w.size() != tempC_.size(),
             "power grid has %zu layers, thermal grid %zu",
             power_w.size(), tempC_.size());
    for (const auto &grid : power_w) {
        panic_if(grid.size() != cells(),
                 "power grid layer has %zu cells, expected %zu",
                 grid.size(), cells());
    }
    if (dt <= 0.0)
        return;

    const auto n = static_cast<std::uint64_t>(
        std::ceil(dt / maxStep_));
    const double sub = dt / static_cast<double>(n);
    for (std::uint64_t s = 0; s < n; ++s)
        substep(power_w, sub);
}

double
ThermalGrid::cellC(int x, int y, int layer) const
{
    return tempC_.at(static_cast<std::size_t>(layer))
        .at(static_cast<std::size_t>(y * width_ + x));
}

double
ThermalGrid::layerMaxC(int layer) const
{
    const auto &grid = tempC_.at(static_cast<std::size_t>(layer));
    return *std::max_element(grid.begin(), grid.end());
}

double
ThermalGrid::layerMeanC(int layer) const
{
    const auto &grid = tempC_.at(static_cast<std::size_t>(layer));
    double sum = 0.0;
    for (const double t : grid)
        sum += t;
    return sum / static_cast<double>(grid.size());
}

ThermalGrid::HotCell
ThermalGrid::hottest() const
{
    HotCell hot;
    hot.tempC = tempC_[0][0];
    for (int l = 0; l < layers_; ++l) {
        const auto &grid = tempC_[static_cast<std::size_t>(l)];
        for (int y = 0; y < height_; ++y) {
            for (int x = 0; x < width_; ++x) {
                const double t =
                    grid[static_cast<std::size_t>(y * width_ + x)];
                if (t > hot.tempC) {
                    hot.tempC = t;
                    hot.layer = l;
                    hot.x = x;
                    hot.y = y;
                }
            }
        }
    }
    return hot;
}

ThermalProbe::ThermalProbe(const MeshShape &shape,
                           const ThermalParams &params,
                           const std::vector<NodeId> &bank_nodes)
    : grid_(shape.width(), shape.height(), shape.layers(), params),
      peakC_(params.ambientC)
{
    for (std::size_t b = 0; b < bank_nodes.size(); ++b) {
        const Coord c = shape.coord(bank_nodes[b]);
        bankCells_.push_back({static_cast<BankId>(b), c.layer, c.x, c.y});
    }
}

void
ThermalProbe::onPowerFrame(const PowerFrame &frame)
{
    grid_.step(frame.powerW, frame.spanSeconds);

    ThermalFrame f;
    f.start = frame.start;
    f.end = frame.end;
    f.tempC = grid_.temperaturesC();
    for (int l = 0; l < grid_.layers(); ++l) {
        f.layerMaxC.push_back(grid_.layerMaxC(l));
        f.layerMeanC.push_back(grid_.layerMeanC(l));
    }
    f.hottest = grid_.hottest();
    peakC_ = std::max(peakC_, f.hottest.tempC);

    if (frames_.size() >= kMaxFrames) {
        ++framesDropped_;
        return;
    }
    frames_.push_back(std::move(f));
}

void
ThermalProbe::reset()
{
    grid_.reset();
    frames_.clear();
    framesDropped_ = 0;
    peakC_ = grid_.params().ambientC;
}

std::vector<ThermalProbe::HotBank>
ThermalProbe::hotBanks(std::size_t count) const
{
    std::vector<HotBank> ranked;
    ranked.reserve(bankCells_.size());
    for (const BankCell &bc : bankCells_) {
        ranked.push_back({bc.bank, bc.layer, bc.x, bc.y,
                          grid_.cellC(bc.x, bc.y, bc.layer)});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const HotBank &a, const HotBank &b) {
                  if (a.tempC != b.tempC)
                      return a.tempC > b.tempC;
                  return a.bank < b.bank;
              });
    if (ranked.size() > count)
        ranked.resize(count);
    return ranked;
}

} // namespace stacknoc::telemetry
