#include "system/heatmap.hh"

#include "common/logging.hh"
#include "mem/bank_controller.hh"
#include "noc/network.hh"
#include "sttnoc/bank_aware_policy.hh"
#include "sttnoc/region_map.hh"
#include "telemetry/power.hh"

namespace stacknoc::system {

HeatmapCollector::HeatmapCollector(
    const noc::Network &net, std::vector<const mem::BankController *> banks,
    const sttnoc::BankAwarePolicy *policy, const sttnoc::RegionMap &regions,
    Cycle period)
    : net_(net), banks_(std::move(banks)), policy_(policy),
      shape_(net.shape()), period_(period)
{
    panic_if(period_ < 1, "heatmap period must be >= 1");
    const auto nodes = static_cast<std::size_t>(shape_.totalNodes());
    bankAt_.assign(nodes, kInvalidBank);
    for (BankId b = 0; b < static_cast<BankId>(banks_.size()); ++b) {
        bankNodes_.push_back(regions.nodeOfBank(b));
        bankAt_[static_cast<std::size_t>(bankNodes_.back())] = b;
    }
    window_.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
        window_[n].routers = 1;
        window_[n].banks = bankAt_[n] != kInvalidBank ? 1 : 0;
    }
    base_.resize(nodes);
    rebase();
}

HeatmapCollector::Totals
HeatmapCollector::read(NodeId n) const
{
    Totals t;
    const noc::Router &r = net_.router(n);
    t.events.flitsBuffered = r.flitsBufferedTotal();
    t.events.flitsSwitched = r.flitsSwitchedTotal();
    t.events.flitsRetransmitted = net_.ni(n).flitsRetransmittedTotal();
    const BankId b = bankAt_[static_cast<std::size_t>(n)];
    if (b != kInvalidBank) {
        const mem::BankController &ctrl =
            *banks_[static_cast<std::size_t>(b)];
        t.events.bankReads = ctrl.bank().readsTotal();
        t.events.bankWrites = ctrl.bank().writesTotal();
        t.events.retryRounds = ctrl.retryRoundsTotal();
        if (policy_ != nullptr)
            t.holdCycles = policy_->holdCyclesOfBank(b);
    }
    return t;
}

void
HeatmapCollector::rebase()
{
    for (NodeId n = 0; n < shape_.totalNodes(); ++n)
        base_[static_cast<std::size_t>(n)] = read(n);
}

void
HeatmapCollector::sample(Cycle end)
{
    const auto per = static_cast<std::size_t>(shape_.nodesPerLayer());

    Frame f;
    f.start = frameStart_;
    f.end = end;
    f.flits.assign(static_cast<std::size_t>(shape_.layers()),
                   std::vector<std::uint64_t>(per, 0));
    f.occupancy = f.flits;
    f.tsb = f.flits;
    f.holds = f.flits;

    for (NodeId n = 0; n < shape_.totalNodes(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        const std::size_t layer = i / per;
        const std::size_t cell = i % per;
        const Totals now = read(n);
        window_[i].events = now.events.since(base_[i].events);
        f.flits[layer][cell] = window_[i].events.flitsSwitched;
        f.holds[layer][cell] = now.holdCycles - base_[i].holdCycles;
        base_[i] = now;

        const noc::Router &r = net_.router(n);
        f.occupancy[layer][cell] =
            static_cast<std::uint64_t>(r.bufferedFlits());
        f.tsb[layer][cell] = static_cast<std::uint64_t>(
            r.bufferedFlits(noc::Dir::Up) +
            r.bufferedFlits(noc::Dir::Down));
    }
    frameStart_ = end + 1;

    // Warm-up samples only keep the baselines rolling.
    if (inWarmup_)
        return;
    for (const telemetry::Activity &a : window_)
        windowTotals_ += a.events;
    if (power_ != nullptr)
        power_->onSample(f.start, f.end, window_);
    if (frames_.size() >= kMaxFrames) {
        ++framesDropped_;
        return;
    }
    frames_.push_back(std::move(f));
}

void
HeatmapCollector::onCycle(Cycle now)
{
    if (finalized_ || now - frameStart_ + 1 < period_)
        return;
    sample(now);
}

void
HeatmapCollector::onWarmupBegin(Cycle now)
{
    (void)now;
    inWarmup_ = true;
}

void
HeatmapCollector::onReset(Cycle now)
{
    inWarmup_ = false;
    finalized_ = false;
    frames_.clear();
    framesDropped_ = 0;
    windowTotals_ = {};
    frameStart_ = now;
    rebase();
    if (power_ != nullptr)
        power_->reset();
}

void
HeatmapCollector::finalize(Cycle now)
{
    if (finalized_ || inWarmup_)
        return;
    finalized_ = true;
    if (now > frameStart_)
        sample(now - 1);
}

} // namespace stacknoc::system
