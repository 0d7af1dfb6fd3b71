#include "sttnoc/bank_aware_policy.hh"

#include <algorithm>

#include "telemetry/trace.hh"

namespace stacknoc::sttnoc {

BankAwarePolicy::BankAwarePolicy(
    const RegionMap &regions, const ParentMap &parents,
    const SttAwareParams &params,
    std::unique_ptr<CongestionEstimator> estimator)
    : regions_(regions), parents_(parents), params_(params),
      estimator_(std::move(estimator)),
      busyUntil_(static_cast<std::size_t>(regions.numBanks()), 0),
      pathDelay_(static_cast<std::size_t>(regions.numBanks()), 0),
      holdMargin_(static_cast<std::size_t>(regions.numBanks()), 0),
      holdCyclesByBank_(static_cast<std::size_t>(regions.numBanks()), 0),
      stats_("sttnoc"),
      holdsStarted_(stats_, "holds_started", nodes()),
      holdCapReleases_(stats_, "hold_cap_releases", nodes()),
      busyMarks_(stats_, "busy_marks", nodes()),
      busyNacks_(stats_, "busy_nacks", nodes()),
      nackReopens_(stats_, "nack_window_reopens", nodes()),
      busyDuration_(stats_, "busy_duration", nodes()),
      holdDurationHist_(stats_, "parent_hold_duration_hist", nodes())
{
    for (BankId b = 0; b < regions_.numBanks(); ++b) {
        const int dist = regions_.shape().hopDistance(
            parents_.parentOf(b), regions_.nodeOfBank(b));
        // Switch-to-service delay: 3 cycles per hop plus 2 ejection
        // cycles at the bank's NI (the paper's "4 cycles" for its
        // 2-cycle-router pipeline).
        pathDelay_[static_cast<std::size_t>(b)] =
            static_cast<Cycle>(3 * dist + 2);
    }
}

BankId
BankAwarePolicy::managedBank(NodeId router, const noc::Packet &pkt) const
{
    if (!noc::isRestrictedRequest(pkt.cls) || pkt.destBank == kInvalidBank)
        return kInvalidBank;
    if (parents_.parentOf(pkt.destBank) != router)
        return kInvalidBank;
    return pkt.destBank;
}

bool
BankAwarePolicy::holdable(const noc::Packet &pkt)
{
    // Only write-class requests are re-ordered — the "delayed writes"
    // of the paper's abstract. Store writes are fire-and-forget (no
    // L1 resource is held while they travel), so parking them in
    // router VCs costs the core nothing, while the freed bank and
    // switch slots accelerate the loads that do block commit. Loads
    // (GetS) are never held: they would merely trade bank queueing for
    // network queueing plus prediction error.
    return pkt.cls == noc::PacketClass::StoreWrite ||
           pkt.cls == noc::PacketClass::WritebackReq;
}

bool
BankAwarePolicy::eligible(NodeId router, noc::Packet &pkt, Cycle now)
{
    // Within a bank's write window packets are merely de-prioritised
    // (priorityClass), never blocked: an unconditional hold would
    // serialise store bursts and strangle the write lanes. A real hold
    // engages only when the estimator reports the child's path backed
    // up — then forwarding would wedge the child's links for every
    // passing flow, while parking at the parent confines the jam to
    // one VC. This is exactly where SS (no congestion estimate) falls
    // short of RCA/WB, as in the paper.
    if (params_.delayMode != DelayMode::Hold)
        return true;
    const BankId bank = managedBank(router, pkt);
    if (bank == kInvalidBank || !holdable(pkt) || !estimator_)
        return true;
    // Hold-mode ablation: block while (a) the child is inside the busy
    // window of an earlier write or (b) the estimator reports the
    // child's path backed up. Held packets are all on the write virtual
    // network, so loads, responses and coherence traffic flow past.
    const Cycle arrival = now + pathDelay_[static_cast<std::size_t>(bank)];
    const bool in_window =
        arrival < busyUntil_[static_cast<std::size_t>(bank)];
    const bool congested = estimator_->estimate(bank, now) >
                           params_.congestionHoldThreshold;
    if (!in_window && !congested)
        return true;
    if (pkt.firstHeldAt == kCycleNever) {
        pkt.firstHeldAt = now;
        if (auto *t = telemetry::tracer(); t && t->tracked(pkt.id)) {
            t->record(telemetry::TraceEvent::HoldStart, pkt.id,
                      static_cast<std::uint8_t>(pkt.cls), router, now,
                      static_cast<std::int64_t>(bank));
        }
    }
    if (now - pkt.firstHeldAt >= params_.holdCap) {
        holdCapReleases_[router].inc();
        return true; // starvation guard
    }
    return false;
}

int
BankAwarePolicy::priorityClass(NodeId router, const noc::Packet &pkt,
                               Cycle now)
{
    // Section 3.2: coherence traffic, responses and memory-controller
    // packets are prioritised over cache requests.
    const int vn = noc::vnetOf(pkt.cls);
    if (vn == noc::kVnetResp || vn == noc::kVnetCoh)
        return 0;
    const BankId bank = managedBank(router, pkt);
    if (bank == kInvalidBank || !holdable(pkt))
        return 1;
    const Cycle arrival = now + pathDelay_[static_cast<std::size_t>(bank)];
    if (arrival >= busyUntil_[static_cast<std::size_t>(bank)])
        return 1;
    // A write toward a child predicted busy with an earlier write:
    // yield to idle-bank requests, reads, coherence and responses.
    holdsStarted_[router].inc();
    ++holdCyclesByBank_[static_cast<std::size_t>(bank)];
    return 2;
}

void
BankAwarePolicy::onForward(NodeId router, noc::Packet &pkt, Cycle now)
{
    const BankId bank = managedBank(router, pkt);
    if (bank == kInvalidBank)
        return;
    if (pkt.firstHeldAt != kCycleNever) {
        holdDurationHist_[router].sample(now - pkt.firstHeldAt);
        holdCyclesByBank_[static_cast<std::size_t>(bank)] +=
            static_cast<std::uint64_t>(now - pkt.firstHeldAt);
        if (auto *t = telemetry::tracer(); t && t->tracked(pkt.id)) {
            t->record(telemetry::TraceEvent::HoldEnd, pkt.id,
                      static_cast<std::uint8_t>(pkt.cls), router, now,
                      static_cast<std::int64_t>(now - pkt.firstHeldAt));
        }
    }
    if (!estimator_)
        return;
    estimator_->onForward(bank, pkt, router, now);
    if (noc::isLongBankWrite(pkt.cls)) {
        // Section 3.5: following a forwarded write, the bank is
        // predicted busy for path delay + estimated congestion + the
        // 33-cycle write service. Each new write restarts the window
        // (the paper's counters are reloaded, not accumulated — an
        // earlier accumulate-to-horizon variant over-held badly).
        auto &horizon = busyUntil_[static_cast<std::size_t>(bank)];
        horizon = now + pathDelay_[static_cast<std::size_t>(bank)] +
                  estimator_->estimate(bank, now) +
                  params_.writeServiceCycles +
                  holdMargin_[static_cast<std::size_t>(bank)];
        busyMarks_[router].inc();
        busyDuration_[router].sample(horizon - now);
    }
}

void
BankAwarePolicy::onProbeAck(const noc::Packet &pkt, Cycle now)
{
    if (estimator_)
        estimator_->onProbeAck(pkt, now);
}

void
BankAwarePolicy::configureFaultRecovery(Cycle margin_cap)
{
    marginCap_ = margin_cap;
}

void
BankAwarePolicy::onBusyNack(const noc::Packet &pkt, Cycle now)
{
    if (marginCap_ == 0)
        return; // recovery path not configured
    const BankId bank = static_cast<BankId>(pkt.info.origin);
    if (bank < 0 || bank >= regions_.numBanks())
        return;
    const NodeId parent = parents_.parentOf(bank);
    busyNacks_[parent].inc();

    // The bank reports it stays busy for another aux cycles (one
    // write-verify-retry round, clamped to the recovery contract).
    const Cycle remaining =
        std::min<Cycle>(static_cast<Cycle>(pkt.info.aux), marginCap_);
    auto &horizon = busyUntil_[static_cast<std::size_t>(bank)];
    if (now + remaining > horizon) {
        horizon = now + remaining;
        nackReopens_[parent].inc();
    }

    // Adaptive hold margin: EWMA (alpha = 1/8) of the overshoot each
    // NACK reveals, clamped so predictions stay within the relaxed
    // parent-hold invariant. Written only here — at the parent node's
    // NI — and read at the parent router: co-sharded, deterministic.
    auto &margin = holdMargin_[static_cast<std::size_t>(bank)];
    const std::int64_t delta = static_cast<std::int64_t>(remaining) -
                               static_cast<std::int64_t>(margin);
    margin = static_cast<Cycle>(static_cast<std::int64_t>(margin) +
                                delta / 8);
    if (margin > marginCap_)
        margin = marginCap_;
}

Cycle
BankAwarePolicy::busyUntil(BankId bank) const
{
    return busyUntil_.at(static_cast<std::size_t>(bank));
}

} // namespace stacknoc::sttnoc
