/**
 * @file
 * The STT-RAM bank-aware arbitration policy — the paper's contribution.
 *
 * At each bank's parent router, writes destined to a child bank whose
 * busy window (opened by an earlier forwarded write) is still running
 * are delayed: in the default Priority mode they lose every VC and
 * switch arbitration against requests to idle banks, reads, coherence
 * and responses; in the ablation Hold mode they are blocked outright in
 * their input VCs (bounded by a starvation cap), optionally also while
 * the congestion estimator reports the child's path backed up.
 */

#ifndef STACKNOC_STTNOC_BANK_AWARE_POLICY_HH
#define STACKNOC_STTNOC_BANK_AWARE_POLICY_HH

#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "noc/network_interface.hh"
#include "noc/policy.hh"
#include "sttnoc/estimator.hh"
#include "sttnoc/parent_map.hh"
#include "sttnoc/region_map.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::sttnoc {

/**
 * Implements noc::ArbitrationPolicy (consulted by every router) and
 * noc::ProbeSink (receives WB probe echoes at parent-node NIs).
 */
class BankAwarePolicy : public noc::ArbitrationPolicy,
                        public noc::ProbeSink
{
  public:
    /**
     * @param regions region partition (must outlive the policy).
     * @param parents parent map (must outlive the policy).
     * @param params scheme parameters.
     * @param estimator congestion estimator (ownership transferred).
     */
    BankAwarePolicy(const RegionMap &regions, const ParentMap &parents,
                    const SttAwareParams &params,
                    std::unique_ptr<CongestionEstimator> estimator);

    /**
     * Replace the congestion estimator. Exists because the RCA fabric
     * can only be built after the network, which needs the policy first;
     * must be called before simulation starts.
     */
    void
    setEstimator(std::unique_ptr<CongestionEstimator> estimator)
    {
        estimator_ = std::move(estimator);
    }

    bool eligible(NodeId router, noc::Packet &pkt, Cycle now) override;
    int priorityClass(NodeId router, const noc::Packet &pkt,
                      Cycle now) override;
    void onForward(NodeId router, noc::Packet &pkt, Cycle now) override;
    void onProbeAck(const noc::Packet &pkt, Cycle now) override;
    void onBusyNack(const noc::Packet &pkt, Cycle now) override;

    /**
     * Enable the hold-miss recovery path: BusyNacks re-open busy
     * windows and feed a per-bank adaptive hold margin (EWMA of the
     * observed overshoot, alpha = 1/8) added to every new prediction.
     * @param margin_cap clamp on both the margin and the per-NACK
     * window extension; also the slack the parent-hold invariant
     * grants (horizonSlack()).
     */
    void configureFaultRecovery(Cycle margin_cap);

    /** @return cycle until which @p bank is predicted busy. */
    Cycle busyUntil(BankId bank) const;

    /** Contention-free parent->bank delivery delay (validation). */
    Cycle
    pathDelay(BankId bank) const
    {
        return pathDelay_.at(static_cast<std::size_t>(bank));
    }

    /** Adaptive hold margin learned for @p bank (0 without faults). */
    Cycle
    holdMargin(BankId bank) const
    {
        return holdMargin_.at(static_cast<std::size_t>(bank));
    }

    /**
     * Cycles a busy horizon may exceed the paper's Section 3.5 bound:
     * the hold-miss recovery contract the parent-hold invariant checks.
     * Zero when fault recovery is not configured (the exact bound).
     */
    Cycle horizonSlack() const { return marginCap_; }

    /** @return the congestion estimator, for observer-only peeks. */
    const CongestionEstimator *estimator() const { return estimator_.get(); }

    /** @return the policy's own statistics (holds, hold cycles, ...). */
    stats::Group &stats() { return stats_; }
    const stats::Group &stats() const { return stats_; }

    /**
     * Per-bank parent-hold pressure for spatial exporters: Hold-mode
     * holds add their real duration on release; Priority-mode
     * deferrals (a write losing arbitration inside a busy window) add
     * one each. Written only from the bank's parent router's tick
     * (each bank has exactly one parent), read from cycle-end probes
     * after the phase barrier.
     */
    std::uint64_t
    holdCyclesOfBank(BankId bank) const
    {
        return holdCyclesByBank_.at(static_cast<std::size_t>(bank));
    }

    const SttAwareParams &params() const { return params_; }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    /** @return bank id if @p pkt is a reorderable request to a child of
     *  @p router, else kInvalidBank. */
    BankId managedBank(NodeId router, const noc::Packet &pkt) const;

    /** @return whether @p pkt may be held at its parent. */
    static bool holdable(const noc::Packet &pkt);

    int nodes() const { return regions_.shape().totalNodes(); }

    const RegionMap &regions_;
    const ParentMap &parents_;
    SttAwareParams params_;
    std::unique_ptr<CongestionEstimator> estimator_;
    std::vector<Cycle> busyUntil_;
    /** Contention-free parent->bank delivery delay, per bank. */
    std::vector<Cycle> pathDelay_;
    /** Per-bank adaptive hold margin; written only from the bank's
     *  parent node (its NI receives the NACKs), read from the parent
     *  router — co-sharded, so deterministic under --threads. */
    std::vector<Cycle> holdMargin_;
    Cycle marginCap_ = 0; //!< 0 = hold-miss recovery disabled
    /** See holdCyclesOfBank(). */
    std::vector<std::uint64_t> holdCyclesByBank_;

    stats::Group stats_;
    // Per node: routers write with their own NodeId, and a bank's NACKs
    // are counted at its parent node.
    stats::PerSite<stats::Counter> holdsStarted_;
    stats::PerSite<stats::Counter> holdCapReleases_;
    stats::PerSite<stats::Counter> busyMarks_;
    stats::PerSite<stats::Counter> busyNacks_;
    stats::PerSite<stats::Counter> nackReopens_;
    stats::PerSite<stats::Average> busyDuration_;
    stats::PerSite<stats::Histogram> holdDurationHist_;
};

} // namespace stacknoc::sttnoc

#endif // STACKNOC_STTNOC_BANK_AWARE_POLICY_HH
