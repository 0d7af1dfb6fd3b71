/**
 * @file
 * The concrete runtime invariant checkers:
 *
 *  - PacketConservationChecker: every injected packet is either ejected
 *    or accounted for by the fabric census (router buffers, link
 *    channels, NI injection VCs and NI ejection buffers); no flit is
 *    duplicated or dropped; the network keeps making progress.
 *  - CreditConservationChecker: on every link and VC, sender credits +
 *    flits in flight + downstream buffer occupancy + credits in flight
 *    exactly equals the VC depth (which implies non-negativity and
 *    bounded buffers).
 *  - ParentHoldChecker: the STT-RAM-aware busy windows obey the
 *    paper's bound (path delay + congestion estimate + write service)
 *    and held packets are well-formed and released within the
 *    starvation cap.
 *  - BankAccountingChecker: each L2 bank's admission busy-counters
 *    agree with a census of its TBEs, blocked queues and
 *    committed-but-undelivered packets at its network interface.
 *  - MesiChecker: across all L1 tag arrays, every block has at most
 *    one owner (M/E) and owners exclude sharers (S/SM).
 *
 * The first three read the hub's FabricCensus (validate/census.hh)
 * instead of walking the fabric themselves. All checkers observe
 * through const accessors only; the MESI checker additionally drains
 * the L1s' tag-change logs, which no simulated behaviour reads.
 */

#ifndef STACKNOC_VALIDATE_INVARIANTS_HH
#define STACKNOC_VALIDATE_INVARIANTS_HH

#include <cstdint>
#include <vector>

#include "noc/network.hh"
#include "sttnoc/bank_aware_policy.hh"
#include "coherence/l1_cache.hh"
#include "coherence/l2_bank.hh"
#include "validate/census.hh"
#include "validate/checker.hh"

namespace stacknoc::validate {

/**
 * Read-only handles on the pieces of a system that checkers inspect.
 * Optional members (null / empty) suppress the checkers needing them,
 * so partial systems (unit-test fixtures) validate what they have.
 */
struct SystemView
{
    const noc::Network *net = nullptr;
    /** Non-const only so the MESI checker can enable and drain their
     *  tag-change logs. */
    std::vector<coherence::L1Cache *> l1s;
    std::vector<const coherence::L2Bank *> banks;
    const sttnoc::BankAwarePolicy *policy = nullptr;
    const sttnoc::RegionMap *regions = nullptr;
    const sttnoc::ParentMap *parents = nullptr;
    int bankRequestCap = 8;
    int bankWriteCap = 32;
};

/** Register every checker the view supports on @p hub. */
void addStandardCheckers(ValidationHub &hub, const SystemView &view,
                         const ValidationConfig &config);

/** Packet conservation, duplication/drop detection, and progress. */
class PacketConservationChecker : public Checker
{
  public:
    PacketConservationChecker(const FabricCensus &census,
                              const noc::Network &net,
                              Cycle stall_threshold);

    const char *name() const override { return "packet-conservation"; }
    void check(Cycle now, std::vector<Violation> &out) override;
    void onReset(Cycle now) override;

  private:
    const FabricCensus &census_;
    Cycle stallThreshold_;

    /** Network counters, resolved once (null when absent). */
    const stats::Counter *injected_;
    const stats::Counter *ejected_;
    const stats::Counter *dropped_;
    const stats::Counter *switched_;

    /** in-flight census minus (injected - ejected) at baseline time. */
    std::int64_t baseline_ = 0;
    bool baselined_ = false;

    std::uint64_t lastInjected_ = 0;
    std::uint64_t lastEjected_ = 0;
    std::uint64_t lastSwitched_ = 0;
    Cycle lastProgressAt_ = 0;
    bool progressArmed_ = false;
};

/** Per-link, per-VC credit/buffer conservation. */
class CreditConservationChecker : public Checker
{
  public:
    CreditConservationChecker(const FabricCensus &census,
                              const noc::Network &net);

    const char *name() const override { return "credit-conservation"; }
    void check(Cycle now, std::vector<Violation> &out) override;

  private:
    const FabricCensus &census_;
    int depth_; //!< VC depth: every identity's total
};

/** STT-RAM-aware busy-window and held-packet soundness. */
class ParentHoldChecker : public Checker
{
  public:
    ParentHoldChecker(const FabricCensus &census,
                      const sttnoc::BankAwarePolicy &policy,
                      const sttnoc::RegionMap &regions,
                      const sttnoc::ParentMap &parents, Cycle hold_slack);

    const char *name() const override { return "parent-hold"; }
    void check(Cycle now, std::vector<Violation> &out) override;

  private:
    const FabricCensus &census_;
    const sttnoc::BankAwarePolicy &policy_;
    const sttnoc::RegionMap &regions_;
    const sttnoc::ParentMap &parents_;
    Cycle holdSlack_;
};

/** L2 admission busy-counters against a transaction census. */
class BankAccountingChecker : public Checker
{
  public:
    BankAccountingChecker(const noc::Network &net,
                          std::vector<const coherence::L2Bank *> banks,
                          const sttnoc::RegionMap &regions,
                          int request_cap, int write_cap);

    const char *name() const override { return "bank-accounting"; }
    void check(Cycle now, std::vector<Violation> &out) override;

  private:
    const noc::Network &net_;
    std::vector<const coherence::L2Bank *> banks_;
    const sttnoc::RegionMap &regions_;
    int requestCap_;
    int writeCap_;
};

/** One valid L1 tag entry of a block, as the MESI checker sees it. */
struct MesiHolding
{
    BlockAddr addr = 0;
    CoreId core = 0;
    std::uint8_t state = 0; //!< raw coherence::L1State byte
};

/**
 * MESI state-pair legality across all L1 tag arrays.
 *
 * A sweep checks only the blocks some L1 logged a tag change for since
 * the previous sweep, plus the blocks still in violation, so a
 * persistent violation is re-reported every sweep until it is fixed.
 * The full tag census runs instead at attach and after a stats reset,
 * every kCensusPeriod sweeps as a backstop, and whenever an L1's log
 * overflowed. Both paths report blocks in address order, so they
 * produce identical violation lists.
 */
class MesiChecker : public Checker
{
  public:
    /** Sweeps between backstop census runs. */
    static constexpr std::uint64_t kCensusPeriod = 1024;

    /** Enables the tag-change log of every L1 in @p l1s. */
    explicit MesiChecker(std::vector<coherence::L1Cache *> l1s);

    const char *name() const override { return "mesi-legality"; }
    void check(Cycle now, std::vector<Violation> &out) override;
    void onReset(Cycle now) override;

    /** The full census over @p l1s: the backstop and the test oracle. */
    static void census(const std::vector<const coherence::L1Cache *> &l1s,
                       Cycle now, std::vector<Violation> &out);

  private:
    std::vector<coherence::L1Cache *> l1s_;
    std::uint64_t sweeps_ = 0;           //!< since attach or reset
    std::vector<BlockAddr> blocks_;      //!< scratch: blocks to check
    std::vector<MesiHolding> holdings_;  //!< scratch: their entries
    std::vector<BlockAddr> violating_;   //!< sorted, from the last sweep
};

} // namespace stacknoc::validate

#endif // STACKNOC_VALIDATE_INVARIANTS_HH
