/**
 * @file
 * One shared L2 bank: the timed STT-RAM/SRAM data array behind a
 * blocking MESI home directory, plus the memory-side interface.
 *
 * The directory serialises transactions per block (requests to a busy
 * block queue in the transaction's TBE) which keeps the protocol free of
 * unbounded races; the only cross-message subtlety — a PutM racing a
 * Recall — is resolved by intercepting the PutM as the recall payload.
 */

#ifndef STACKNOC_COHERENCE_L2_BANK_HH
#define STACKNOC_COHERENCE_L2_BANK_HH

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/tag_array.hh"
#include "common/rng.hh"
#include "sim/stats.hh"
#include "sim/ticking.hh"
#include "mem/bank_controller.hh"
#include "noc/network_interface.hh"
#include "coherence/messages.hh"

namespace stacknoc::fault {
class FaultInjector;
} // namespace stacknoc::fault

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::coherence {

/** L2 bank configuration. */
struct L2Config
{
    mem::CacheTech tech = mem::CacheTech::SttRam;
    mem::BankControllerConfig bankCtrl{};

    /**
     * Real-tags mode keeps an actual tag array (4 MB STT-RAM: 2048 sets
     * x 16 ways; 1 MB SRAM: 512 x 16). Annotated mode — the default for
     * the paper's trace-driven experiments — takes the hit/miss outcome
     * from the request's kFlagL2Hit hint.
     */
    bool realTags = false;
    int sets = 2048;
    int ways = 16;

    /** Annotated mode: probability a fill evicts a dirty L2 victim. */
    double victimDirtyProb = 0.3;

    /** Memory controllers (corner nodes of the cache layer). */
    std::vector<NodeId> mcNodes{64, 71, 120, 127};

    /** Seed for the victim-dirty draw (mixed with the bank id). */
    std::uint64_t seed = 1;

    /**
     * Admission bound on outstanding GetS/GetM at this bank (Table 1:
     * 32 MSHRs per L2 bank, shared here between demand classes). When
     * reached, the NI holds further requests and the congestion spills
     * into the network — the paper's motivating behaviour. Writebacks
     * are always admitted (they ride their own virtual network and are
     * the recall payloads the directory may be waiting for).
     */
    int requestCap = 8;

    /**
     * Admission bound on outstanding StoreWrite/PutM at this bank.
     * Beyond it the NI refuses write packets and the burst backs up
     * into the network — the congestion tree around a write-busy bank
     * that motivates the paper's re-ordering. Progress safety: write
     * transactions only ever wait on COH/RESP/MEM messages, never on
     * another write (see the RecallAck handling), so refusing writes
     * cannot deadlock the protocol.
     */
    int writeCap = 32;

    /**
     * Fault injector driving STT-RAM write-verify-retry at this bank
     * (null = writes always succeed). Shared, not owned.
     */
    fault::FaultInjector *faultInjector = nullptr;
};

/** Directory state of one block. */
struct DirEntry
{
    enum class State : std::uint8_t { S, E, M };
    State state = State::S;
    std::uint64_t sharers = 0; //!< bit per core (S state)
    CoreId owner = -1;         //!< valid in E/M
};

/**
 * The L2 bank protocol agent. Must be ticked every cycle (drives the
 * bank controller and delayed completions).
 */
class L2Bank final : public Ticking, public noc::NetworkClient
{
  public:
    /**
     * @param bname component name.
     * @param bank bank id.
     * @param node hosting cache-layer node.
     * @param out packet injection port.
     * @param config bank configuration.
     * @param group statistics group shared by all banks.
     */
    L2Bank(std::string bname, BankId bank, NodeId node,
           noc::PacketSender &out, const L2Config &config,
           stats::Group &group);

    bool tryAccept(const noc::Packet &pkt) override;
    void deliver(noc::PacketPtr pkt, Cycle now) override;
    void tick(Cycle now) override;

    /**
     * Idle iff no TBE is live, the bank controller has drained, and no
     * BusyNack is owed for a completed retry episode. deliver() wakes
     * the bank; tryAccept() only moves admission counters, which tick()
     * never reads, so it needs no wake.
     */
    bool quiescent(Cycle now) const override;

    TickKind tickKind() const override { return TickKind::L2Bank; }

    /**
     * Parent router node of this bank. When set (STT-RAM-aware schemes
     * with fault injection), each failed write-verify round sends one
     * BusyNack there so the parent re-opens the bank's busy window and
     * adapts its hold margin.
     */
    void setParentNode(NodeId parent) { parentNode_ = parent; }

    /** @return true when no transaction or bank work is in flight. */
    bool idle(Cycle now) const;

    /** Outstanding admitted GetS/GetM (for tests). */
    int admittedRequests() const { return admittedRequests_; }

    /** Outstanding admitted StoreWrite/PutM (for tests/validation). */
    int admittedWrites() const { return admittedWrites_; }

    /**
     * Count the transactions currently charged against the admission
     * counters: active TBEs plus requests parked in TBE blocked queues,
     * split by demand class. Validation cross-checks this census against
     * admittedRequests()/admittedWrites().
     */
    void countAdmitted(int &requests, int &writes) const;

    /**
     * Fault injection for validation tests ONLY: skew the admission
     * busy-counters without touching any transaction state, emulating a
     * lost decrement. The invariant checkers must catch the mismatch.
     */
    void corruptAdmissionCountersForTest(int request_delta,
                                         int write_delta)
    {
        admittedRequests_ += request_delta;
        admittedWrites_ += write_delta;
    }

    /** @return directory entry for @p addr, or nullptr (state I). */
    const DirEntry *dirEntry(BlockAddr addr) const;

    /** Number of transactions currently blocking. */
    std::size_t tbeCount() const { return tbes_.size(); }

    const mem::BankController &bankController() const { return ctrl_; }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    enum class Phase {
        BankAccess,  //!< waiting for the data array
        WaitMem,     //!< fill outstanding at a memory controller
        WaitInvAcks, //!< invalidations outstanding at sharers
        WaitRecall,  //!< recall outstanding at the owner
        WaitUnblock, //!< grant in flight; requester has not installed it
    };

    struct Tbe
    {
        CohKind kind;        //!< GetS / GetM / PutM
        CoreId requester = -1;
        bool l2Hit = true;
        bool upgrade = false; //!< GetM from a current sharer
        Phase phase = Phase::BankAccess;
        int pendingAcks = 0;
        CoreId recallOwner = -1;
        Grant grant = Grant::S;
        std::deque<noc::PacketPtr> blocked;
        /** Telemetry only: originating packet and arrival time. */
        std::uint64_t pktId = mem::kNoTracePkt;
        std::uint8_t pktCls = 0;
        Cycle arrivedAt = 0;
    };

    void handleRequest(noc::PacketPtr pkt, Cycle now);
    void startTransaction(noc::PacketPtr pkt, Cycle now);
    void startGetS(Tbe &tbe, BlockAddr addr, Cycle now);
    void startGetM(Tbe &tbe, BlockAddr addr, Cycle now);
    void startWriteL2(Tbe &tbe, BlockAddr addr, Cycle now);
    void startPutM(Tbe &tbe, BlockAddr addr, Cycle now);

    /** Serve from the L2 array or memory; on data, respond with grant. */
    void serveFromL2(BlockAddr addr, Cycle now);
    void handleMemResp(noc::PacketPtr pkt, Cycle now);
    void handleInvAck(noc::PacketPtr pkt, Cycle now);
    void handleRecallPayload(BlockAddr addr, bool dirty, Cycle now);
    void afterInvAcks(BlockAddr addr, Cycle now);

    /** Complete the transaction: respond, update directory, unblock. */
    void respondAndFinish(BlockAddr addr, Cycle now);
    void finish(BlockAddr addr, Cycle now);

    bool isL2Hit(const noc::Packet &pkt);
    void sendToCore(CoreId core, noc::PacketClass cls, CohKind kind,
                    BlockAddr addr, Cycle now, std::uint16_t aux = 0,
                    std::uint8_t flags = 0);
    /** Queue a bank read or write; it completes in respondAndFinish. */
    void bankAccess(bool is_write, BlockAddr addr, Cycle now);
    NodeId mcFor(BlockAddr addr) const;

    BankId bank_;
    NodeId node_;
    noc::PacketSender &out_;
    L2Config config_;
    mem::BankController ctrl_;
    Rng rng_;

    int admittedRequests_ = 0;
    int admittedWrites_ = 0;
    NodeId parentNode_ = kInvalidNode;
    std::uint64_t lastNackedEpisode_ = 0;
    std::unordered_map<BlockAddr, DirEntry> dir_;
    std::unordered_map<BlockAddr, Tbe> tbes_;
    std::unique_ptr<cache::TagArray> tags_; //!< realTags mode only

    stats::Counter &getS_;
    stats::Counter &getM_;
    stats::Counter &putM_;
    stats::Counter &storeWrites_;
    stats::Counter &l2Misses_;
    stats::Counter &stalePutM_;
    stats::Counter &invsSent_;
    stats::Counter &recallsSent_;
    stats::Counter &blockedRequests_;
    stats::Counter &admissionRefusals_;
    stats::Histogram &residencyHist_;
};

} // namespace stacknoc::coherence

#endif // STACKNOC_COHERENCE_L2_BANK_HH
