/**
 * @file
 * The per-bank request scheduler: FIFO service of reads and writes onto
 * the bank port, optionally through the Sun et al. (HPCA'09) SRAM write
 * buffer with read preemption — the BUFF-20 baseline of Section 4.4.
 */

#ifndef STACKNOC_MEM_BANK_CONTROLLER_HH
#define STACKNOC_MEM_BANK_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/stats.hh"
#include "mem/bank_model.hh"

namespace stacknoc::fault {
class FaultInjector;
} // namespace stacknoc::fault

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::mem {

/** Sentinel: no packet attached to a request for tracing purposes. */
inline constexpr std::uint64_t kNoTracePkt = ~0ULL;

/** One timed request against a bank. */
struct BankRequest
{
    bool isWrite = false;
    BlockAddr addr = 0;
    Cycle enqueuedAt = 0;
    /** Network packet that carried this request (telemetry only). */
    std::uint64_t tracePktId = kNoTracePkt;
    std::uint8_t traceCls = 0;
};

/** Configuration of the bank front-end. */
struct BankControllerConfig
{
    /** Enable the Sun et al. SRAM write buffer. */
    bool writeBuffer = false;
    /** Buffer capacity (the paper's comparison uses 20 entries). */
    int writeBufferEntries = 20;
    /** Allow reads to abort an in-progress buffer-drain write. */
    bool readPreemption = true;
    /** Read/write detection overhead on every request (1 cycle). */
    Cycle checkCycles = 1;
    /** SRAM-speed access latency of the buffer itself. */
    Cycle bufferAccessCycles = 3;

    /**
     * Plain-mode read priority (the paper's Section 5 notes the network
     * scheme complements Sun et al.'s read preemption): queued reads
     * are served before queued writes, and a read may abort an
     * in-service write, which then restarts from scratch.
     */
    bool readPriority = false;
};

/**
 * Serialises requests onto a BankModel. Owners call tick() once per
 * cycle and enqueue() at any time. Every completion calls the one owner
 * callback bound at construction with the request's address, so a
 * queued request is plain data.
 */
class BankController
{
  public:
    /** Called once per completed request: (its address, the cycle). */
    using DoneFn = std::function<void(BlockAddr, Cycle)>;

    /**
     * @param tech bank technology.
     * @param config front-end configuration.
     * @param group shared statistics group for all banks.
     * @param on_done the owner's completion callback.
     * @param stat_prefix when non-empty, adds a per-bank
     *        "<prefix>.queue_latency_hist" histogram to @p group.
     * @param node node this bank sits at (stamped on trace events).
     */
    BankController(CacheTech tech, const BankControllerConfig &config,
                   stats::Group &group, DoneFn on_done,
                   std::string stat_prefix = "",
                   NodeId node = kInvalidNode);

    /**
     * Enable stochastic write-verify-retry (STT-RAM banks only): a
     * completed write whose verify fails re-occupies the bank for
     * another full service round, up to the injector's retry budget,
     * after which the line is handed to ECC and the write completes as
     * "abandoned".
     */
    void setFaultInjector(fault::FaultInjector *fi, BankId bank);

    /** @return true while the in-service write is in a retry round. */
    bool writeRetryActive() const { return retryActive_; }

    /** Failed verify rounds at this bank since construction (monotonic;
     *  lets the owner emit one busy-NACK per failure episode). */
    std::uint64_t retryEpisodes() const { return retryEpisodes_; }

    /** Write rounds re-run after a failed verify since construction
     *  (the rounds counted into stt_write_retry_rounds). Plain counter
     *  for the activity table (system/heatmap.hh): the verify-sense
     *  overhead of each retry round is priced from its deltas. */
    std::uint64_t retryRoundsTotal() const { return retryRoundsTotal_; }

    /** Predicted completion of the write occupying the bank (now when
     *  no write is in service). */
    Cycle activeWriteDoneAt(Cycle now) const;

    /** Add a request. */
    void enqueue(BankRequest req, Cycle now);

    /** Advance one cycle: complete and start work. */
    void tick(Cycle now);

    /** Requests waiting for service (demand queue only). */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Writes parked in the write buffer. */
    std::size_t bufferDepth() const { return buffer_.size(); }

    /** @return true when nothing is queued, buffered, or in flight. */
    bool idle(Cycle now) const;

    const BankModel &bank() const { return bank_; }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    struct InFlight
    {
        BankRequest req;
        Cycle doneAt;
        int failures = 0; //!< failed write-verify rounds so far
    };

    struct BufferedWrite
    {
        BlockAddr addr;
        bool draining = false;
    };

    struct DelayedDone
    {
        Cycle at;
        BankRequest req;
    };

    void completeDue(Cycle now);
    void startPlain(Cycle now);
    void startBuffered(Cycle now);
    bool bufferContains(BlockAddr addr) const;

    /** Record queue latency (histograms + trace) as service begins. */
    void noteServiceStart(const BankRequest &req, Cycle now);

    /** Pop the next plain-mode request honouring read priority. */
    BankRequest takeNextPlain();

    /**
     * Verify a just-completed write against the fault injector.
     * @return true when the write failed and must run another round
     * (@p failures is advanced); false when it completes — either
     * verified clean or abandoned to ECC at the retry budget.
     */
    bool writeNeedsRetry(int &failures);

    BankModel bank_;
    BankControllerConfig config_;
    DoneFn onDone_;

    std::deque<BankRequest> queue_;
    std::optional<InFlight> current_;        //!< demand op on the bank
    std::deque<BufferedWrite> buffer_;
    std::optional<Cycle> drainDoneAt_;       //!< drain write in flight
    std::vector<DelayedDone> delayed_;       //!< buffer-speed completions

    /** Figure-3 probe: arrival-gap tracking after a write request. */
    Cycle lastArrival_ = kCycleNever;
    bool lastWasWrite_ = false;

    NodeId node_ = kInvalidNode;

    fault::FaultInjector *faults_ = nullptr;
    BankId bankId_ = kInvalidBank;
    int drainFailures_ = 0;     //!< verify failures of the drain write
    bool retryActive_ = false;  //!< a write is in a retry round now
    std::uint64_t retryEpisodes_ = 0;
    std::uint64_t retryRoundsTotal_ = 0;

    stats::Average &queueLatency_;
    stats::Counter &served_;
    stats::Counter &bufferHits_;
    stats::Counter &preemptions_;
    stats::Distribution &gapAfterWrite_;
    stats::Histogram &queueLatencyHist_;     //!< aggregate over banks
    stats::Histogram *perBankQueueHist_ = nullptr;
};

} // namespace stacknoc::mem

#endif // STACKNOC_MEM_BANK_CONTROLLER_HH
