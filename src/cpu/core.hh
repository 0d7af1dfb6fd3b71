/**
 * @file
 * The trace-driven out-of-order core model of Table 1: 128-entry
 * instruction window, 2-wide fetch/commit, at most one memory operation
 * issued per cycle, in-order commit blocking at the ROB head.
 *
 * Non-memory instructions are abstracted to unit work; memory latency —
 * the quantity the paper's mechanism changes — is fully modelled through
 * the L1/L2/directory/network stack. Memory-level parallelism emerges
 * from the window: younger memory operations keep issuing while the
 * head's miss is outstanding.
 */

#ifndef STACKNOC_CPU_CORE_HH
#define STACKNOC_CPU_CORE_HH

#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/ticking.hh"
#include "coherence/l1_cache.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::cpu {

/** One instruction from a workload stream. */
struct TraceOp
{
    bool isMem = false;
    bool isWrite = false;
    BlockAddr addr = 0;
    /** Trace annotation: would this access hit in the L2? */
    bool l2Hit = true;
    /** Data dependence on the previous memory operation: this op may
     *  not issue until the previous one completes (bounds MLP). */
    bool dependsOnPrev = false;
};

/** An infinite per-core instruction source. */
class InstructionStream
{
  public:
    virtual ~InstructionStream() = default;

    /** Produce the next instruction in program order. */
    virtual TraceOp next() = 0;
};

/** Core pipeline parameters (Table 1). */
struct CoreConfig
{
    int robEntries = 128;
    int fetchWidth = 2;
    int commitWidth = 2;
    int memIssuePerCycle = 1;
};

/** One core: fetches from its stream, issues memory ops to its L1. */
class Core final : public Ticking
{
  public:
    /**
     * @param cname component name.
     * @param id core id.
     * @param l1 the core's private L1 (must outlive the core).
     * @param stream instruction source (must outlive the core).
     * @param config pipeline widths.
     * @param group statistics group shared by all cores.
     */
    Core(std::string cname, CoreId id, coherence::L1Cache &l1,
         InstructionStream &stream, const CoreConfig &config,
         stats::Group &group);

    void tick(Cycle now) override;

    /**
     * A core is never quiescent: the instruction stream is infinite and
     * every stalled cycle samples the stall counter, so eliding a core
     * tick would be observable. Cores stay in the engines' active set
     * permanently (inherited quiescent() == false); they still benefit
     * from the kind-batched dispatch.
     */
    TickKind tickKind() const override { return TickKind::Core; }

    /** Instructions committed since construction (or the last reset). */
    std::uint64_t committed() const { return committed_; }

    /** Zero the committed-instruction count (end of warm-up). */
    void resetCommitted() { committed_ = 0; }

    CoreId id() const { return id_; }

    /** Occupancy of the instruction window. */
    std::size_t robOccupancy() const { return rob_.size(); }

    /**
     * The L1's completion of the memory operation with sequence number
     * @p seq (its access token). A token below the ROB head is a store
     * that already committed through the store buffer and is ignored.
     */
    void memDone(std::uint64_t seq, Cycle now);

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    struct RobEntry
    {
        TraceOp op;
        bool issued = false;
        bool done = false; //!< memory op completed (set by memDone)
    };

    /** @return whether the op with sequence number @p seq completed. */
    bool
    seqDone(std::uint64_t seq) const
    {
        return seq < headSeq_ || rob_[seq - headSeq_].done;
    }

    void commit(Cycle now);
    void issue(Cycle now);
    void fetch(Cycle now);

    CoreId id_;
    coherence::L1Cache &l1_;
    InstructionStream &stream_;
    CoreConfig config_;
    /** The instruction window, oldest first; reserved to robEntries,
     *  which fetch() never exceeds, so the ring never grows. */
    Ring<RobEntry> rob_;
    std::size_t issueCursor_ = 0; //!< oldest possibly-unissued ROB index
    /** Sequence number of the ROB head; entry i holds headSeq_ + i.
     *  Instructions are numbered from 1 in fetch order. */
    std::uint64_t headSeq_ = 1;
    /** Sequence number of the most recently issued load; 0 (below any
     *  head) until the first one issues. */
    std::uint64_t lastLoadSeq_ = 0;
    std::uint64_t committed_ = 0;

    stats::Counter &committedStat_;
    stats::Counter &memOpsStat_;
    stats::Counter &stallCyclesStat_;
};

} // namespace stacknoc::cpu

#endif // STACKNOC_CPU_CORE_HH
