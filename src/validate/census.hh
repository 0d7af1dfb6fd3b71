/**
 * @file
 * One walk of the network fabric per validation sweep, shared by every
 * checker that needs to know where flits, credits and packets are.
 *
 * The census is filled once at the start of a sweep (ValidationHub
 * does it) and read by the packet-conservation, credit-conservation
 * and parent-hold checkers; none of them walks the fabric itself. Its
 * buffers keep their capacity across sweeps, so a steady-state sweep
 * allocates nothing.
 */

#ifndef STACKNOC_VALIDATE_CENSUS_HH
#define STACKNOC_VALIDATE_CENSUS_HH

#include <cstdint>
#include <vector>

#include "noc/network.hh"

namespace stacknoc::validate {

/**
 * Where one flit of a packet is, or (seq == kPendingSeq) a marker that
 * the packet is still serialising at its source NI with its head
 * already injected.
 */
struct CensusFlit
{
    std::uint64_t id = 0;        //!< Packet::id
    int seq = 0;                 //!< flit seq, or kPendingSeq
    NodeId at = kInvalidNode;    //!< node whose buffers hold the flit
    std::uint32_t ordinal = 0;   //!< position in the walk order
    const noc::Packet *pkt = nullptr;
};

/** One directed link the census counts, with both ends. */
struct CensusLink
{
    enum class Kind : std::uint8_t { RouterToRouter, NiToRouter, RouterToNi };

    const noc::Link *link = nullptr;
    Kind kind = Kind::RouterToRouter;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    /** The sending router's output port (not used for NiToRouter). */
    noc::Dir out = noc::Dir::Local;
    /** Receivers' signal bytes of the data and credit channels (see
     *  ChannelBase::signalFlag); null when none is registered. */
    const std::uint8_t *dataSignal = nullptr;
    const std::uint8_t *creditSignal = nullptr;
};

/**
 * Where every flit and credit of one network is, as of one sweep.
 *
 * The per-VC counts are flat link-major tables, one row of vcs()
 * entries per link of links(): entry l * vcs() + v is VC v of link l.
 * A sweep rewrites every row, so the credit identity of every link and
 * VC is one pass over four aligned tables. The tables are padded to a
 * whole number of kLanes entries (paddedSize()), so such a pass may
 * read kLanes at a time; the padding satisfies the identity (the
 * sender holds every credit). The counts are 16-bit (Count), which
 * halves what a sweep writes and the credit check reads.
 */
class FabricCensus
{
  public:
    /** Seq of a CensusFlit that marks an injected, pending packet. */
    static constexpr int kPendingSeq = -1;

    /** Entries a reader may load at once from the per-VC tables (see
     *  the class comment). */
    static constexpr std::size_t kLanes = 8;

    /**
     * One per-VC count. Every count is bounded by the VC depth in any
     * state the routers and NIs accept (they panic on credit and
     * buffer overflow), and the constructor rejects a depth for which
     * 16 bits cannot hold four such counts summed.
     */
    using Count = std::int16_t;

    explicit FabricCensus(const noc::Network &net);

    /**
     * Walk the fabric once, node by node: the router's output credits
     * and the signal bytes of the links leaving the node, then the
     * flits in the router's input buffers, on those links, in the NI's
     * ejection buffers and, as markers, at its injection VCs. Flits are
     * numbered (CensusFlit::ordinal) in that order.
     */
    void take();

    /**
     * Every flit in the fabric plus one pending marker per injected
     * packet still serialising at its source, sorted by (id, seq,
     * ordinal): a packet's entries are adjacent, its marker first.
     * Empty link channels are skipped by their receiver's signal byte,
     * idle router VCs by the router's own VC state and empty NI
     * ejection buffers by the NI's count, so a sweep reads the
     * containers that hold something.
     */
    const std::vector<CensusFlit> &flits() const { return flits_; }

    /** The links counted, node by node in walk order. */
    const std::vector<CensusLink> &links() const { return links_; }

    /** Entries per row of the per-VC tables. */
    std::size_t vcs() const { return vcs_; }

    /** Entries in each per-VC table: links().size() * vcs() rounded
     *  up to a multiple of kLanes. */
    std::size_t paddedSize() const { return credits_.size(); }

    /** Credits the sender of each link holds: the router's output-VC
     *  credits, or the NI's injection credits. */
    const std::vector<Count> &senderCredits() const { return credits_; }

    /** Flits in flight on each link. */
    const std::vector<Count> &dataInFlight() const { return data_; }

    /** Flits buffered at each link's receiving end: the router input
     *  port's VCs, or the NI's ejection VCs. */
    const std::vector<Count> &receiverOccupancy() const { return buffer_; }

    /** Credits in flight back to each link's sender. */
    const std::vector<Count> &creditsInFlight() const
    {
        return creditsBack_;
    }

  private:
    /** Row index of "no link" in the port table. */
    static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

    /** After any shard tag in the process moved, re-derive which link
     *  channels can hold staged values (stages_). */
    void refreshStaging();

    /** Sort flits_ by (id, seq, ordinal); see flits(). @p varying has
     *  the bits in which the ids differ. */
    void sortFlits(std::uint64_t varying);

    const noc::Network &net_;
    std::size_t vcs_;

    std::vector<CensusLink> links_;
    /** links_[linkBegin_[n] .. linkBegin_[n + 1]) leave node n; the
     *  last two are its NI-to-router and router-to-NI links. */
    std::vector<std::size_t> linkBegin_;
    /** Per node and router port (node * kNumDirs + port), the link
     *  arriving at the router there, or kNoLink. */
    std::vector<std::uint32_t> inLink_;

    /** Ticking::shardEpoch() when stages_ was derived. */
    std::uint64_t stagesEpoch_;
    /** Per node, two bits per link leaving it (data, then credit, in
     *  link order): the channels whose pushes cross shards. */
    std::vector<std::uint32_t> stages_;

    std::vector<CensusFlit> flits_;
    std::vector<CensusFlit> scratch_; //!< sort buffer
    std::vector<Count> credits_;
    std::vector<Count> data_;
    std::vector<Count> buffer_;
    std::vector<Count> creditsBack_;
};

} // namespace stacknoc::validate

#endif // STACKNOC_VALIDATE_CENSUS_HH
