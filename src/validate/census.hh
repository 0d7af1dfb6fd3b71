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
#include <span>
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
    /** Sender router's output port (RouterToRouter and RouterToNi). */
    noc::Dir outDir = noc::Dir::Local;
    /** Receiving router's input port (RouterToRouter and NiToRouter). */
    noc::Dir inDir = noc::Dir::Local;
    /** Receivers' signal bytes of the data and credit channels (see
     *  ChannelBase::signalFlag); null when none is registered. */
    const std::uint8_t *dataSignal = nullptr;
    const std::uint8_t *creditSignal = nullptr;
};

/** Where every flit and credit of one network is, as of one sweep. */
class FabricCensus
{
  public:
    /** Seq of a CensusFlit that marks an injected, pending packet. */
    static constexpr int kPendingSeq = -1;

    explicit FabricCensus(const noc::Network &net);

    /**
     * Walk the fabric once: router input buffers, router-to-router
     * links, the NI local links and NI ejection buffers, node by node
     * in that order, plus the NI injection VCs.
     */
    void take();

    /**
     * Every flit in the fabric plus one pending marker per injected
     * packet still serialising at its source, sorted by (id, seq,
     * ordinal): a packet's entries are adjacent, its marker first.
     * Empty link channels are skipped by their receiver's signal byte
     * and idle router VCs by the router's own VC state, so a sweep
     * reads the containers that hold something.
     */
    const std::vector<CensusFlit> &flits() const { return flits_; }

    /** The links counted, node by node in walk order. */
    const std::vector<CensusLink> &links() const { return links_; }

    // Per-VC counts, one entry per VC, for links()[link].

    /** Flits buffered at the receiving end: the router input port's
     *  VCs, or the NI's ejection VCs. */
    std::span<const int>
    receiverOccupancy(std::size_t link) const
    {
        const CensusLink &cl = links_[link];
        const auto node = static_cast<std::size_t>(cl.to);
        return cl.kind == CensusLink::Kind::RouterToNi
                   ? perVc(ejectOcc_, node)
                   : perVc(bufferOcc_,
                           node * noc::kNumDirs +
                               static_cast<std::size_t>(cl.inDir));
    }

    /** Flits in flight on the link. */
    std::span<const int>
    dataInFlight(std::size_t link) const
    {
        return perVc(linkData_, link);
    }

    /** Credits in flight back to the sender. */
    std::span<const int>
    creditsInFlight(std::size_t link) const
    {
        return perVc(linkCredits_, link);
    }

  private:
    /** Row @p row of a VC-major count table. */
    std::span<const int>
    perVc(const std::vector<int> &table, std::size_t row) const
    {
        return std::span<const int>(table).subspan(row * vcs_, vcs_);
    }

    const noc::Network &net_;
    std::size_t vcs_;

    std::vector<CensusLink> links_;
    /** links_[linkBegin_[n] .. linkBegin_[n + 1]) leave node n. */
    std::vector<std::size_t> linkBegin_;

    std::vector<CensusFlit> flits_;
    std::vector<CensusFlit> scratch_; //!< sort buffer
    std::vector<int> bufferOcc_;
    std::vector<int> ejectOcc_;
    std::vector<int> linkData_;
    std::vector<int> linkCredits_;
};

} // namespace stacknoc::validate

#endif // STACKNOC_VALIDATE_CENSUS_HH
