/**
 * @file
 * Network interfaces: packetisation, injection, ejection, and delivery to
 * the attached protocol agent.
 */

#ifndef STACKNOC_NOC_NETWORK_INTERFACE_HH
#define STACKNOC_NOC_NETWORK_INTERFACE_HH

#include <vector>

#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/ticking.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/topology.hh"

namespace stacknoc::fault {
class FaultInjector;
} // namespace stacknoc::fault

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::noc {

/** Anything that can receive packets from its local NI. */
class NetworkClient
{
  public:
    virtual ~NetworkClient() = default;

    /**
     * Admission control, consulted once per packet when its head flit
     * reaches the front of an NI ejection buffer. Returning false holds
     * the packet in the NI (and, through withheld credits, backs traffic
     * up into the network — the paper's "queued at the network
     * interface"). Returning true may reserve client resources; the
     * packet is then guaranteed to be deliver()ed.
     */
    virtual bool
    tryAccept(const Packet &pkt)
    {
        (void)pkt;
        return true;
    }

    /** A fully reassembled packet has arrived at this node. */
    virtual void deliver(PacketPtr pkt, Cycle now) = 0;
};

/**
 * Anything that can inject packets. NetworkInterface is the production
 * implementation; protocol unit tests substitute recording fakes.
 */
class PacketSender
{
  public:
    virtual ~PacketSender() = default;

    /** Queue @p pkt for injection at cycle @p now. */
    virtual void send(PacketPtr pkt, Cycle now) = 0;

    /** Packets waiting behind this sender (store-buffer backpressure). */
    virtual std::size_t backlog() const { return 0; }
};

/** Receiver of window-based-estimator timestamp echoes. */
class ProbeSink
{
  public:
    virtual ~ProbeSink() = default;

    /**
     * A ProbeAck reached the node it addresses. @p pkt carries the child
     * bank in info.origin and the 8-bit timestamp in info.aux.
     */
    virtual void onProbeAck(const Packet &pkt, Cycle now) = 0;

    /**
     * A BusyNack reached the node it addresses: the child bank in
     * info.origin is still busy (write-verify-retry) for another
     * info.aux cycles past its predicted window.
     */
    virtual void
    onBusyNack(const Packet &pkt, Cycle now)
    {
        (void)pkt;
        (void)now;
    }
};

/**
 * The per-node network interface. Serialises packets into flits toward
 * the router's Local input port (respecting credits), reassembles arriving
 * flits, and dispatches completed packets to the attached client(s).
 *
 * Ejection is an infinite sink: every received flit is credited back
 * immediately, so the network always drains at its destinations.
 */
class NetworkInterface final : public Ticking, public PacketSender
{
  public:
    NetworkInterface(std::string name, NodeId id, const NocParams &params,
                     stats::Group &net_stats);

    /**
     * @param to_router link from this NI into the router's Local port.
     * @param from_router link from the router's Local port to this NI.
     */
    void connect(Link *to_router, Link *from_router);

    /** Primary protocol agent at this node (L1 controller or L2 bank). */
    void setClient(NetworkClient *client) { client_ = client; }

    /** Memory controller co-located at this node, if any. */
    void setMemClient(NetworkClient *client) { memClient_ = client; }

    /** Estimator hub receiving ProbeAck packets addressed to this node. */
    void setProbeSink(ProbeSink *sink) { probeSink_ = sink; }

    /**
     * Enable link/TSB fault injection at this NI's ejection side (CRC
     * check + retransmission). Null (the default) skips the CRC gate
     * entirely; an injector whose link BERs are zero never draws, so
     * behaviour is bit-identical either way.
     */
    void setFaultInjector(fault::FaultInjector *fi) { faults_ = fi; }

    /**
     * Number @p pkt from this node's id stream and queue it for
     * injection. Always succeeds (the injection queue is unbounded; the
     * network applies backpressure through credits).
     */
    void send(PacketPtr pkt, Cycle now) override;

    void tick(Cycle now) override;

    /**
     * Idle iff nothing is queued, serialising, or parked in ejection
     * buffers (which covers CRC/retransmission holds and admission
     * stalls), and no flit or credit is still in flight on the local
     * links. send() wakes the NI, so a sleeping NI cannot strand a
     * freshly queued packet.
     */
    bool quiescent(Cycle now) const override;

    TickKind tickKind() const override
    {
        return TickKind::NetworkInterface;
    }

    NodeId nodeId() const { return id_; }

    /** Packets waiting to start serialisation. */
    std::size_t injectQueueDepth() const { return injectQueue_.size(); }

    std::size_t backlog() const override { return injectQueue_.size(); }

    /** @return true when nothing is queued or being serialised. */
    bool
    idle() const
    {
        if (!injectQueue_.empty())
            return false;
        for (const auto &vc : injVcs_)
            if (vc.pkt)
                return false;
        for (const auto &vc : ejectVcs_)
            if (!vc.buffer.empty())
                return false;
        return true;
    }

    /**
     * Invoke @p fn(pkt, injected) for every packet waiting at this NI:
     * queued packets (injected = false) and packets currently being
     * serialised into the network (injected = true once the head flit
     * has left). Observer use only (validation census).
     */
    template <typename Fn>
    void
    forEachPendingPacket(Fn &&fn) const
    {
        for (const auto &pkt : injectQueue_)
            fn(*pkt, false);
        for (const auto &vc : injVcs_) {
            if (vc.pkt)
                fn(*vc.pkt, vc.nextSeq > 0);
        }
    }

    /**
     * Invoke @p fn(vc, flit, committed) for every flit parked in an
     * ejection buffer; @p committed is true when the flit belongs to the
     * front packet of a VC whose head the client already accepted.
     * While the buffers hold no flit, by the count kept with them, none
     * is read. Observer use only (validation census).
     */
    template <typename Fn>
    void
    forEachEjectFlit(Fn &&fn) const
    {
        if (ejectHeld_ == 0)
            return;
        for (std::size_t v = 0; v < ejectVcs_.size(); ++v) {
            const auto &vc = ejectVcs_[v];
            for (const auto &flit : vc.buffer) {
                fn(static_cast<int>(v), flit,
                   vc.committed && flit.pkt == vc.committedPkt);
            }
        }
    }

    /**
     * Invoke @p fn(vc, credits, pkt) for every injection VC, in VC
     * order: its credits, and the packet it is serialising once the
     * head flit has left (null otherwise). Queued packets are not
     * visited. Observer use only (validation census).
     */
    template <typename Fn>
    void
    forEachInjVc(Fn &&fn) const
    {
        for (std::size_t v = 0; v < injVcs_.size(); ++v) {
            const InjVc &vc = injVcs_[v];
            fn(static_cast<int>(v), vc.credits,
               vc.pkt && vc.nextSeq > 0 ? vc.pkt.get() : nullptr);
        }
    }

    /**
     * Invoke @p fn(vc, pkt) for every packet the client has accepted
     * (tryAccept succeeded) whose tail flit has not yet been delivered.
     * Observer use only (validation census).
     */
    template <typename Fn>
    void
    forEachCommittedPacket(Fn &&fn) const
    {
        for (std::size_t v = 0; v < ejectVcs_.size(); ++v) {
            const auto &vc = ejectVcs_[v];
            if (vc.committed && vc.committedPkt)
                fn(static_cast<int>(v), *vc.committedPkt);
        }
    }

    /** Injection credits available on VC @p vc. */
    int injCredits(int vc) const
    {
        return injVcs_.at(static_cast<std::size_t>(vc)).credits;
    }

    /**
     * Fault injection for validation tests ONLY: add @p delta to the
     * injection credits of VC @p vc, emulating a leaked or
     * double-counted credit. The credit checker must catch it.
     */
    void
    corruptInjCreditForTest(int vc, int delta)
    {
        injVcs_.at(static_cast<std::size_t>(vc)).credits += delta;
    }

    /**
     * Flits re-sent over the link because a reassembled packet failed
     * its CRC check at this NI, since construction. Plain counter for
     * the activity table (system/heatmap.hh), which prices the
     * retransmit-flit energy term; written only by the owning tick.
     */
    std::uint64_t flitsRetransmittedTotal() const
    {
        return flitsRetransmittedTotal_;
    }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore

    struct InjVc
    {
        PacketPtr pkt;   //!< packet being serialised (null when free)
        int nextSeq = 0;
        int credits = 0;
    };

    struct EjectVc
    {
        Ring<Flit> buffer; //!< reserved to vcDepth; credits bound it
        bool committed = false; //!< current packet accepted by client
        /** The accepted packet; its consumed flits leave no trace in
         *  @c buffer, so observers need the identity kept explicitly. */
        PacketPtr committedPkt;

        // CRC/retransmission state of the packet at the buffer front
        // (only used when a fault injector is attached).
        bool crcClean = false;   //!< current head passed the CRC check
        bool dropping = false;   //!< consuming a dropped packet's flits
        int retxAttempts = 0;    //!< retransmissions requested so far
        Cycle retxHoldUntil = 0; //!< retransmission in flight until then
    };

    void receive(Cycle now);
    void drainEjectBuffers(Cycle now);
    void inject(Cycle now);
    void dispatch(PacketPtr pkt, Cycle now);

    /** @return the client a packet of this class is destined for. */
    NetworkClient *targetFor(const Packet &pkt) const;

    NodeId id_;
    NocParams params_;
    Link *toRouter_ = nullptr;
    Link *fromRouter_ = nullptr;
    NetworkClient *client_ = nullptr;
    NetworkClient *memClient_ = nullptr;
    ProbeSink *probeSink_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;

    /** This node's packet-id stream: packets numbered so far. Only
     *  components at this node send here, so one shard writes it. */
    std::uint64_t idsMinted_ = 0;

    Ring<PacketPtr> injectQueue_; //!< unbounded; grows when full
    std::vector<InjVc> injVcs_;
    std::vector<EjectVc> ejectVcs_;
    /** Flits in all ejection buffers, kept with every push and pop so
     *  observers skip the buffers while they are empty. */
    int ejectHeld_ = 0;
    int rrInjVc_ = 0;

    /** Push-notification bytes for the local links (bound to the
     *  channels by connect() via ChannelBase::bindReceiver): set on every
     *  push, cleared by the drains once the channel is empty, so the
     *  tick touches the link queues only when something arrived. */
    std::uint8_t dataPending_ = 0;
    std::uint8_t creditPending_ = 0;

    stats::Counter &packetsInjected_;
    stats::Counter &packetsEjected_;
    stats::Counter &packetsDropped_;
    stats::Average &netLatency_;
    stats::Average &totalLatency_;
    stats::Average &niQueueLatency_;
    stats::Histogram &netLatencyHist_;
    stats::Histogram &totalLatencyHist_;

    std::uint64_t flitsRetransmittedTotal_ = 0;
};

} // namespace stacknoc::noc

#endif // STACKNOC_NOC_NETWORK_INTERFACE_HH
