/**
 * @file
 * A two-stage wormhole-switched virtual-channel router.
 *
 * Pipeline (matching the paper's Table 1 router): a head flit arriving in
 * cycle t performs route computation and VC allocation in t, switch
 * allocation and crossbar traversal in t+1, and link traversal in t+2 —
 * three cycles per hop.
 */

#ifndef STACKNOC_NOC_ROUTER_HH
#define STACKNOC_NOC_ROUTER_HH

#include <array>
#include <bit>
#include <span>
#include <vector>

#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/ticking.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/policy.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"

namespace stacknoc::fault {
class FaultInjector;
} // namespace stacknoc::fault

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::noc {

/**
 * An input-queued VC router with credit-based flow control and a
 * separable (input-first) switch allocator. VC allocation and switch
 * eligibility consult an ArbitrationPolicy, which is how the STT-RAM-aware
 * scheme re-orders packets.
 */
class Router final : public Ticking
{
  public:
    Router(std::string name, NodeId id, const NocParams &params,
           const RoutingFunction &routing, ArbitrationPolicy &policy,
           stats::Group &net_stats);

    /** Attach the link arriving at this router through direction @p d. */
    void connectIn(Dir d, Link *link);

    /** Attach the link leaving this router through direction @p d. */
    void connectOut(Dir d, Link *link);

    void tick(Cycle now) override;

    /**
     * Idle iff no flit is buffered, no VC is mid-pipeline, and nothing
     * is in flight on the incoming data or credit pipes. A router
     * designated as a stuck-fault site never sleeps: the injector
     * samples (and counts) the wedge window at every tick.
     */
    bool quiescent(Cycle now) const override;

    TickKind tickKind() const override { return TickKind::Router; }

    /**
     * Enable fault injection (stuck-router windows). While the
     * injector reports this router wedged, tick() does nothing: no
     * flits or credits are received, switched, or sent — buffered and
     * in-link state is frozen in place until the window closes.
     */
    void setFaultInjector(fault::FaultInjector *fi) { faults_ = fi; }

    NodeId nodeId() const { return id_; }

    /** Total flits currently buffered in all input VCs. */
    int bufferedFlits() const;

    /** Flits buffered in the input VCs of one port. */
    int bufferedFlits(Dir d) const;

    /**
     * Congestion metric used by the RCA estimator: occupied input buffer
     * slots, excluding the local injection port.
     */
    int localCongestion() const;

    /** Invoke @p fn for every packet whose head flit is buffered here. */
    template <typename Fn>
    void
    forEachBufferedPacket(Fn &&fn) const
    {
        forEachBufferedFlit([&](Dir, int, const Flit &flit) {
            if (flit.head())
                fn(*flit.pkt);
        });
    }

    /**
     * Invoke @p fn(dir, vc, flit) for every buffered flit (head or not),
     * port by port and VC by VC. Observer use only.
     */
    template <typename Fn>
    void
    forEachBufferedFlit(Fn &&fn) const
    {
        forEachOccupiedVc([&](Dir d, int vc, const Ring<Flit> &buffer) {
            for (const Flit &flit : buffer)
                fn(d, vc, flit);
        });
    }

    /**
     * Invoke @p fn(dir, vc, buffer) for every input VC that may hold
     * flits, port by port and VC by VC; the VCs not visited are empty.
     * Observer use only (validation census).
     *
     * Only VCs out of Idle hold flits: a head arriving moves its VC out
     * of Idle, and a VC returns there only once empty. So when the busy
     * VCs account for every buffered flit, the idle ones are skipped
     * unread; otherwise every VC is visited.
     */
    template <typename Fn>
    void
    forEachOccupiedVc(Fn &&fn) const
    {
        // The busy VCs of each port, and a bit per port that has any:
        // the walks below visit only those ports.
        std::array<std::uint64_t, kNumDirs> busy;
        unsigned ports = 0;
        for (std::size_t d = 0; d < busy.size(); ++d) {
            busy[d] = busyVcs(d);
            ports |= static_cast<unsigned>(busy[d] != 0) << d;
        }
        int held = 0;
        for (unsigned p = ports; p != 0; p &= p - 1) {
            const auto d = static_cast<std::size_t>(std::countr_zero(p));
            for (std::uint64_t m = busy[d]; m != 0; m &= m - 1) {
                const auto v = static_cast<std::size_t>(std::countr_zero(m));
                held += static_cast<int>(in_[d].vcs[v].buffer.size());
            }
        }
        if (held != bufferedTotal_) {
            ports = (1u << kNumDirs) - 1;
            for (std::size_t d = 0; d < busy.size(); ++d)
                busy[d] = allVcs(in_[d]);
        }
        for (unsigned p = ports; p != 0; p &= p - 1) {
            const int d = std::countr_zero(p);
            const InPort &ip = in_[static_cast<std::size_t>(d)];
            for (std::uint64_t m = busy[static_cast<std::size_t>(d)]; m != 0;
                 m &= m - 1) {
                const int v = std::countr_zero(m);
                fn(static_cast<Dir>(d), v,
                   ip.vcs[static_cast<std::size_t>(v)].buffer);
            }
        }
    }

    /**
     * Credits available on every output VC of port @p d (meaningful
     * only where a link is attached). Sized at construction, so the
     * view stays valid for the router's lifetime.
     */
    std::span<const int>
    outCredits(Dir d) const
    {
        return std::span<const int>(credits_).subspan(
            static_cast<std::size_t>(d) * numVcs_, numVcs_);
    }

    /**
     * Fault injection for validation tests ONLY: add @p delta to the
     * credits of output VC @p vc of port @p d, emulating a leaked or
     * double-counted credit. The credit checker must catch it.
     */
    void
    corruptOutCreditForTest(Dir d, int vc, int delta)
    {
        panic_if(vc < 0 || static_cast<std::size_t>(vc) >= numVcs_,
                 "router %d: no output VC %d", id_, vc);
        credit(static_cast<std::size_t>(d), vc) += delta;
    }

    /**
     * Fault injection for validation tests ONLY: drop the @p index-th
     * flit buffered in input VC @p vc of port @p d, or (@p duplicate)
     * insert a copy of it right behind it. The occupancy mirrors follow
     * the buffer, so the router keeps running on the corrupted packet;
     * the packet checker's census must catch it.
     */
    void corruptBufferedFlitForTest(Dir d, int vc, std::size_t index,
                                    bool duplicate);

    /**
     * Flits this router has pushed into its crossbar since
     * construction. A plain (non-Group) counter so spatial exporters
     * can read per-router values: written only by this router's own
     * tick, read from cycle-end probes after the phase barrier.
     */
    std::uint64_t flitsSwitchedTotal() const { return flitsSwitchedTotal_; }

    /**
     * Flits this router has accepted into its input buffers since
     * construction. Same contract as flitsSwitchedTotal(): written
     * only by the owning tick, read by the activity table
     * (system/heatmap.hh) for the buffer-write energy term.
     */
    std::uint64_t flitsBufferedTotal() const { return flitsBufferedTotal_; }

    const NocParams &params() const { return params_; }


  private:
    /** Checkpointing serialises VC buffers/pipeline state and pending
     *  bytes, and recomputes the derived masks/counts on load. */
    friend class snapshot::StateIO;

    enum class VcStatus { Idle, Routing, WaitVa, Active };

    /** One input VC. Its buffer is reserved to vcDepth at
     *  construction; credits keep the upstream sender from ever
     *  pushing more, so the ring never grows. */
    struct VirtualChannel
    {
        Ring<Flit> buffer;
        VcStatus status = VcStatus::Idle;
        Dir outDir = Dir::Local;
        int outVc = -1;
        Cycle vaDoneAt = kCycleNever;
        std::uint8_t port = 0; //!< owning input port (for mask upkeep)
        std::uint8_t idx = 0;  //!< VC index within the port
    };

    struct InPort
    {
        Link *link = nullptr;
        std::vector<VirtualChannel> vcs;
        int rrSaVc = 0; //!< round-robin pointer for the SA input stage
    };

    struct OutPort
    {
        Link *link = nullptr;
        std::uint64_t vcBusy = 0;   //!< bit v: out-VC v is allocated
        int rrVa = 0;               //!< round-robin pointer for VA
        int rrSa = 0;               //!< round-robin pointer for SA output
    };

    /** The input VCs of port @p port in pipeline state @p st. */
    std::uint64_t &
    stateMask(VcStatus st, std::size_t port)
    {
        return stateMask_[static_cast<std::size_t>(st)][port];
    }

    std::uint64_t
    stateMask(VcStatus st, std::size_t port) const
    {
        return stateMask_[static_cast<std::size_t>(st)][port];
    }

    /** Input VCs of port @p port out of Idle: the ones that can hold
     *  flits. */
    std::uint64_t
    busyVcs(std::size_t port) const
    {
        return stateMask(VcStatus::Routing, port) |
               stateMask(VcStatus::WaitVa, port) |
               stateMask(VcStatus::Active, port);
    }

    /** Credits of output VC @p vc of port @p port. */
    int &
    credit(std::size_t port, int vc)
    {
        return credits_[port * numVcs_ + static_cast<std::size_t>(vc)];
    }

    /** Every input VC of @p ip. */
    static std::uint64_t
    allVcs(const InPort &ip)
    {
        return ip.vcs.size() >= 64
                   ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << ip.vcs.size()) - 1;
    }

    void receiveCredits(Cycle now);
    void receiveFlits(Cycle now);
    void routeCompute(Cycle now);
    void vcAllocate(Cycle now);
    void switchAllocateAndTraverse(Cycle now);

    /** Bookkeeping for the fast-path skips of empty pipeline stages. */
    void changeStatus(VirtualChannel &vc, VcStatus to);

    /** Release bookkeeping after the tail flit of a packet departs. */
    void finishPacket(InPort &ip, VirtualChannel &vc);

    NodeId id_;
    NocParams params_;
    const RoutingFunction &routing_;
    ArbitrationPolicy &policy_;
    fault::FaultInjector *faults_ = nullptr;

    std::array<InPort, kNumDirs> in_;
    std::array<OutPort, kNumDirs> out_;

    /** Per virtual network, the mask of its VC indices. */
    std::array<std::uint64_t, kNumVnets> vnetVcs_{};

    /** VCs per port (every port has the same VC set). */
    std::size_t numVcs_;

    /**
     * Per pipeline state (indexed by VcStatus), one bit per input VC
     * of each port, so the allocation stages iterate only occupied VCs
     * instead of scanning the whole array. Kept in lockstep with
     * VirtualChannel::status by changeStatus(); the Idle row is
     * maintained but never read. State-major, so the busy rows of
     * every port share three cache lines (the census reads them every
     * sweep).
     */
    std::array<std::array<std::uint64_t, kNumDirs>, 4> stateMask_{};

    /** Input VCs per pipeline state (indexed by VcStatus; the Idle
     *  slot is maintained but never read), for O(1) idle-stage
     *  skips. */
    std::array<int, 4> stateCount_{};

    /** Credits of every output VC, port-major (port * numVcs_ + vc):
     *  one block, so a router's credits are a few adjacent lines. */
    std::vector<int> credits_;

    /** Incremental mirrors of the buffer-occupancy sums, so the RCA
     * sideband snapshot and the quiescence predicate are O(1). */
    int bufferedTotal_ = 0;
    int localCongestion_ = 0; //!< buffered flits excluding the Local port

    /**
     * Per-port push-notification bytes (ChannelBase::bindReceiver): set
     * by every push on the port's channel, cleared by the drains once
     * the channel is empty, so receiveFlits/receiveCredits touch only
     * ports something was actually pushed on.
     */
    std::array<std::uint8_t, kNumDirs> dataPending_{};
    std::array<std::uint8_t, kNumDirs> creditPending_{};

    stats::Counter &flitsIn_;
    stats::Counter &flitsOut_;
    stats::Counter &packetsForwarded_;
    std::uint64_t flitsSwitchedTotal_ = 0;
    std::uint64_t flitsBufferedTotal_ = 0;
};

} // namespace stacknoc::noc

#endif // STACKNOC_NOC_ROUTER_HH
