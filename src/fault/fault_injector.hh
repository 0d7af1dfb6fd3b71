/**
 * @file
 * Seed-deterministic fault injection. Every fault *site* (an L2 bank, a
 * network interface, a router) owns a private SplitMix64 stream keyed by
 * (seed, site kind, site id); since each site is ticked by exactly one
 * component — and the parallel engine co-shards all components of a node
 * — draw sequences are a pure function of the seed and the simulated
 * history, never of `--threads` or scheduling.
 *
 * The hot-path draw methods are header-inline on purpose: the noc and
 * mem libraries call them without linking against stacknoc_fault (only
 * the final binaries do, via stacknoc_system), which keeps the library
 * dependency graph acyclic.
 */

#ifndef STACKNOC_FAULT_FAULT_INJECTOR_HH
#define STACKNOC_FAULT_FAULT_INJECTOR_HH

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/geometry.hh"
#include "common/types.hh"
#include "fault/fault_spec.hh"
#include "sim/stats.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::fault {

/**
 * SplitMix64 (Steele, Lea & Flood): a tiny, statistically solid,
 * jump-free PRNG. One instance per fault site; 64 bits of state make
 * streams cheap enough to key per site.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) with 53 random bits. */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    friend class snapshot::StateIO; //!< checkpoint save/restore of state_
    std::uint64_t state_;
};

/**
 * The per-run fault oracle: owns the spec, the per-site streams, and the
 * "faults" statistics group. Shared (by raw pointer) with banks, NIs and
 * routers; all draw and note methods are called from the owning site's
 * tick only, and each site (a bank, a node) has its own stat writers.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultSpec &spec, std::uint64_t seed,
                  const MeshShape &shape, int num_banks);

    const FaultSpec &spec() const { return spec_; }

    // ---- STT-RAM write failures (drawn by the bank's controller) ----

    /** One verify after a completed write: @return true = write failed. */
    bool
    drawWriteFailure(BankId bank)
    {
        if (spec_.sttWriteBer <= 0.0)
            return false;
        return bankStreams_[static_cast<std::size_t>(bank)].uniform()
            < spec_.sttWriteBer;
    }

    void noteWriteFailure(BankId bank) { sttWriteFailures_[bank].inc(); }
    void noteWriteRetryRound(BankId bank) { sttWriteRetryRounds_[bank].inc(); }
    void noteWriteAbandoned(BankId bank) { sttWritesAbandoned_[bank].inc(); }

    void
    noteWriteRecovered(BankId bank, int failures, Cycle extra_cycles)
    {
        sttWritesRecovered_[bank].inc();
        retriesPerWriteHist_[bank].sample(
            static_cast<std::uint64_t>(failures));
        writeRecoveryLatencyHist_[bank].sample(extra_cycles);
    }

    void noteBusyNackSent(BankId bank) { busyNacksSent_[bank].inc(); }

    // ---- Link/TSB flit corruption (drawn by the ejecting NI) ----

    /**
     * CRC verdict for a whole packet arriving at NI @p dest: combines
     * the per-flit, per-hop BERs over the minimal route from @p src.
     * @return true when at least one flit arrived corrupted.
     */
    bool
    drawPacketCorruption(NodeId src, NodeId dest, int num_flits)
    {
        if (!spec_.linkFaultsActive())
            return false;
        const double p = corruptionProbability(src, dest, num_flits);
        if (p <= 0.0)
            return false;
        return niStreams_[static_cast<std::size_t>(dest)].uniform() < p;
    }

    void notePacketCorrupted(NodeId ni) { linkPacketsCorrupted_[ni].inc(); }

    /** NI @p ni requested one packet retransmission of @p num_flits
     *  flits. Tracks both the episode count and the flit volume; the
     *  latter feeds the retransmit-flit energy term of computeEnergy(). */
    void
    noteRetransmit(NodeId ni, int num_flits)
    {
        linkRetransmits_[ni].inc();
        linkFlitsRetransmitted_[ni].inc(
            static_cast<std::uint64_t>(num_flits));
    }

    void notePacketDropped(NodeId ni) { linkPacketsDropped_[ni].inc(); }

    void
    notePacketRecovered(NodeId ni, int retransmits, Cycle extra_cycles)
    {
        linkPacketsRecovered_[ni].inc();
        retransmitsPerPacketHist_[ni].sample(
            static_cast<std::uint64_t>(retransmits));
        linkRecoveryLatencyHist_[ni].sample(extra_cycles);
    }

    // ---- Stuck router (checked by the router's tick) ----

    /** @return true when router @p node must skip this tick entirely. */
    bool
    routerStuckNow(NodeId node, Cycle now)
    {
        if (node != spec_.stuckRouter || now < spec_.stuckFrom
            || now > spec_.stuckTo)
            return false;
        routerStuckCycles_[node].inc();
        return true;
    }

    stats::Group &stats() { return stats_; }
    const stats::Group &stats() const { return stats_; }

  private:
    friend class snapshot::StateIO; //!< checkpoints the per-site streams

    /** Inline like the draw methods: called from noc code that does
     *  not link stacknoc_fault. */
    double
    corruptionProbability(NodeId src, NodeId dest, int num_flits) const
    {
        const Coord a = shape_.coord(src);
        const Coord b = shape_.coord(dest);
        const int mesh_hops = std::abs(a.x - b.x) + std::abs(a.y - b.y);
        const int tsb_hops = std::abs(a.layer - b.layer);

        // P(clean) = (1 - mesh_ber)^(flits * mesh_hops)
        //          * (1 - tsb_ber)^(flits * tsb_hops)
        double clean = 1.0;
        if (spec_.linkFlitBer > 0.0 && mesh_hops > 0)
            clean *= std::pow(1.0 - spec_.linkFlitBer,
                              static_cast<double>(num_flits * mesh_hops));
        if (spec_.tsbFlitBer > 0.0 && tsb_hops > 0)
            clean *= std::pow(1.0 - spec_.tsbFlitBer,
                              static_cast<double>(num_flits * tsb_hops));
        return 1.0 - clean;
    }

    static std::uint64_t siteSeed(std::uint64_t seed, std::uint64_t kind,
                                  std::uint64_t site);

    int nodes() const { return shape_.totalNodes(); }

    FaultSpec spec_;
    MeshShape shape_;

    std::vector<SplitMix64> bankStreams_; //!< one per bank
    std::vector<SplitMix64> niStreams_;   //!< one per node

    stats::Group stats_;
    // Per bank:
    stats::PerSite<stats::Counter> sttWriteFailures_;
    stats::PerSite<stats::Counter> sttWriteRetryRounds_;
    stats::PerSite<stats::Counter> sttWritesRecovered_;
    stats::PerSite<stats::Counter> sttWritesAbandoned_;
    stats::PerSite<stats::Counter> busyNacksSent_;
    stats::PerSite<stats::Histogram> retriesPerWriteHist_;
    stats::PerSite<stats::Histogram> writeRecoveryLatencyHist_;
    // Per node:
    stats::PerSite<stats::Counter> linkPacketsCorrupted_;
    stats::PerSite<stats::Counter> linkRetransmits_;
    stats::PerSite<stats::Counter> linkFlitsRetransmitted_;
    stats::PerSite<stats::Counter> linkPacketsRecovered_;
    stats::PerSite<stats::Counter> linkPacketsDropped_;
    stats::PerSite<stats::Counter> routerStuckCycles_;
    stats::PerSite<stats::Histogram> retransmitsPerPacketHist_;
    stats::PerSite<stats::Histogram> linkRecoveryLatencyHist_;
};

} // namespace stacknoc::fault

#endif // STACKNOC_FAULT_FAULT_INJECTOR_HH
