/**
 * @file
 * Tunable parameters of the on-chip network (Table 1 of the paper).
 */

#ifndef STACKNOC_NOC_PARAMS_HH
#define STACKNOC_NOC_PARAMS_HH

#include <array>
#include <numeric>

#include "common/types.hh"
#include "noc/packet.hh"

namespace stacknoc::noc {

/**
 * Network configuration. Defaults reproduce the paper's Table 1:
 * 2-stage wormhole routers, 6 VCs per port (2 per virtual network),
 * 5-flit buffers, 9-flit data packets, 1-flit address packets, 128-bit
 * links, and 256-bit region TSBs carrying two flits per cycle.
 */
struct NocParams
{
    /** VCs per virtual network (REQ, WB, RESP, COH); the sum is the
     *  paper's 6 VCs per port. Writes get two lanes: they are the class
     *  the STT-RAM-aware scheme parks in input VCs. */
    std::array<int, kNumVnets> vcsPerVnet{2, 2, 1, 1};

    /** Flit buffer depth per VC. */
    int vcDepth = 5;

    /** Link traversal latency in cycles. */
    Cycle linkLatency = 1;

    /**
     * Flits per cycle on a 256-bit region TSB (the paper's XShare-style
     * flit combining doubles vertical request bandwidth).
     */
    int tsbBandwidth = 2;

    /** Flits per cycle on regular 128-bit links and plain TSVs. */
    int linkBandwidth = 1;

    /** @return total VCs per port. */
    int
    totalVcs() const
    {
        return std::accumulate(vcsPerVnet.begin(), vcsPerVnet.end(), 0);
    }

    /** @return first VC index of a virtual network. */
    int
    vnetBase(int vnet) const
    {
        int base = 0;
        for (int v = 0; v < vnet; ++v)
            base += vcsPerVnet[static_cast<std::size_t>(v)];
        return base;
    }

    /** @return the virtual network that VC index @p vc belongs to. */
    int
    vnetOfVc(int vc) const
    {
        int base = 0;
        for (int v = 0; v < kNumVnets; ++v) {
            base += vcsPerVnet[static_cast<std::size_t>(v)];
            if (vc < base)
                return v;
        }
        return kNumVnets - 1;
    }
};

} // namespace stacknoc::noc

#endif // STACKNOC_NOC_PARAMS_HH
