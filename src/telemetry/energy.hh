/**
 * @file
 * The uncore energy model of the paper's Figure 8, written once: cache
 * bank energies from Table 2 plus Orion-style router and link event
 * energies, applied to six event counts and the leaking sites of a
 * window. The end-of-run total (system::computeEnergy), every streaming
 * power frame and Metrics::energy all go through energyOf(), so the
 * paths can differ only by the order their partial sums are added in.
 */

#ifndef STACKNOC_TELEMETRY_ENERGY_HH
#define STACKNOC_TELEMETRY_ENERGY_HH

#include <cstdint>

#include "common/types.hh"

namespace stacknoc::telemetry {

/**
 * Event energies (nJ) and leakage (mW) at 32 nm, 3 GHz. The bank terms
 * depend on the cache technology; system::energyParams() fills them in
 * from mem::bankTech().
 */
struct EnergyParams
{
    // Per-bank (cache-layer) events, Table 2.
    double bankReadNJ = 0.0;
    double bankWriteNJ = 0.0;
    double bankLeakageMW = 0.0; //!< per bank

    // Per-router events.
    double bufferWriteNJ = 0.012; //!< per flit buffered
    double bufferReadNJ = 0.010;  //!< per flit read for traversal
    double crossbarNJ = 0.015;    //!< per flit switched
    double arbiterNJ = 0.001;     //!< per allocation
    double linkNJ = 0.017;        //!< per flit-hop on a 128-bit link
    double routerLeakageMW = 5.0; //!< per router

    // Fault-path event energies. A failed STT-RAM write verify re-runs
    // the write itself through BankModel::startWrite (already counted
    // in bank_writes); retryWriteNJ is the *additional* verify-sense
    // read and control overhead per retry round, sized like an STT-RAM
    // array read (Table 2). retransmitFlitNJ charges the NACK plus the
    // re-serialisation of one flit over the last-hop link; the
    // retransmission is otherwise modelled as a pure latency penalty,
    // so without this term fault recovery would look energy-free.
    double retryWriteNJ = 0.4;       //!< per failed-verify write round
    double retransmitFlitNJ = 0.055; //!< per retransmitted flit

    double clockGHz = 3.0; //!< cycle -> seconds conversion

    /** Wall time @p cycles span at clockGHz. */
    double
    seconds(Cycle cycles) const
    {
        return static_cast<double>(cycles) / (clockGHz * 1e9);
    }
};

/** The six energy-bearing event counts of a window. */
struct EnergyEvents
{
    std::uint64_t bankReads = 0;
    std::uint64_t bankWrites = 0;  //!< includes re-run retry rounds
    std::uint64_t retryRounds = 0; //!< failed-verify write rounds
    std::uint64_t flitsBuffered = 0;
    std::uint64_t flitsSwitched = 0;
    std::uint64_t flitsRetransmitted = 0;

    /** Events between cumulative readings @p base and this one. */
    EnergyEvents since(const EnergyEvents &base) const;

    EnergyEvents &operator+=(const EnergyEvents &o);
};

/** What a window costs: its events and the sites leaking through it. */
struct Activity
{
    int banks = 0;   //!< leaking cache banks
    int routers = 0; //!< leaking routers
    EnergyEvents events;
};

/** Uncore energy split, in microjoules. */
struct EnergyBreakdown
{
    double cacheDynamicUJ = 0.0;
    double cacheLeakageUJ = 0.0;
    double netDynamicUJ = 0.0;
    double netLeakageUJ = 0.0;
    double retryWriteUJ = 0.0;     //!< STT-RAM verify-retry overhead
    double retransmitFlitUJ = 0.0; //!< CRC-failure retransmissions

    double
    totalUJ() const
    {
        return cacheDynamicUJ + cacheLeakageUJ + netDynamicUJ +
               netLeakageUJ + retryWriteUJ + retransmitFlitUJ;
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
};

/**
 * The energy of @p activity over a window of @p cycles. When @p joules
 * is given it also receives the window's total in joules, summed
 * router side first, then bank side: the power grids' rounding, which
 * differs from totalUJ() * 1e-6 in the last bits.
 */
EnergyBreakdown energyOf(const Activity &activity, Cycle cycles,
                         const EnergyParams &params,
                         double *joules = nullptr);

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_ENERGY_HH
