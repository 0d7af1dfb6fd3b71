#include "telemetry/energy.hh"

namespace stacknoc::telemetry {

EnergyEvents
EnergyEvents::since(const EnergyEvents &base) const
{
    EnergyEvents d;
    d.bankReads = bankReads - base.bankReads;
    d.bankWrites = bankWrites - base.bankWrites;
    d.retryRounds = retryRounds - base.retryRounds;
    d.flitsBuffered = flitsBuffered - base.flitsBuffered;
    d.flitsSwitched = flitsSwitched - base.flitsSwitched;
    d.flitsRetransmitted = flitsRetransmitted - base.flitsRetransmitted;
    return d;
}

EnergyEvents &
EnergyEvents::operator+=(const EnergyEvents &o)
{
    bankReads += o.bankReads;
    bankWrites += o.bankWrites;
    retryRounds += o.retryRounds;
    flitsBuffered += o.flitsBuffered;
    flitsSwitched += o.flitsSwitched;
    flitsRetransmitted += o.flitsRetransmitted;
    return *this;
}

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    cacheDynamicUJ += o.cacheDynamicUJ;
    cacheLeakageUJ += o.cacheLeakageUJ;
    netDynamicUJ += o.netDynamicUJ;
    netLeakageUJ += o.netLeakageUJ;
    retryWriteUJ += o.retryWriteUJ;
    retransmitFlitUJ += o.retransmitFlitUJ;
    return *this;
}

EnergyBreakdown
energyOf(const Activity &activity, Cycle cycles, const EnergyParams &p,
         double *joules)
{
    const EnergyEvents &ev = activity.events;
    const double seconds = p.seconds(cycles);
    auto d = [](std::uint64_t n) { return static_cast<double>(n); };

    // Event terms in nJ, leakage in J.
    const double cacheDynNJ =
        d(ev.bankReads) * p.bankReadNJ + d(ev.bankWrites) * p.bankWriteNJ;
    const double cacheLeakJ =
        p.bankLeakageMW * 1e-3 * activity.banks * seconds;
    const double netDynNJ =
        d(ev.flitsBuffered) * p.bufferWriteNJ +
        d(ev.flitsSwitched) *
            (p.bufferReadNJ + p.crossbarNJ + p.arbiterNJ + p.linkNJ);
    const double netLeakJ =
        p.routerLeakageMW * 1e-3 * activity.routers * seconds;
    const double retryNJ = d(ev.retryRounds) * p.retryWriteNJ;
    const double retxNJ = d(ev.flitsRetransmitted) * p.retransmitFlitNJ;

    if (joules != nullptr) {
        *joules = ((netDynNJ + retxNJ) * 1e-9 + netLeakJ) +
                  ((cacheDynNJ + retryNJ) * 1e-9 + cacheLeakJ);
    }
    EnergyBreakdown e;
    e.cacheDynamicUJ = cacheDynNJ * 1e-3;
    e.cacheLeakageUJ = cacheLeakJ * 1e6;
    e.netDynamicUJ = netDynNJ * 1e-3;
    e.netLeakageUJ = netLeakJ * 1e6;
    e.retryWriteUJ = retryNJ * 1e-3;
    e.retransmitFlitUJ = retxNJ * 1e-3;
    return e;
}

} // namespace stacknoc::telemetry
