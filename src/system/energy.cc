#include "system/energy.hh"

namespace stacknoc::system {

telemetry::EnergyParams
energyParams(mem::CacheTech tech)
{
    const mem::BankTechParams &bank = mem::bankTech(tech);
    telemetry::EnergyParams p;
    p.bankReadNJ = bank.readEnergyNJ;
    p.bankWriteNJ = bank.writeEnergyNJ;
    p.bankLeakageMW = bank.leakagePowerMW;
    p.clockGHz = mem::kClockGHz;
    return p;
}

EnergyBreakdown
computeEnergy(const stats::Group &cache_stats,
              const stats::Group &net_stats, mem::CacheTech tech,
              int num_banks, int num_routers, Cycle cycles,
              const stats::Group *fault_stats)
{
    auto counter = [](const stats::Group *g, const char *statname) {
        const stats::Counter *c =
            g != nullptr ? g->findCounter(statname) : nullptr;
        return c != nullptr ? c->value() : std::uint64_t{0};
    };

    telemetry::Activity a;
    a.banks = num_banks;
    a.routers = num_routers;
    a.events.bankReads = counter(&cache_stats, "bank_reads");
    a.events.bankWrites = counter(&cache_stats, "bank_writes");
    a.events.retryRounds = counter(fault_stats, "stt_write_retry_rounds");
    a.events.flitsBuffered = counter(&net_stats, "flits_buffered");
    a.events.flitsSwitched = counter(&net_stats, "flits_switched");
    a.events.flitsRetransmitted =
        counter(fault_stats, "link_flits_retransmitted");
    return telemetry::energyOf(a, cycles, energyParams(tech));
}

} // namespace stacknoc::system
