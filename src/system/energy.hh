/**
 * @file
 * Uncore (cache + interconnect) energy of a run, the quantity of the
 * paper's Figure 8: the telemetry energy model (telemetry/energy.hh)
 * applied to the statistics groups' event counters.
 */

#ifndef STACKNOC_SYSTEM_ENERGY_HH
#define STACKNOC_SYSTEM_ENERGY_HH

#include "common/types.hh"
#include "mem/tech.hh"
#include "sim/stats.hh"
#include "telemetry/energy.hh"

namespace stacknoc::system {

using telemetry::EnergyBreakdown;

/** The energy model with @p tech's Table 2 bank energies. */
telemetry::EnergyParams energyParams(mem::CacheTech tech);

/**
 * Compute the uncore energy of a run.
 *
 * @param cache_stats group holding bank_reads / bank_writes.
 * @param net_stats group holding flits_buffered / flits_switched.
 * @param tech L2 bank technology.
 * @param num_banks banks in the system.
 * @param num_routers routers in the system.
 * @param cycles measured cycles (at 3 GHz).
 * @param fault_stats fault-injector group holding
 *        stt_write_retry_rounds / link_flits_retransmitted, or null
 *        when no faults are configured (the fault terms stay zero).
 */
EnergyBreakdown computeEnergy(const stats::Group &cache_stats,
                              const stats::Group &net_stats,
                              mem::CacheTech tech, int num_banks,
                              int num_routers, Cycle cycles,
                              const stats::Group *fault_stats = nullptr);

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_ENERGY_HH
