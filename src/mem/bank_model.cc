#include "mem/bank_model.hh"

#include "common/logging.hh"

namespace stacknoc::mem {

BankModel::BankModel(CacheTech tech, stats::Group &group)
    : tech_(tech), params_(bankTech(tech)),
      reads_(group.counter("bank_reads")),
      writes_(group.counter("bank_writes")),
      busyCycles_(group.counter("bank_busy_cycles")),
      aborts_(group.counter("bank_write_aborts"))
{
}

Cycle
BankModel::startRead(Cycle now)
{
    panic_if(busy(now), "bank read started while busy");
    busyUntil_ = now + params_.readCycles;
    currentIsWrite_ = false;
    reads_.inc();
    ++readsTotal_;
    busyCycles_.inc(params_.readCycles);
    return busyUntil_;
}

Cycle
BankModel::startWrite(Cycle now)
{
    panic_if(busy(now), "bank write started while busy");
    busyUntil_ = now + params_.writeCycles;
    currentIsWrite_ = true;
    writes_.inc();
    ++writesTotal_;
    busyCycles_.inc(params_.writeCycles);
    return busyUntil_;
}

void
BankModel::abort(Cycle now)
{
    panic_if(!busy(now), "abort with no access in flight");
    // The aborted access stays fully charged in bank_busy_cycles.
    busyUntil_ = now;
    aborts_.inc();
}

} // namespace stacknoc::mem
