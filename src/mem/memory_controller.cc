#include "mem/memory_controller.hh"

#include "common/logging.hh"

namespace stacknoc::mem {

MemoryController::MemoryController(std::string mcname, NodeId node,
                                   noc::NetworkInterface &ni,
                                   const DramParams &params,
                                   stats::Group &group)
    : Ticking(std::move(mcname)), node_(node), ni_(ni), params_(params),
      reads_(group.counter("dram_reads")),
      writes_(group.counter("dram_writes")),
      queueLatency_(group.average("dram_queue_latency"))
{
}

void
MemoryController::deliver(noc::PacketPtr pkt, Cycle now)
{
    wake();
    if (pkt->cls == noc::PacketClass::MemWrite) {
        // Fire-and-forget DRAM writeback; consumes bandwidth budget by
        // occupying an in-flight slot like any other access.
        writes_.inc();
    } else {
        panic_if(pkt->cls != noc::PacketClass::MemReq,
                 "memory controller got %s", pkt->toString().c_str());
        reads_.inc();
    }
    (void)now;
    queue_.push_back(std::move(pkt));
}

void
MemoryController::tick(Cycle now)
{
    // Complete finished accesses and inject fill responses.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (now < it->doneAt) {
            ++it;
            continue;
        }
        if (it->pkt->cls == noc::PacketClass::MemReq) {
            auto resp = noc::makePacket(noc::PacketClass::MemResp, node_,
                                        it->pkt->src, it->pkt->addr);
            resp->destBank = it->pkt->destBank;
            resp->info = it->pkt->info;
            ni_.send(std::move(resp), now);
        }
        it = inflight_.erase(it);
    }

    // Start new accesses while slots are free.
    while (!queue_.empty() &&
           static_cast<int>(inflight_.size()) < params_.maxInFlight) {
        noc::PacketPtr pkt = std::move(queue_.front());
        queue_.pop_front();
        queueLatency_.sample(now - pkt->ejectedAt);
        inflight_.push_back(Access{std::move(pkt),
                                   now + params_.accessCycles});
    }
}

} // namespace stacknoc::mem
