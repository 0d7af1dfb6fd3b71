#include "noc/network_interface.hh"

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "telemetry/trace.hh"

namespace stacknoc::noc {

namespace {

/** Packet ids are (node + 1) << kIdSeqBits | sequence. */
constexpr int kIdSeqBits = 40;

} // namespace

NetworkInterface::NetworkInterface(std::string niname, NodeId id,
                                   const NocParams &params,
                                   stats::Group &net_stats)
    : Ticking(std::move(niname)), id_(id), params_(params),
      injVcs_(static_cast<std::size_t>(params.totalVcs())),
      ejectVcs_(static_cast<std::size_t>(params.totalVcs())),
      packetsInjected_(net_stats.counter("packets_injected")),
      packetsEjected_(net_stats.counter("packets_ejected")),
      packetsDropped_(net_stats.counter("packets_dropped")),
      netLatency_(net_stats.average("packet_network_latency")),
      totalLatency_(net_stats.average("packet_total_latency")),
      niQueueLatency_(net_stats.average("packet_ni_queue_latency")),
      netLatencyHist_(net_stats.histogram("packet_network_latency_hist")),
      totalLatencyHist_(net_stats.histogram("packet_total_latency_hist"))
{
    for (auto &vc : ejectVcs_)
        vc.buffer.reserve(static_cast<std::size_t>(params.vcDepth));
}

void
NetworkInterface::connect(Link *to_router, Link *from_router)
{
    toRouter_ = to_router;
    fromRouter_ = from_router;
    // Ejected flits wake this NI; injection credits only set the
    // pending byte (see quiescent()).
    if (toRouter_ != nullptr)
        toRouter_->credit.bindReceiver(*this, &creditPending_,
                                       ChannelBase::OnPush::SignalOnly);
    if (fromRouter_ != nullptr)
        fromRouter_->data.bindReceiver(*this, &dataPending_,
                                       ChannelBase::OnPush::Wake);
    for (auto &vc : injVcs_)
        vc.credits = params_.vcDepth;
}

void
NetworkInterface::send(PacketPtr pkt, Cycle now)
{
    panic_if(pkt == nullptr, "NI %d: null packet", id_);
    panic_if(pkt->src != id_, "NI %d: packet source mismatch (%s)", id_,
             pkt->toString().c_str());
    const std::uint64_t seq = ++idsMinted_;
    panic_if(seq >> kIdSeqBits != 0, "NI %d: packet id stream overflowed",
             id_);
    pkt->id = static_cast<std::uint64_t>(id_ + 1) << kIdSeqBits | seq;
    pkt->createdAt = now;
    injectQueue_.push_back(std::move(pkt));
    wake();
}

bool
NetworkInterface::quiescent(Cycle) const
{
    if (!idle())
        return false;
    if (fromRouter_ && fromRouter_->data.inFlight() != 0)
        return false;
    // Injection credits in flight don't block quiescence: tick()
    // drains them before inject() reads the counters, and an idle NI
    // has nothing to inject, so a lazy drain on the next send()-driven
    // wake is bit-identical (see Router::quiescent).
    return true;
}

void
NetworkInterface::tick(Cycle now)
{
    // Credits returned by the router's Local input port. The pending
    // byte is set by every push and re-armed while credits are still
    // inside the link latency, so the poll is skipped only when the
    // channel is provably empty.
    if (toRouter_ && creditPending_ != 0) {
        creditPending_ = 0;
        while (auto c = toRouter_->credit.receive(now)) {
            auto &vc = injVcs_[static_cast<std::size_t>(c->vc)];
            ++vc.credits;
            panic_if(vc.credits > params_.vcDepth,
                     "NI %d: credit overflow", id_);
        }
        if (toRouter_->credit.inFlight() != 0)
            creditPending_ = 1;
    }
    receive(now);
    inject(now);
}

void
NetworkInterface::receive(Cycle now)
{
    if (!fromRouter_)
        return;
    // Arriving flits land in per-VC ejection buffers. Credits return
    // only when a flit is consumed, so a client refusing admission backs
    // traffic up into the router and onward through the network.
    if (dataPending_ != 0) {
        dataPending_ = 0;
        while (auto lf = fromRouter_->data.receive(now)) {
            auto &vc = ejectVcs_[static_cast<std::size_t>(lf->vc)];
            panic_if(static_cast<int>(vc.buffer.size()) >=
                         params_.vcDepth,
                     "NI %d: ejection buffer overflow", id_);
            vc.buffer.push_back(std::move(lf->flit));
            ++ejectHeld_;
        }
        if (fromRouter_->data.inFlight() != 0)
            dataPending_ = 1;
    }
    drainEjectBuffers(now);
}

NetworkClient *
NetworkInterface::targetFor(const Packet &pkt) const
{
    if ((pkt.cls == PacketClass::MemReq ||
         pkt.cls == PacketClass::MemWrite) && memClient_) {
        return memClient_;
    }
    return client_;
}

void
NetworkInterface::drainEjectBuffers(Cycle now)
{
    for (std::size_t v = 0; v < ejectVcs_.size(); ++v) {
        auto &vc = ejectVcs_[v];
        while (!vc.buffer.empty()) {
            Flit &front = vc.buffer.front();
            if (front.head() && !vc.committed && !vc.dropping) {
                // CRC check of the reassembled packet. A corrupted
                // packet is NACKed to its sender and the retransmission
                // occupies the ejector for a fixed round trip; past the
                // retransmit budget the packet is dropped (accounted,
                // never hung).
                if (faults_ && !vc.crcClean) {
                    if (now < vc.retxHoldUntil)
                        break; // retransmission still in flight
                    if (faults_->drawPacketCorruption(front.pkt->src, id_,
                                                      front.pkt->numFlits)) {
                        if (vc.retxAttempts == 0)
                            faults_->notePacketCorrupted(id_);
                        ++vc.retxAttempts;
                        if (vc.retxAttempts
                            > faults_->spec().flitRetries) {
                            faults_->notePacketDropped(id_);
                            vc.dropping = true;
                            // fall through: consume flits, return
                            // credits, never dispatch
                        } else {
                            faults_->noteRetransmit(
                                id_, front.pkt->numFlits);
                            flitsRetransmittedTotal_ +=
                                static_cast<std::uint64_t>(
                                    front.pkt->numFlits);
                            vc.retxHoldUntil =
                                now + faults_->spec().flitRetryPenalty;
                            break;
                        }
                    } else {
                        if (vc.retxAttempts > 0) {
                            faults_->notePacketRecovered(
                                id_, vc.retxAttempts,
                                static_cast<Cycle>(vc.retxAttempts)
                                    * faults_->spec().flitRetryPenalty);
                        }
                        vc.crcClean = true;
                    }
                }
                if (!vc.dropping) {
                    // Admission control happens once, at the head.
                    // ProbeAck, BusyNack and unknown-client packets are
                    // always sunk.
                    NetworkClient *target =
                        front.pkt->cls == PacketClass::ProbeAck
                                || front.pkt->cls == PacketClass::BusyNack
                            ? nullptr
                            : targetFor(*front.pkt);
                    if (target && !target->tryAccept(*front.pkt))
                        break; // hold; no credit returned
                    vc.committed = true;
                    vc.committedPkt = front.pkt;
                }
            }
            fromRouter_->credit.push(now, Credit{static_cast<int>(v)});
            const bool is_tail = front.tail();
            PacketPtr pkt = front.pkt;
            vc.buffer.pop_front();
            --ejectHeld_;
            if (is_tail && vc.dropping) {
                vc.dropping = false;
                vc.crcClean = false;
                vc.retxAttempts = 0;
                vc.retxHoldUntil = 0;
                packetsDropped_.inc();
                continue;
            }
            if (is_tail) {
                vc.committed = false;
                vc.committedPkt = nullptr;
                vc.crcClean = false;
                vc.retxAttempts = 0;
                vc.retxHoldUntil = 0;
                pkt->ejectedAt = now;
                packetsEjected_.inc();
                if (pkt->injectedAt != kCycleNever) {
                    netLatency_.sample(now - pkt->injectedAt);
                    totalLatency_.sample(now - pkt->createdAt);
                    netLatencyHist_.sample(now - pkt->injectedAt);
                    totalLatencyHist_.sample(now - pkt->createdAt);
                    if (auto *t = telemetry::tracer();
                        t && t->tracked(pkt->id)) {
                        t->record(telemetry::TraceEvent::Eject, pkt->id,
                                  static_cast<std::uint8_t>(pkt->cls),
                                  id_, now,
                                  static_cast<std::int64_t>(
                                      now - pkt->injectedAt));
                    }
                }
                dispatch(std::move(pkt), now);
            }
        }
    }
}

void
NetworkInterface::dispatch(PacketPtr pkt, Cycle now)
{
    if (pkt->cls == PacketClass::ProbeAck) {
        if (probeSink_)
            probeSink_->onProbeAck(*pkt, now);
        return;
    }

    // A bank reporting itself busy past the predicted window (write
    // verify-retry in flight); the parent policy widens its horizon.
    if (pkt->cls == PacketClass::BusyNack) {
        if (probeSink_)
            probeSink_->onBusyNack(*pkt, now);
        return;
    }

    // Echo a window-based-estimator probe back to the parent router node.
    if (pkt->probeStamp >= 0 && pkt->probeParent != kInvalidNode &&
        isRestrictedRequest(pkt->cls)) {
        auto ack = makePacket(PacketClass::ProbeAck, id_, pkt->probeParent);
        ack->info.aux = static_cast<std::uint16_t>(pkt->probeStamp);
        ack->info.origin = static_cast<std::uint32_t>(pkt->destBank);
        send(std::move(ack), now);
    }

    if (NetworkClient *target = targetFor(*pkt))
        target->deliver(std::move(pkt), now);
}

void
NetworkInterface::inject(Cycle now)
{
    if (!toRouter_)
        return;

    // Assign queued packets to free VCs of their virtual network. One
    // pass rotates the queue: each packet leaves the front and either
    // takes a VC or goes to the back, so the ones left keep their order.
    for (std::size_t n = injectQueue_.size(); n > 0; --n) {
        PacketPtr pkt = std::move(injectQueue_.front());
        injectQueue_.pop_front();
        const int vn = vnetOf(pkt->cls);
        const int base = params_.vnetBase(vn);
        int free_vc = -1;
        for (int v = base;
             v < base + params_.vcsPerVnet[static_cast<std::size_t>(vn)];
             ++v) {
            if (!injVcs_[static_cast<std::size_t>(v)].pkt) {
                free_vc = v;
                break;
            }
        }
        if (free_vc < 0) {
            injectQueue_.push_back(std::move(pkt));
            continue;
        }
        auto &vc = injVcs_[static_cast<std::size_t>(free_vc)];
        vc.pkt = std::move(pkt);
        vc.nextSeq = 0;
    }

    // Send one flit per cycle (the NI-router link is a regular link).
    const int vcs = static_cast<int>(injVcs_.size());
    for (int off = 0; off < vcs; ++off) {
        const int vi = (rrInjVc_ + off) % vcs;
        auto &vc = injVcs_[static_cast<std::size_t>(vi)];
        if (!vc.pkt || vc.credits <= 0)
            continue;
        Flit flit;
        flit.pkt = vc.pkt;
        flit.seq = vc.nextSeq;
        toRouter_->data.push(now, LinkFlit{flit, vi});
        --vc.credits;
        if (flit.head()) {
            vc.pkt->injectedAt = now;
            packetsInjected_.inc();
            niQueueLatency_.sample(now - vc.pkt->createdAt);
            if (auto *t = telemetry::tracer();
                t && t->tracked(vc.pkt->id)) {
                t->record(telemetry::TraceEvent::Inject, vc.pkt->id,
                          static_cast<std::uint8_t>(vc.pkt->cls), id_,
                          now,
                          static_cast<std::int64_t>(
                              now - vc.pkt->createdAt));
            }
        }
        ++vc.nextSeq;
        if (vc.nextSeq >= vc.pkt->numFlits)
            vc.pkt = nullptr; // tail sent; free the injection VC
        rrInjVc_ = (vi + 1) % vcs;
        break;
    }
}

} // namespace stacknoc::noc
