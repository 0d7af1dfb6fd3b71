#include "coherence/l2_bank.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "fault/fault_injector.hh"

namespace stacknoc::coherence {

namespace {

std::uint64_t
coreBit(CoreId c)
{
    return 1ULL << static_cast<unsigned>(c);
}

} // namespace

L2Bank::L2Bank(std::string bname, BankId bank, NodeId node,
               noc::PacketSender &out, const L2Config &config,
               stats::Group &group)
    : Ticking(std::move(bname)), bank_(bank), node_(node), out_(out),
      config_(config),
      ctrl_(config.tech, config.bankCtrl, group,
            [this](BlockAddr addr, Cycle t) { respondAndFinish(addr, t); },
            "l2bank" + std::to_string(bank), node),
      rng_(config.seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(bank)),
      getS_(group.counter("l2_gets")),
      getM_(group.counter("l2_getm")),
      putM_(group.counter("l2_putm")),
      storeWrites_(group.counter("l2_stores")),
      l2Misses_(group.counter("l2_misses")),
      stalePutM_(group.counter("l2_stale_putm")),
      invsSent_(group.counter("l2_invs_sent")),
      recallsSent_(group.counter("l2_recalls_sent")),
      blockedRequests_(group.counter("l2_blocked_requests")),
      admissionRefusals_(group.counter("l2_admission_refusals")),
      residencyHist_(group.histogram("l2_residency_hist"))
{
    if (config_.realTags)
        tags_ = std::make_unique<cache::TagArray>(config_.sets,
                                                  config_.ways);
    fatal_if(config_.mcNodes.empty(), "L2 bank needs memory controllers");
    if (config_.faultInjector)
        ctrl_.setFaultInjector(config_.faultInjector, bank_);
}

void
L2Bank::sendToCore(CoreId core, noc::PacketClass cls, CohKind kind,
                   BlockAddr addr, Cycle now, std::uint16_t aux,
                   std::uint8_t flags)
{
    auto pkt = noc::makePacket(cls, node_, core, addr);
    pkt->destBank = bank_;
    setKind(*pkt, kind, core);
    pkt->info.aux = aux;
    pkt->info.flags = flags;
    out_.send(std::move(pkt), now);
}

void
L2Bank::bankAccess(bool is_write, BlockAddr addr, Cycle now)
{
    mem::BankRequest req;
    req.isWrite = is_write;
    req.addr = addr;
    if (auto it = tbes_.find(addr); it != tbes_.end()) {
        req.tracePktId = it->second.pktId;
        req.traceCls = it->second.pktCls;
    }
    ctrl_.enqueue(req, now);
}

NodeId
L2Bank::mcFor(BlockAddr addr) const
{
    return config_.mcNodes[static_cast<std::size_t>(
        (addr >> 6) % config_.mcNodes.size())];
}

bool
L2Bank::isL2Hit(const noc::Packet &pkt)
{
    if (config_.realTags)
        return tags_->find(pkt.addr) != nullptr;
    return (pkt.info.flags & kFlagL2Hit) != 0;
}

const DirEntry *
L2Bank::dirEntry(BlockAddr addr) const
{
    auto it = dir_.find(addr);
    return it == dir_.end() ? nullptr : &it->second;
}

bool
L2Bank::idle(Cycle now) const
{
    return tbes_.empty() && ctrl_.idle(now);
}

bool
L2Bank::quiescent(Cycle now) const
{
    return idle(now) && lastNackedEpisode_ == ctrl_.retryEpisodes();
}

void
L2Bank::countAdmitted(int &requests, int &writes) const
{
    requests = 0;
    writes = 0;
    auto classify = [&](noc::PacketClass cls) {
        if (cls == noc::PacketClass::ReadReq ||
            cls == noc::PacketClass::WriteReq) {
            ++requests;
        } else if (cls == noc::PacketClass::StoreWrite ||
                   cls == noc::PacketClass::WritebackReq) {
            ++writes;
        }
    };
    for (const auto &[addr, tbe] : tbes_) {
        (void)addr;
        switch (tbe.kind) {
          case CohKind::GetS:
          case CohKind::GetM:
            // The slot is released when the grant goes out; the TBE
            // then lingers in WaitUnblock until the requester installs.
            if (tbe.phase != Phase::WaitUnblock)
                ++requests;
            break;
          case CohKind::WriteL2:
          case CohKind::PutM:
            ++writes;
            break;
          default:
            break;
        }
        for (const auto &pkt : tbe.blocked)
            classify(pkt->cls);
    }
}

bool
L2Bank::tryAccept(const noc::Packet &pkt)
{
    // Demand reads/upgrades and writes are bounded separately;
    // coherence and memory responses always sink.
    if (pkt.cls == noc::PacketClass::ReadReq ||
        pkt.cls == noc::PacketClass::WriteReq) {
        if (admittedRequests_ >= config_.requestCap) {
            admissionRefusals_.inc();
            return false;
        }
        ++admittedRequests_;
        return true;
    }
    if (pkt.cls == noc::PacketClass::StoreWrite ||
        pkt.cls == noc::PacketClass::WritebackReq) {
        // Hold-miss recovery: while the bank port is stuck in a
        // write-verify-retry round the parent's prediction has gone
        // stale, so new write-class packets are refused (retry-later);
        // the BusyNack sent from tick() re-opens the parent's window.
        // Progress-safe for the same reason the writeCap bound is.
        if (ctrl_.writeRetryActive()) {
            admissionRefusals_.inc();
            return false;
        }
        if (admittedWrites_ >= config_.writeCap) {
            admissionRefusals_.inc();
            return false;
        }
        ++admittedWrites_;
        return true;
    }
    return true;
}

void
L2Bank::deliver(noc::PacketPtr pkt, Cycle now)
{
    wake();
    if (pkt->cls == noc::PacketClass::MemResp) {
        handleMemResp(std::move(pkt), now);
        return;
    }
    switch (kindOf(*pkt)) {
      case CohKind::GetS:
      case CohKind::GetM:
      case CohKind::WriteL2:
      case CohKind::PutM:
        handleRequest(std::move(pkt), now);
        break;
      case CohKind::InvAck:
        handleInvAck(std::move(pkt), now);
        break;
      case CohKind::Unblock: {
        auto it = tbes_.find(pkt->addr);
        if (it != tbes_.end() && it->second.phase == Phase::WaitUnblock)
            finish(pkt->addr, now);
        break;
      }
      case CohKind::RecallData: {
        auto it = tbes_.find(pkt->addr);
        if (it != tbes_.end() && it->second.phase == Phase::WaitRecall)
            handleRecallPayload(pkt->addr, true, now);
        break;
      }
      case CohKind::RecallAck: {
        auto it = tbes_.find(pkt->addr);
        if (it == tbes_.end() || it->second.phase != Phase::WaitRecall)
            break; // stale
        // Even when the owner's PutM is in flight we proceed from the
        // bank copy at once: waiting could deadlock against the bounded
        // write admission (the PutM may sit behind refused writes), and
        // the straggler PutM is simply dropped as stale later. The
        // timing difference is a single bank write, which the stale-
        // PutM accounting deliberately forgoes.
        handleRecallPayload(pkt->addr, false, now);
        break;
      }
      default:
        panic("L2 bank %d: unexpected packet %s", bank_,
              pkt->toString().c_str());
    }
}

void
L2Bank::handleRequest(noc::PacketPtr pkt, Cycle now)
{
    const BlockAddr addr = pkt->addr;
    auto it = tbes_.find(addr);
    if (it != tbes_.end()) {
        Tbe &tbe = it->second;
        // A PutM racing the Recall we sent: take it as the recall
        // payload and acknowledge the writer.
        if (kindOf(*pkt) == CohKind::PutM &&
            tbe.phase == Phase::WaitRecall &&
            originOf(*pkt) == tbe.recallOwner) {
            --admittedWrites_; // consumed as the recall payload
            sendToCore(originOf(*pkt), noc::PacketClass::Ack,
                       CohKind::WbAck, addr, now);
            handleRecallPayload(addr, true, now);
            return;
        }
        blockedRequests_.inc();
        tbe.blocked.push_back(std::move(pkt));
        return;
    }
    startTransaction(std::move(pkt), now);
}

void
L2Bank::startTransaction(noc::PacketPtr pkt, Cycle now)
{
    const BlockAddr addr = pkt->addr;
    const CohKind kind = kindOf(*pkt);
    const CoreId req = originOf(*pkt);

    if (kind == CohKind::PutM) {
        // Stale writebacks (the owner was recalled first) are dropped:
        // the directory's copy is newer or ownership has moved on.
        auto d = dir_.find(addr);
        const bool valid_owner =
            d != dir_.end() &&
            (d->second.state == DirEntry::State::M ||
             d->second.state == DirEntry::State::E) &&
            d->second.owner == req;
        if (!valid_owner) {
            stalePutM_.inc();
            --admittedWrites_;
            sendToCore(req, noc::PacketClass::Ack, CohKind::WbAck, addr,
                       now);
            return;
        }
        putM_.inc();
    } else if (kind == CohKind::GetS) {
        getS_.inc();
    } else if (kind == CohKind::WriteL2) {
        storeWrites_.inc();
    } else {
        getM_.inc();
    }

    Tbe tbe;
    tbe.kind = kind;
    tbe.requester = req;
    tbe.l2Hit = isL2Hit(*pkt);
    tbe.pktId = pkt->id;
    tbe.pktCls = static_cast<std::uint8_t>(pkt->cls);
    tbe.arrivedAt = now;
    auto [it, inserted] = tbes_.emplace(addr, std::move(tbe));
    panic_if(!inserted, "TBE already present");

    switch (kind) {
      case CohKind::GetS:
        startGetS(it->second, addr, now);
        break;
      case CohKind::GetM:
        startGetM(it->second, addr, now);
        break;
      case CohKind::WriteL2:
        startWriteL2(it->second, addr, now);
        break;
      case CohKind::PutM:
        startPutM(it->second, addr, now);
        break;
      default:
        panic("bad transaction kind");
    }
}

void
L2Bank::startGetS(Tbe &tbe, BlockAddr addr, Cycle now)
{
    auto d = dir_.find(addr);
    if (d == dir_.end()) {
        tbe.grant = Grant::E; // MESI: sole reader gets Exclusive
        serveFromL2(addr, now);
        return;
    }
    DirEntry &e = d->second;
    if (e.state == DirEntry::State::S) {
        tbe.grant = Grant::S;
        tbe.l2Hit = true; // inclusive: shared data is present in L2
        serveFromL2(addr, now);
        return;
    }
    // E or M.
    if (e.owner == tbe.requester) {
        // The owner silently dropped a clean Exclusive copy and is
        // re-requesting; the L2 copy is valid.
        dir_.erase(d);
        tbe.grant = Grant::E;
        tbe.l2Hit = true;
        serveFromL2(addr, now);
        return;
    }
    tbe.grant = Grant::S;
    tbe.phase = Phase::WaitRecall;
    tbe.recallOwner = e.owner;
    recallsSent_.inc();
    sendToCore(e.owner, noc::PacketClass::CohCtrl, CohKind::Recall, addr,
               now);
}

void
L2Bank::startGetM(Tbe &tbe, BlockAddr addr, Cycle now)
{
    tbe.grant = Grant::M;
    auto d = dir_.find(addr);
    if (d == dir_.end()) {
        serveFromL2(addr, now);
        return;
    }
    DirEntry &e = d->second;
    if (e.state == DirEntry::State::S) {
        tbe.upgrade = (e.sharers & coreBit(tbe.requester)) != 0;
        tbe.l2Hit = true;
        int acks = 0;
        for (CoreId c = 0; c < 64; ++c) {
            if (c == tbe.requester || !(e.sharers & coreBit(c)))
                continue;
            invsSent_.inc();
            sendToCore(c, noc::PacketClass::CohCtrl, CohKind::Inv, addr,
                       now);
            ++acks;
        }
        tbe.pendingAcks = acks;
        if (acks == 0)
            afterInvAcks(addr, now);
        else
            tbe.phase = Phase::WaitInvAcks;
        return;
    }
    // E or M.
    if (e.owner == tbe.requester) {
        dir_.erase(d);
        tbe.l2Hit = true;
        serveFromL2(addr, now);
        return;
    }
    tbe.phase = Phase::WaitRecall;
    tbe.recallOwner = e.owner;
    recallsSent_.inc();
    sendToCore(e.owner, noc::PacketClass::CohCtrl, CohKind::Recall, addr,
               now);
}

void
L2Bank::startPutM(Tbe &, BlockAddr addr, Cycle now)
{
    // A long STT-RAM write.
    bankAccess(true, addr, now);
}

void
L2Bank::startWriteL2(Tbe &tbe, BlockAddr addr, Cycle now)
{
    // The no-allocate store write — the paper's "L2 write": a fire-and-
    // forget 33-cycle occupation of the bank's write port. Copies held
    // by L1s must be invalidated or recalled first.
    auto d = dir_.find(addr);
    if (d == dir_.end()) {
        if (tbe.l2Hit) {
            bankAccess(true, addr, now);
            return;
        }
        // Miss: fetch the line from memory, then merge-write it.
        l2Misses_.inc();
        tbe.phase = Phase::WaitMem;
        auto req = noc::makePacket(noc::PacketClass::MemReq, node_,
                                   mcFor(addr), addr);
        req->destBank = bank_;
        out_.send(std::move(req), now);
        return;
    }
    DirEntry &e = d->second;
    if (e.state == DirEntry::State::S) {
        // Invalidate EVERY sharer, including the requester: a
        // StoreWrite rides the write virtual network and can arrive
        // after a younger load made its own sender a sharer.
        tbe.l2Hit = true;
        int acks = 0;
        for (CoreId c = 0; c < 64; ++c) {
            if (!(e.sharers & coreBit(c)))
                continue;
            invsSent_.inc();
            sendToCore(c, noc::PacketClass::CohCtrl, CohKind::Inv, addr,
                       now);
            ++acks;
        }
        dir_.erase(d);
        tbe.pendingAcks = acks;
        if (acks == 0)
            afterInvAcks(addr, now);
        else
            tbe.phase = Phase::WaitInvAcks;
        return;
    }
    // E or M: recall the owner's copy, merge, write. This deliberately
    // includes owner == requester: a StoreWrite travels on the write
    // virtual network and can arrive AFTER a younger load of the same
    // core installed the block — the live copy must still be recalled,
    // or the directory would forget an owner (caught by the protocol
    // torture tests).
    tbe.phase = Phase::WaitRecall;
    tbe.recallOwner = e.owner;
    recallsSent_.inc();
    sendToCore(e.owner, noc::PacketClass::CohCtrl, CohKind::Recall, addr,
               now);
}

void
L2Bank::serveFromL2(BlockAddr addr, Cycle now)
{
    Tbe &tbe = tbes_.at(addr);
    if (tbe.l2Hit) {
        bankAccess(false, addr, now);
        return;
    }
    l2Misses_.inc();
    tbe.phase = Phase::WaitMem;
    auto req = noc::makePacket(noc::PacketClass::MemReq, node_,
                               mcFor(addr), addr);
    req->destBank = bank_;
    out_.send(std::move(req), now);
}

void
L2Bank::handleMemResp(noc::PacketPtr pkt, Cycle now)
{
    const BlockAddr addr = pkt->addr;
    auto it = tbes_.find(addr);
    panic_if(it == tbes_.end() || it->second.phase != Phase::WaitMem,
             "bank %d: spurious MemResp %s", bank_,
             pkt->toString().c_str());

    // Fill allocation and victim writeback.
    bool victim_dirty = false;
    BlockAddr victim_addr = addr;
    if (config_.realTags) {
        cache::TagEntry evicted;
        cache::TagEntry *e = tags_->allocate(addr, &evicted);
        panic_if(e == nullptr, "L2 allocation failed");
        if (evicted.valid) {
            victim_dirty = evicted.dirty;
            victim_addr = evicted.addr;
            // Inclusive victim: drop directory state, invalidate L1
            // copies fire-and-forget (stale InvAcks are tolerated).
            auto vd = dir_.find(evicted.addr);
            if (vd != dir_.end()) {
                for (CoreId c = 0; c < 64; ++c) {
                    if (vd->second.sharers & coreBit(c)) {
                        sendToCore(c, noc::PacketClass::CohCtrl,
                                   CohKind::Inv, evicted.addr, now);
                    }
                }
                dir_.erase(vd);
            }
        }
    } else {
        victim_dirty = rng_.chance(config_.victimDirtyProb);
    }
    if (victim_dirty) {
        auto wb = noc::makePacket(noc::PacketClass::MemWrite, node_,
                                  mcFor(victim_addr), victim_addr);
        wb->destBank = bank_;
        out_.send(std::move(wb), now);
    }

    // The fill occupies the bank's write port — with STT-RAM this is a
    // full 33-cycle write.
    it->second.phase = Phase::BankAccess;
    bankAccess(true, addr, now);
}

void
L2Bank::handleInvAck(noc::PacketPtr pkt, Cycle now)
{
    auto it = tbes_.find(pkt->addr);
    if (it == tbes_.end() || it->second.phase != Phase::WaitInvAcks)
        return; // stale ack from a back-invalidation: ignore
    Tbe &tbe = it->second;
    if (--tbe.pendingAcks == 0)
        afterInvAcks(pkt->addr, now);
}

void
L2Bank::afterInvAcks(BlockAddr addr, Cycle now)
{
    Tbe &tbe = tbes_.at(addr);
    tbe.phase = Phase::BankAccess;
    if (tbe.kind == CohKind::WriteL2) {
        bankAccess(true, addr, now);
        return;
    }
    if (tbe.upgrade) {
        // The requester already holds the data: grant M without a data
        // transfer or a bank access.
        --admittedRequests_; // release the admission slot
        sendToCore(tbe.requester, noc::PacketClass::Ack,
                   CohKind::UpgradeAck, addr, now,
                   static_cast<std::uint16_t>(Grant::M));
        dir_[addr] = DirEntry{DirEntry::State::M, 0, tbe.requester};
        tbe.phase = Phase::WaitUnblock; // hold until installed
        return;
    }
    bankAccess(false, addr, now);
}

void
L2Bank::handleRecallPayload(BlockAddr addr, bool dirty, Cycle now)
{
    Tbe &tbe = tbes_.at(addr);
    tbe.phase = Phase::BankAccess;
    if (tbe.kind == CohKind::WriteL2) {
        // Merge the recalled line (dirty or not) with the store and
        // write it: one long bank write either way.
        dir_.erase(addr);
        bankAccess(true, addr, now);
        return;
    }
    // Dirty: absorb the owner's modified data into the bank (a long
    // write), then answer the waiting requester from the updated copy.
    // Clean: read the bank's own copy.
    bankAccess(dirty, addr, now);
}

void
L2Bank::respondAndFinish(BlockAddr addr, Cycle now)
{
    Tbe &tbe = tbes_.at(addr);
    residencyHist_.sample(now - tbe.arrivedAt);
    if (tbe.kind == CohKind::GetS || tbe.kind == CohKind::GetM)
        --admittedRequests_; // release the admission slot
    else
        --admittedWrites_;
    if (tbe.kind == CohKind::WriteL2) {
        // Fire-and-forget: no response. The line now lives (only) in
        // the L2; directory state I.
        dir_.erase(addr);
        if (config_.realTags) {
            if (cache::TagEntry *e = tags_->find(addr)) {
                e->dirty = true;
            } else {
                cache::TagEntry evicted;
                if (cache::TagEntry *fresh = tags_->allocate(addr,
                                                             &evicted))
                    fresh->dirty = true;
            }
        }
        finish(addr, now);
        return;
    }
    if (tbe.kind == CohKind::PutM) {
        sendToCore(tbe.requester, noc::PacketClass::Ack, CohKind::WbAck,
                   addr, now);
        dir_.erase(addr);
        if (config_.realTags) {
            if (cache::TagEntry *e = tags_->find(addr))
                e->dirty = true;
        }
        finish(addr, now);
        return;
    }

    sendToCore(tbe.requester, noc::PacketClass::DataResp, CohKind::Data,
               addr, now, static_cast<std::uint16_t>(tbe.grant));
    // The transaction stays open until the requester's Unblock: a
    // Recall or Inv issued for a later transaction must never race the
    // grant that is still in flight.
    tbe.phase = Phase::WaitUnblock;
    switch (tbe.grant) {
      case Grant::E:
        dir_[addr] = DirEntry{DirEntry::State::E, 0, tbe.requester};
        break;
      case Grant::M:
        dir_[addr] = DirEntry{DirEntry::State::M, 0, tbe.requester};
        break;
      case Grant::S: {
        auto d = dir_.find(addr);
        if (d != dir_.end() && d->second.state == DirEntry::State::S) {
            d->second.sharers |= coreBit(tbe.requester);
        } else {
            dir_[addr] = DirEntry{DirEntry::State::S,
                                  coreBit(tbe.requester), -1};
        }
        break;
      }
    }
}

void
L2Bank::finish(BlockAddr addr, Cycle now)
{
    auto node = tbes_.extract(addr);
    panic_if(node.empty(), "finish without TBE");
    auto blocked = std::move(node.mapped().blocked);
    while (!blocked.empty()) {
        noc::PacketPtr pkt = std::move(blocked.front());
        blocked.pop_front();
        handleRequest(std::move(pkt), now);
    }
}

void
L2Bank::tick(Cycle now)
{
    ctrl_.tick(now);

    // One BusyNack per failed write-verify round: tells the parent
    // router how much longer the bank stays busy past its predicted
    // window (aux), so the hold window re-opens and the adaptive
    // margin learns the overshoot.
    if (config_.faultInjector && parentNode_ != kInvalidNode &&
        ctrl_.retryEpisodes() != lastNackedEpisode_) {
        lastNackedEpisode_ = ctrl_.retryEpisodes();
        if (ctrl_.writeRetryActive()) {
            auto nack = noc::makePacket(noc::PacketClass::BusyNack, node_,
                                        parentNode_);
            nack->destBank = bank_;
            nack->info.origin = static_cast<std::uint32_t>(bank_);
            const Cycle done_at = ctrl_.activeWriteDoneAt(now);
            nack->info.aux = static_cast<std::uint16_t>(
                std::min<Cycle>(done_at > now ? done_at - now : 0,
                                0xffff));
            out_.send(std::move(nack), now);
            config_.faultInjector->noteBusyNackSent(bank_);
        }
    }
}

} // namespace stacknoc::coherence
