#include "coherence/l1_cache.hh"

#include "common/logging.hh"

namespace stacknoc::coherence {

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
      case L1State::IS: return "IS";
      case L1State::IM: return "IM";
      case L1State::SM: return "SM";
      default: return "?";
    }
}

L1Cache::L1Cache(std::string l1name, CoreId core, noc::PacketSender &out,
                 const HomeMap &home, const L1Config &config,
                 stats::Group &group)
    : Ticking(std::move(l1name)), core_(core), out_(out), home_(home),
      config_(config), tags_(config.sets, config.ways),
      hits_(group.counter("l1_hits")),
      misses_(group.counter("l1_misses")),
      storeWrites_(group.counter("l1_store_writes")),
      upgrades_(group.counter("l1_upgrades")),
      writebacks_(group.counter("l1_writebacks")),
      invsReceived_(group.counter("l1_invs_received")),
      recallsReceived_(group.counter("l1_recalls_received")),
      retries_(group.counter("l1_retries")),
      missLatency_(group.average("l1_miss_latency")),
      missLatencyHist_(group.histogram("l1_miss_latency_hist"))
{
}

L1State
L1Cache::state(BlockAddr addr) const
{
    const cache::TagEntry *e = tags_.peek(addr);
    return e ? static_cast<L1State>(e->state) : L1State::I;
}

bool
L1Cache::isResident(BlockAddr addr) const
{
    const L1State s = state(addr);
    return s == L1State::S || s == L1State::E || s == L1State::M;
}

bool
L1Cache::corruptTagStateForTest(BlockAddr addr, L1State st)
{
    cache::TagEntry *e = tags_.find(addr);
    if (e == nullptr) {
        cache::TagEntry evicted;
        e = tags_.allocate(addr, &evicted);
        if (e == nullptr)
            return false;
        if (evicted.valid)
            noteTagChange(evicted.addr);
        noteTagChange(addr); // a new frame, whatever state it gets
    }
    setState(*e, st);
    return true;
}

void
L1Cache::sendRequest(noc::PacketClass cls, CohKind kind, BlockAddr addr,
                     bool l2_hit_hint, Cycle now)
{
    auto pkt = noc::makePacket(cls, core_, home_.homeNode(addr), addr);
    pkt->destBank = home_.bankOf(addr);
    setKind(*pkt, kind, core_);
    if (l2_hit_hint)
        pkt->info.flags |= kFlagL2Hit;
    out_.send(std::move(pkt), now);
}

bool
L1Cache::access(bool is_write, BlockAddr addr, bool l2_hit_hint,
                std::uint64_t token, Cycle now)
{
    // Conservative idle-elision wake: hits schedule a delayed completion
    // that only this cache's tick can fire.
    wake();
    // One outstanding transaction per block; also hold off re-fetching a
    // block whose writeback has not been acknowledged yet, so the home
    // directory never sees our request overtake our PutM.
    if (mshrs_.count(addr) || pendingPutM_.count(addr)) {
        retries_.inc();
        return false;
    }

    cache::TagEntry *e = tags_.find(addr);
    const L1State st = e ? static_cast<L1State>(e->state) : L1State::I;

    // Hits.
    if (e && (st == L1State::S || st == L1State::E || st == L1State::M)) {
        if (!is_write || st == L1State::M || st == L1State::E) {
            if (is_write) {
                setState(*e, L1State::M);
                e->dirty = true;
            }
            hits_.inc();
            delayed_.emplace_back(now + config_.hitLatency, token);
            return true;
        }
        // Store hit on a Shared block: upgrade.
        if (static_cast<int>(mshrs_.size()) >= config_.mshrs) {
            retries_.inc();
            return false;
        }
        upgrades_.inc();
        setState(*e, L1State::SM);
        e->pinned = true;
        mshrs_.emplace(addr, Mshr{true, now, token});
        sendRequest(noc::PacketClass::WriteReq, CohKind::GetM, addr,
                    l2_hit_hint, now);
        return true;
    }

    // Store miss: no-write-allocate. The store is written through to
    // the L2 home bank as a fire-and-forget StoreWrite packet; no L1
    // frame or MSHR is held and the store buffer (modelled by the NI's
    // injection backlog) is the only resource consumed. This is the
    // "L2 write" of the paper's Table 3 — the access the STT-RAM-aware
    // network is free to delay.
    if (is_write) {
        if (out_.backlog() >= kStoreBufferDepth) {
            retries_.inc();
            return false;
        }
        storeWrites_.inc();
        auto store = noc::makePacket(noc::PacketClass::StoreWrite, core_,
                                     home_.homeNode(addr), addr);
        store->destBank = home_.bankOf(addr);
        setKind(*store, CohKind::WriteL2, core_);
        if (l2_hit_hint)
            store->info.flags |= kFlagL2Hit;
        out_.send(std::move(store), now);
        delayed_.emplace_back(now + config_.hitLatency, token);
        return true;
    }

    // Load miss.
    if (static_cast<int>(mshrs_.size()) >= config_.mshrs) {
        retries_.inc();
        return false;
    }
    cache::TagEntry evicted;
    cache::TagEntry *fresh =
        e ? e : tags_.allocate(addr, &evicted);
    if (!fresh) {
        retries_.inc(); // every way of the set is mid-transaction
        return false;
    }
    if (fresh != e && evicted.valid) {
        noteTagChange(evicted.addr);
        const L1State vst = static_cast<L1State>(evicted.state);
        if (vst == L1State::M) {
            writebacks_.inc();
            pendingPutM_.insert(evicted.addr);
            auto putm = noc::makePacket(noc::PacketClass::WritebackReq,
                                        core_,
                                        home_.homeNode(evicted.addr),
                                        evicted.addr);
            putm->destBank = home_.bankOf(evicted.addr);
            setKind(*putm, CohKind::PutM, core_);
            putm->info.flags |= kFlagDirty;
            out_.send(std::move(putm), now);
        }
        // S and E victims are dropped silently; the directory tolerates
        // stale sharer/owner records.
    }
    misses_.inc();
    setState(*fresh, L1State::IS);
    fresh->pinned = true;
    fresh->dirty = false;
    mshrs_.emplace(addr, Mshr{false, now, token});
    sendRequest(noc::PacketClass::ReadReq, CohKind::GetS, addr,
                l2_hit_hint, now);
    return true;
}

void
L1Cache::completeMiss(BlockAddr addr, L1State final_state, Cycle now)
{
    auto it = mshrs_.find(addr);
    panic_if(it == mshrs_.end(), "L1 %d: completion without MSHR for %llx",
             core_, static_cast<unsigned long long>(addr));
    cache::TagEntry *e = tags_.find(addr);
    panic_if(e == nullptr, "L1 %d: completion for unallocated block",
             core_);
    setState(*e, it->second.isWrite ? L1State::M : final_state);
    e->pinned = false;
    if (it->second.isWrite)
        e->dirty = true;
    missLatency_.sample(now - it->second.startedAt);
    missLatencyHist_.sample(now - it->second.startedAt);
    complete(it->second.token, now);
    mshrs_.erase(it);

    // Three-phase transaction: tell the home directory the grant is
    // installed so it may start the next transaction on this block.
    // Without this, a later Recall/Inv can overtake the in-flight grant
    // and leave two owners (caught by the protocol torture tests).
    auto unblock = noc::makePacket(noc::PacketClass::CohCtrl, core_,
                                   home_.homeNode(addr), addr);
    unblock->destBank = home_.bankOf(addr);
    setKind(*unblock, CohKind::Unblock, core_);
    out_.send(std::move(unblock), now);
}

void
L1Cache::handleInv(const noc::Packet &pkt, Cycle now)
{
    invsReceived_.inc();
    cache::TagEntry *e = tags_.find(pkt.addr);
    if (e) {
        const L1State st = static_cast<L1State>(e->state);
        if (st == L1State::S) {
            invalidate(pkt.addr);
        } else if (st == L1State::SM) {
            // Our upgrade lost the race; the directory will answer with
            // full data once it processes our queued GetM.
            setState(*e, L1State::IM);
        }
        // IS keeps waiting for its data; E/M cannot receive Inv (the
        // directory uses Recall for owners).
    }
    auto ack = noc::makePacket(noc::PacketClass::CohCtrl, core_, pkt.src,
                               pkt.addr);
    ack->destBank = pkt.destBank;
    setKind(*ack, CohKind::InvAck, core_);
    out_.send(std::move(ack), now);
}

void
L1Cache::handleRecall(const noc::Packet &pkt, Cycle now)
{
    recallsReceived_.inc();
    cache::TagEntry *e = tags_.find(pkt.addr);
    const L1State st = e ? static_cast<L1State>(e->state) : L1State::I;

    if (st == L1State::M) {
        invalidate(pkt.addr);
        auto data = noc::makePacket(noc::PacketClass::CohData, core_,
                                    pkt.src, pkt.addr);
        data->destBank = pkt.destBank;
        setKind(*data, CohKind::RecallData, core_);
        data->info.flags |= kFlagDirty;
        out_.send(std::move(data), now);
        return;
    }
    if (st == L1State::E || st == L1State::S)
        invalidate(pkt.addr);
    auto ack = noc::makePacket(noc::PacketClass::CohCtrl, core_, pkt.src,
                               pkt.addr);
    ack->destBank = pkt.destBank;
    setKind(*ack, CohKind::RecallAck, core_);
    if (pendingPutM_.count(pkt.addr))
        ack->info.flags |= kFlagPutMInFlight;
    out_.send(std::move(ack), now);
}

void
L1Cache::deliver(noc::PacketPtr pkt, Cycle now)
{
    switch (kindOf(*pkt)) {
      case CohKind::Data: {
        const Grant grant = static_cast<Grant>(pkt->info.aux);
        const L1State final_state =
            grant == Grant::M ? L1State::M
            : grant == Grant::E ? L1State::E : L1State::S;
        completeMiss(pkt->addr, final_state, now);
        break;
      }
      case CohKind::UpgradeAck:
        completeMiss(pkt->addr, L1State::M, now);
        break;
      case CohKind::Inv:
        handleInv(*pkt, now);
        break;
      case CohKind::Recall:
        handleRecall(*pkt, now);
        break;
      case CohKind::WbAck:
        pendingPutM_.erase(pkt->addr);
        break;
      default:
        panic("L1 %d: unexpected packet %s", core_,
              pkt->toString().c_str());
    }
}

void
L1Cache::tick(Cycle now)
{
    for (auto it = delayed_.begin(); it != delayed_.end();) {
        if (now >= it->first) {
            complete(it->second, now);
            it = delayed_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace stacknoc::coherence
