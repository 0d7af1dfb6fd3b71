#include "snapshot/state_io.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "engine/sequential_engine.hh"
#include "engine/sharded_engine.hh"
#include "snapshot/context.hh"
#include "system/cmp_system.hh"

namespace stacknoc::snapshot {

namespace {

/** Collect a map's keys in sorted order so unordered containers
 *  serialise deterministically. */
template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

template <typename Set>
std::vector<typename Set::key_type>
sortedValues(const Set &s)
{
    std::vector<typename Set::key_type> vals(s.begin(), s.end());
    std::sort(vals.begin(), vals.end());
    return vals;
}

void
saveFlitValue(Saver &s, SaveCtx &ctx, const noc::Flit &f)
{
    ctx.putPacket(s, f.pkt);
    s.i32(f.seq);
    s.u64(f.arrivedAt);
}

noc::Flit
loadFlitValue(Loader &l, LoadCtx &ctx)
{
    noc::Flit f;
    f.pkt = ctx.getPacket(l);
    f.seq = l.i32();
    f.arrivedAt = l.u64();
    return f;
}

void
checkCount(std::size_t have, std::size_t want, const char *what)
{
    if (have != want)
        throw SnapshotError(std::string("checkpoint structure mismatch: ")
                            + what);
}

} // namespace

// ---------------------------------------------------------------- workload

void
StateIO::saveStream(Saver &s, const workload::SyntheticStream &st)
{
    for (std::uint64_t w : st.rng_.s_)
        s.u64(w);
    s.u64(st.memOps_);
    s.u64(st.misses_);
    s.u32(st.burstRemaining_);
    s.u32(st.bankRun_);
    s.i32(st.hotBank_);
    const auto banks = sortedKeys(st.bankCursor_);
    s.u32(static_cast<std::uint32_t>(banks.size()));
    for (int b : banks) {
        s.i32(b);
        s.u64(st.bankCursor_.at(b));
    }
    s.u32(static_cast<std::uint32_t>(st.history_.size()));
    for (const auto &ring : st.history_) {
        s.u32(static_cast<std::uint32_t>(ring.size()));
        for (BlockAddr a : ring)
            s.u64(a);
    }
    s.u64(st.historyIdx_);
}

void
StateIO::loadStream(Loader &l, workload::SyntheticStream &st)
{
    for (std::uint64_t &w : st.rng_.s_)
        w = l.u64();
    st.memOps_ = l.u64();
    st.misses_ = l.u64();
    st.burstRemaining_ = l.u32();
    st.bankRun_ = l.u32();
    st.hotBank_ = l.i32();
    st.bankCursor_.clear();
    const std::uint32_t nbanks = l.u32();
    for (std::uint32_t i = 0; i < nbanks; ++i) {
        const int b = l.i32();
        st.bankCursor_[b] = l.u64();
    }
    checkCount(st.history_.size(), l.u32(), "stream history rings");
    for (auto &ring : st.history_) {
        ring.resize(l.u32());
        for (BlockAddr &a : ring)
            a = l.u64();
    }
    st.historyIdx_ = l.u64();
}

// -------------------------------------------------------------------- cpu

void
StateIO::saveCore(Saver &s, SaveCtx &ctx, const cpu::Core &core)
{
    s.u32(static_cast<std::uint32_t>(core.rob_.size()));
    for (const auto &e : core.rob_) {
        s.b(e.op.isMem);
        s.b(e.op.isWrite);
        s.u64(e.op.addr);
        s.b(e.op.l2Hit);
        s.b(e.op.dependsOnPrev);
        s.b(e.issued);
        ctx.putFlag(s, e.done);
    }
    s.u64(core.issueCursor_);
    ctx.putFlag(s, core.lastMemDone_);
    s.u64(core.committed_);
}

void
StateIO::loadCore(Loader &l, LoadCtx &ctx, cpu::Core &core)
{
    core.rob_.clear();
    const std::uint32_t n = l.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        cpu::Core::RobEntry e;
        e.op.isMem = l.b();
        e.op.isWrite = l.b();
        e.op.addr = l.u64();
        e.op.l2Hit = l.b();
        e.op.dependsOnPrev = l.b();
        e.issued = l.b();
        e.done = ctx.getFlag(l);
        core.rob_.push_back(std::move(e));
    }
    core.issueCursor_ = static_cast<std::size_t>(l.u64());
    core.lastMemDone_ = ctx.getFlag(l);
    core.committed_ = l.u64();
}

// -------------------------------------------------------------- coherence

namespace {
// Placeholder namespace so the Completion helpers below read as a unit.
} // namespace

void
StateIO::saveL1(Saver &s, SaveCtx &ctx, const coherence::L1Cache &l1)
{
    const auto saveCompletion =
        [&](const coherence::L1Cache::Completion &c) {
            if (c.fn)
                throw SnapshotError(
                    "non-serialisable L1 completion callback (test-only "
                    "std::function path cannot be checkpointed)");
            ctx.putFlag(s, c.flag);
        };

    saveTags(s, l1.tags_);
    const auto addrs = sortedKeys(l1.mshrs_);
    s.u32(static_cast<std::uint32_t>(addrs.size()));
    for (BlockAddr a : addrs) {
        const auto &m = l1.mshrs_.at(a);
        s.u64(a);
        s.b(m.isWrite);
        s.u64(m.startedAt);
        saveCompletion(m.onDone);
    }
    const auto putms = sortedValues(l1.pendingPutM_);
    s.u32(static_cast<std::uint32_t>(putms.size()));
    for (BlockAddr a : putms)
        s.u64(a);
    s.u32(static_cast<std::uint32_t>(l1.delayed_.size()));
    for (const auto &[at, c] : l1.delayed_) {
        s.u64(at);
        saveCompletion(c);
    }
}

void
StateIO::loadL1(Loader &l, LoadCtx &ctx, coherence::L1Cache &l1)
{
    const auto loadCompletion = [&]() {
        coherence::L1Cache::Completion c;
        c.flag = ctx.getFlag(l);
        return c;
    };

    loadTags(l, l1.tags_);
    l1.mshrs_.clear();
    const std::uint32_t nmshr = l.u32();
    for (std::uint32_t i = 0; i < nmshr; ++i) {
        const BlockAddr a = l.u64();
        coherence::L1Cache::Mshr m;
        m.isWrite = l.b();
        m.startedAt = l.u64();
        m.onDone = loadCompletion();
        l1.mshrs_.emplace(a, std::move(m));
    }
    l1.pendingPutM_.clear();
    const std::uint32_t nputm = l.u32();
    for (std::uint32_t i = 0; i < nputm; ++i)
        l1.pendingPutM_.insert(l.u64());
    l1.delayed_.clear();
    const std::uint32_t ndel = l.u32();
    for (std::uint32_t i = 0; i < ndel; ++i) {
        const Cycle at = l.u64();
        l1.delayed_.emplace_back(at, loadCompletion());
    }
}

void
StateIO::saveBank(Saver &s, SaveCtx &ctx, const coherence::L2Bank &bank)
{
    s.i32(bank.admittedRequests_);
    s.i32(bank.admittedWrites_);
    s.u64(bank.lastNackedEpisode_);
    for (std::uint64_t w : bank.rng_.s_)
        s.u64(w);

    const auto dirAddrs = sortedKeys(bank.dir_);
    s.u32(static_cast<std::uint32_t>(dirAddrs.size()));
    for (BlockAddr a : dirAddrs) {
        const auto &d = bank.dir_.at(a);
        s.u64(a);
        s.u8(static_cast<std::uint8_t>(d.state));
        s.u64(d.sharers);
        s.i32(d.owner);
    }

    const auto tbeAddrs = sortedKeys(bank.tbes_);
    s.u32(static_cast<std::uint32_t>(tbeAddrs.size()));
    for (BlockAddr a : tbeAddrs) {
        const auto &t = bank.tbes_.at(a);
        s.u64(a);
        s.u8(static_cast<std::uint8_t>(t.kind));
        s.i32(t.requester);
        s.b(t.l2Hit);
        s.b(t.upgrade);
        s.u8(static_cast<std::uint8_t>(t.phase));
        s.i32(t.pendingAcks);
        s.i32(t.recallOwner);
        s.u8(static_cast<std::uint8_t>(t.grant));
        s.u32(static_cast<std::uint32_t>(t.blocked.size()));
        for (const auto &pkt : t.blocked)
            ctx.putPacket(s, pkt);
        s.u64(t.pktId);
        s.u8(t.pktCls);
        s.u64(t.arrivedAt);
    }

    s.b(bank.tags_ != nullptr);
    if (bank.tags_)
        saveTags(s, *bank.tags_);
    saveBankCtrl(s, bank.ctrl_);
}

void
StateIO::loadBank(Loader &l, LoadCtx &ctx, coherence::L2Bank &bank)
{
    bank.admittedRequests_ = l.i32();
    bank.admittedWrites_ = l.i32();
    bank.lastNackedEpisode_ = l.u64();
    for (std::uint64_t &w : bank.rng_.s_)
        w = l.u64();

    bank.dir_.clear();
    const std::uint32_t ndir = l.u32();
    for (std::uint32_t i = 0; i < ndir; ++i) {
        const BlockAddr a = l.u64();
        coherence::DirEntry d;
        d.state = static_cast<coherence::DirEntry::State>(l.u8());
        d.sharers = l.u64();
        d.owner = l.i32();
        bank.dir_.emplace(a, d);
    }

    bank.tbes_.clear();
    const std::uint32_t ntbe = l.u32();
    for (std::uint32_t i = 0; i < ntbe; ++i) {
        const BlockAddr a = l.u64();
        coherence::L2Bank::Tbe t;
        t.kind = static_cast<coherence::CohKind>(l.u8());
        t.requester = l.i32();
        t.l2Hit = l.b();
        t.upgrade = l.b();
        t.phase = static_cast<coherence::L2Bank::Phase>(l.u8());
        t.pendingAcks = l.i32();
        t.recallOwner = l.i32();
        t.grant = static_cast<coherence::Grant>(l.u8());
        const std::uint32_t nblk = l.u32();
        for (std::uint32_t j = 0; j < nblk; ++j)
            t.blocked.push_back(ctx.getPacket(l));
        t.pktId = l.u64();
        t.pktCls = l.u8();
        t.arrivedAt = l.u64();
        bank.tbes_.emplace(a, std::move(t));
    }

    const bool hasTags = l.b();
    checkCount(hasTags ? 1 : 0, bank.tags_ ? 1 : 0, "L2 real-tags mode");
    if (bank.tags_)
        loadTags(l, *bank.tags_);
    loadBankCtrl(l, bank.ctrl_, bank);
}

// -------------------------------------------------------------------- mem

void
StateIO::saveBankCtrl(Saver &s, const mem::BankController &ctrl)
{
    const auto saveReq = [&s](const mem::BankRequest &req) {
        s.b(req.isWrite);
        s.u64(req.addr);
        s.u64(req.enqueuedAt);
        s.u64(req.tracePktId);
        s.u8(req.traceCls);
        // The production completion is always the owning L2Bank's
        // respondAndFinish bound to req.addr; only its presence needs
        // to travel (loadBankCtrl re-forms the lambda).
        s.b(static_cast<bool>(req.onDone));
    };

    s.u64(ctrl.bank_.busyUntil_);
    s.b(ctrl.bank_.currentIsWrite_);
    s.u64(ctrl.bank_.readsTotal_);
    s.u64(ctrl.bank_.writesTotal_);

    s.u32(static_cast<std::uint32_t>(ctrl.queue_.size()));
    for (const auto &req : ctrl.queue_)
        saveReq(req);
    s.b(ctrl.current_.has_value());
    if (ctrl.current_) {
        saveReq(ctrl.current_->req);
        s.u64(ctrl.current_->doneAt);
        s.i32(ctrl.current_->failures);
    }
    s.u32(static_cast<std::uint32_t>(ctrl.buffer_.size()));
    for (const auto &bw : ctrl.buffer_) {
        s.u64(bw.addr);
        s.b(bw.draining);
    }
    s.b(ctrl.drainDoneAt_.has_value());
    if (ctrl.drainDoneAt_)
        s.u64(*ctrl.drainDoneAt_);
    s.u32(static_cast<std::uint32_t>(ctrl.delayed_.size()));
    for (const auto &dd : ctrl.delayed_) {
        s.u64(dd.at);
        saveReq(dd.req);
    }
    s.u64(ctrl.lastArrival_);
    s.b(ctrl.lastWasWrite_);
    s.i32(ctrl.drainFailures_);
    s.b(ctrl.retryActive_);
    s.u64(ctrl.retryEpisodes_);
    s.u64(ctrl.retryRoundsTotal_);
}

void
StateIO::loadBankCtrl(Loader &l, mem::BankController &ctrl,
                      coherence::L2Bank &owner)
{
    const auto loadReq = [&l, &owner]() {
        mem::BankRequest req;
        req.isWrite = l.b();
        req.addr = l.u64();
        req.enqueuedAt = l.u64();
        req.tracePktId = l.u64();
        req.traceCls = l.u8();
        if (l.b()) {
            coherence::L2Bank *bank = &owner;
            const BlockAddr addr = req.addr;
            req.onDone = [bank, addr](Cycle t) {
                bank->respondAndFinish(addr, t);
            };
        }
        return req;
    };

    ctrl.bank_.busyUntil_ = l.u64();
    ctrl.bank_.currentIsWrite_ = l.b();
    ctrl.bank_.readsTotal_ = l.u64();
    ctrl.bank_.writesTotal_ = l.u64();

    ctrl.queue_.clear();
    const std::uint32_t nq = l.u32();
    for (std::uint32_t i = 0; i < nq; ++i)
        ctrl.queue_.push_back(loadReq());
    ctrl.current_.reset();
    if (l.b()) {
        mem::BankController::InFlight inf;
        inf.req = loadReq();
        inf.doneAt = l.u64();
        inf.failures = l.i32();
        ctrl.current_ = std::move(inf);
    }
    ctrl.buffer_.clear();
    const std::uint32_t nb = l.u32();
    for (std::uint32_t i = 0; i < nb; ++i) {
        mem::BankController::BufferedWrite bw;
        bw.addr = l.u64();
        bw.draining = l.b();
        ctrl.buffer_.push_back(bw);
    }
    ctrl.drainDoneAt_.reset();
    if (l.b())
        ctrl.drainDoneAt_ = l.u64();
    ctrl.delayed_.clear();
    const std::uint32_t nd = l.u32();
    for (std::uint32_t i = 0; i < nd; ++i) {
        mem::BankController::DelayedDone dd;
        dd.at = l.u64();
        dd.req = loadReq();
        ctrl.delayed_.push_back(std::move(dd));
    }
    ctrl.lastArrival_ = l.u64();
    ctrl.lastWasWrite_ = l.b();
    ctrl.drainFailures_ = l.i32();
    ctrl.retryActive_ = l.b();
    ctrl.retryEpisodes_ = l.u64();
    ctrl.retryRoundsTotal_ = l.u64();
}

void
StateIO::saveMc(Saver &s, SaveCtx &ctx, const mem::MemoryController &mc)
{
    s.u32(static_cast<std::uint32_t>(mc.queue_.size()));
    for (const auto &pkt : mc.queue_)
        ctx.putPacket(s, pkt);
    s.u32(static_cast<std::uint32_t>(mc.inflight_.size()));
    for (const auto &a : mc.inflight_) {
        ctx.putPacket(s, a.pkt);
        s.u64(a.doneAt);
    }
}

void
StateIO::loadMc(Loader &l, LoadCtx &ctx, mem::MemoryController &mc)
{
    mc.queue_.clear();
    const std::uint32_t nq = l.u32();
    for (std::uint32_t i = 0; i < nq; ++i)
        mc.queue_.push_back(ctx.getPacket(l));
    mc.inflight_.clear();
    const std::uint32_t ni = l.u32();
    for (std::uint32_t i = 0; i < ni; ++i) {
        mem::MemoryController::Access a;
        a.pkt = ctx.getPacket(l);
        a.doneAt = l.u64();
        mc.inflight_.push_back(std::move(a));
    }
}

// ------------------------------------------------------------------ cache

void
StateIO::saveTags(Saver &s, const cache::TagArray &tags)
{
    s.i32(tags.numSets_);
    s.i32(tags.ways_);
    s.i32(tags.validCount_);
    s.u64(tags.useClock_);
    for (const auto &e : tags.entries_) {
        s.u64(e.addr);
        s.b(e.valid);
        s.b(e.dirty);
        s.u8(e.state);
        s.b(e.pinned);
        s.u64(e.lastUse);
    }
}

void
StateIO::loadTags(Loader &l, cache::TagArray &tags)
{
    checkCount(static_cast<std::size_t>(l.i32()),
               static_cast<std::size_t>(tags.numSets_), "tag array sets");
    checkCount(static_cast<std::size_t>(l.i32()),
               static_cast<std::size_t>(tags.ways_), "tag array ways");
    tags.validCount_ = l.i32();
    tags.useClock_ = l.u64();
    for (auto &e : tags.entries_) {
        e.addr = l.u64();
        e.valid = l.b();
        e.dirty = l.b();
        e.state = l.u8();
        e.pinned = l.b();
        e.lastUse = l.u64();
    }
}

// -------------------------------------------------------------------- noc

void
StateIO::saveLink(Saver &s, SaveCtx &ctx, const noc::Link &link)
{
    if (!link.data.staged_.empty() || !link.credit.staged_.empty())
        throw SnapshotError("channel has uncommitted staged values "
                            "(checkpoint must be taken between cycles)");
    s.u32(static_cast<std::uint32_t>(link.data.queue_.size()));
    for (const auto &[at, lf] : link.data.queue_) {
        s.u64(at);
        saveFlitValue(s, ctx, lf.flit);
        s.i32(lf.vc);
    }
    s.u32(static_cast<std::uint32_t>(link.credit.queue_.size()));
    for (const auto &[at, cr] : link.credit.queue_) {
        s.u64(at);
        s.i32(cr.vc);
    }
}

void
StateIO::loadLink(Loader &l, LoadCtx &ctx, noc::Link &link)
{
    // Deliberately no wakeTarget(): the engine active set travels in the
    // checkpoint, and the pending-signal bytes are restored per owner.
    link.data.queue_.clear();
    const std::uint32_t nd = l.u32();
    for (std::uint32_t i = 0; i < nd; ++i) {
        const Cycle at = l.u64();
        noc::LinkFlit lf;
        lf.flit = loadFlitValue(l, ctx);
        lf.vc = l.i32();
        link.data.queue_.emplace_back(at, std::move(lf));
    }
    link.credit.queue_.clear();
    const std::uint32_t nc = l.u32();
    for (std::uint32_t i = 0; i < nc; ++i) {
        const Cycle at = l.u64();
        noc::Credit cr;
        cr.vc = l.i32();
        link.credit.queue_.emplace_back(at, cr);
    }
}

void
StateIO::saveRouter(Saver &s, SaveCtx &ctx, const noc::Router &r)
{
    for (const auto &ip : r.in_) {
        s.u32(static_cast<std::uint32_t>(ip.vcs.size()));
        for (const auto &vc : ip.vcs) {
            s.u32(static_cast<std::uint32_t>(vc.buffer.size()));
            for (const auto &f : vc.buffer)
                saveFlitValue(s, ctx, f);
            s.u8(static_cast<std::uint8_t>(vc.status));
            s.u8(static_cast<std::uint8_t>(vc.outDir));
            s.i32(vc.outVc);
            s.u64(vc.vaDoneAt);
        }
        s.i32(ip.rrSaVc);
    }
    for (const auto &op : r.out_) {
        s.u32(static_cast<std::uint32_t>(op.credits.size()));
        for (int c : op.credits)
            s.i32(c);
        for (bool b : op.vcBusy)
            s.b(b);
        s.i32(op.rrVa);
        s.i32(op.rrSa);
    }
    for (std::uint8_t p : r.dataPending_)
        s.u8(p);
    for (std::uint8_t p : r.creditPending_)
        s.u8(p);
    s.u64(r.flitsSwitchedTotal_);
    s.u64(r.flitsBufferedTotal_);
}

void
StateIO::loadRouter(Loader &l, LoadCtx &ctx, noc::Router &r)
{
    for (auto &ip : r.in_) {
        checkCount(ip.vcs.size(), l.u32(), "router input VCs");
        for (auto &vc : ip.vcs) {
            vc.buffer.clear();
            const std::uint32_t nf = l.u32();
            for (std::uint32_t i = 0; i < nf; ++i)
                vc.buffer.push_back(loadFlitValue(l, ctx));
            vc.status = static_cast<noc::Router::VcStatus>(l.u8());
            vc.outDir = static_cast<noc::Dir>(l.u8());
            vc.outVc = l.i32();
            vc.vaDoneAt = l.u64();
        }
        ip.rrSaVc = l.i32();
    }
    for (auto &op : r.out_) {
        checkCount(op.credits.size(), l.u32(), "router output VCs");
        for (int &c : op.credits)
            c = l.i32();
        for (std::size_t i = 0; i < op.vcBusy.size(); ++i)
            op.vcBusy[i] = l.b();
        op.rrVa = l.i32();
        op.rrSa = l.i32();
    }
    for (std::uint8_t &p : r.dataPending_)
        p = l.u8();
    for (std::uint8_t &p : r.creditPending_)
        p = l.u8();
    r.flitsSwitchedTotal_ = l.u64();
    r.flitsBufferedTotal_ = l.u64();

    // Canonically recompute the derived pipeline-state masks, counts and
    // occupancy mirrors. The Idle slots of stateMask/stateCount carry
    // history-dependent values in a live run, but they are never read
    // (see router.hh), so the canonical rebuild is behaviourally exact.
    r.stateCount_ = {};
    r.bufferedTotal_ = 0;
    r.localCongestion_ = 0;
    for (int p = 0; p < noc::kNumDirs; ++p) {
        auto &ip = r.in_[static_cast<std::size_t>(p)];
        ip.stateMask = {};
        for (const auto &vc : ip.vcs) {
            const auto st = static_cast<std::size_t>(vc.status);
            ip.stateMask[st] |= std::uint64_t{1} << vc.idx;
            ++r.stateCount_[st];
            const int held = static_cast<int>(vc.buffer.size());
            r.bufferedTotal_ += held;
            if (p != static_cast<int>(noc::Dir::Local))
                r.localCongestion_ += held;
        }
    }
}

void
StateIO::saveNi(Saver &s, SaveCtx &ctx, const noc::NetworkInterface &ni)
{
    s.u32(static_cast<std::uint32_t>(ni.injectQueue_.size()));
    for (const auto &pkt : ni.injectQueue_)
        ctx.putPacket(s, pkt);
    s.u32(static_cast<std::uint32_t>(ni.injVcs_.size()));
    for (const auto &vc : ni.injVcs_) {
        ctx.putPacket(s, vc.pkt);
        s.i32(vc.nextSeq);
        s.i32(vc.credits);
    }
    s.u32(static_cast<std::uint32_t>(ni.ejectVcs_.size()));
    for (const auto &vc : ni.ejectVcs_) {
        s.u32(static_cast<std::uint32_t>(vc.buffer.size()));
        for (const auto &f : vc.buffer)
            saveFlitValue(s, ctx, f);
        s.b(vc.committed);
        ctx.putPacket(s, vc.committedPkt);
        s.b(vc.crcClean);
        s.b(vc.dropping);
        s.i32(vc.retxAttempts);
        s.u64(vc.retxHoldUntil);
    }
    s.i32(ni.rrInjVc_);
    s.u8(ni.dataPending_);
    s.u8(ni.creditPending_);
    s.u64(ni.flitsRetransmittedTotal_);
}

void
StateIO::loadNi(Loader &l, LoadCtx &ctx, noc::NetworkInterface &ni)
{
    ni.injectQueue_.clear();
    const std::uint32_t nq = l.u32();
    for (std::uint32_t i = 0; i < nq; ++i)
        ni.injectQueue_.push_back(ctx.getPacket(l));
    checkCount(ni.injVcs_.size(), l.u32(), "NI injection VCs");
    for (auto &vc : ni.injVcs_) {
        vc.pkt = ctx.getPacket(l);
        vc.nextSeq = l.i32();
        vc.credits = l.i32();
    }
    checkCount(ni.ejectVcs_.size(), l.u32(), "NI ejection VCs");
    for (auto &vc : ni.ejectVcs_) {
        vc.buffer.clear();
        const std::uint32_t nf = l.u32();
        for (std::uint32_t i = 0; i < nf; ++i)
            vc.buffer.push_back(loadFlitValue(l, ctx));
        vc.committed = l.b();
        vc.committedPkt = ctx.getPacket(l);
        vc.crcClean = l.b();
        vc.dropping = l.b();
        vc.retxAttempts = l.i32();
        vc.retxHoldUntil = l.u64();
    }
    ni.rrInjVc_ = l.i32();
    ni.dataPending_ = l.u8();
    ni.creditPending_ = l.u8();
    ni.flitsRetransmittedTotal_ = l.u64();
}

// ----------------------------------------------------------------- sttnoc

void
StateIO::savePolicy(Saver &s, const sttnoc::BankAwarePolicy &p)
{
    s.u32(static_cast<std::uint32_t>(p.busyUntil_.size()));
    for (Cycle c : p.busyUntil_)
        s.u64(c);
    for (Cycle c : p.holdMargin_)
        s.u64(c);
    for (std::uint64_t v : p.holdCyclesByBank_)
        s.u64(v);

    const auto *wb =
        dynamic_cast<const sttnoc::WindowEstimator *>(p.estimator_.get());
    s.b(wb != nullptr);
    if (wb != nullptr) {
        s.u32(static_cast<std::uint32_t>(wb->state_.size()));
        for (const auto &cs : wb->state_) {
            s.u64(cs.forwarded);
            s.b(cs.probeOutstanding);
            s.i16(cs.stamp);
            s.u64(cs.sentAt);
            s.u64(cs.congestion);
            s.u64(cs.updatedAt);
        }
    }
}

void
StateIO::loadPolicy(Loader &l, sttnoc::BankAwarePolicy &p)
{
    checkCount(p.busyUntil_.size(), l.u32(), "policy bank count");
    for (Cycle &c : p.busyUntil_)
        c = l.u64();
    for (Cycle &c : p.holdMargin_)
        c = l.u64();
    for (std::uint64_t &v : p.holdCyclesByBank_)
        v = l.u64();

    auto *wb = dynamic_cast<sttnoc::WindowEstimator *>(p.estimator_.get());
    const bool hadWb = l.b();
    checkCount(hadWb ? 1 : 0, wb != nullptr ? 1 : 0, "estimator kind");
    if (wb != nullptr) {
        checkCount(wb->state_.size(), l.u32(), "WB estimator children");
        for (auto &cs : wb->state_) {
            cs.forwarded = l.u64();
            cs.probeOutstanding = l.b();
            cs.stamp = l.i16();
            cs.sentAt = l.u64();
            cs.congestion = l.u64();
            cs.updatedAt = l.u64();
        }
    }
}

void
StateIO::saveFabric(Saver &s, const sttnoc::RcaFabric &f)
{
    s.u32(static_cast<std::uint32_t>(f.prev_.size()));
    for (std::uint32_t v : f.prev_)
        s.u32(v);
    for (std::uint32_t v : f.next_)
        s.u32(v);
    for (std::uint32_t v : f.snapshot_)
        s.u32(v);
    s.b(f.prevNonzero_);
    s.b(f.nextNonzero_);
    s.b(f.snapNonzero_);
}

void
StateIO::loadFabric(Loader &l, sttnoc::RcaFabric &f)
{
    checkCount(f.prev_.size(), l.u32(), "RCA fabric node count");
    for (std::uint32_t &v : f.prev_)
        v = l.u32();
    for (std::uint32_t &v : f.next_)
        v = l.u32();
    for (std::uint32_t &v : f.snapshot_)
        v = l.u32();
    f.prevNonzero_ = l.b();
    f.nextNonzero_ = l.b();
    f.snapNonzero_ = l.b();
}

// ------------------------------------------------------------------ fault

void
StateIO::saveFaults(Saver &s, const fault::FaultInjector &fi)
{
    s.u32(static_cast<std::uint32_t>(fi.bankStreams_.size()));
    for (const auto &st : fi.bankStreams_)
        s.u64(st.state_);
    s.u32(static_cast<std::uint32_t>(fi.niStreams_.size()));
    for (const auto &st : fi.niStreams_)
        s.u64(st.state_);
}

void
StateIO::loadFaults(Loader &l, fault::FaultInjector &fi)
{
    checkCount(fi.bankStreams_.size(), l.u32(), "fault bank streams");
    for (auto &st : fi.bankStreams_)
        st.state_ = l.u64();
    checkCount(fi.niStreams_.size(), l.u32(), "fault NI streams");
    for (auto &st : fi.niStreams_)
        st.state_ = l.u64();
}

// ----------------------------------------------------------------- engine

void
StateIO::saveEngine(Saver &s, const system::CmpSystem &sys)
{
    // Active flags in canonical schedule-ordinal order, whichever engine
    // is attached. Unscheduled (never-run) engines report all-awake.
    const std::size_t n = sys.sim_.componentCount();
    std::vector<std::uint8_t> flags(n, 1);
    engine::ExecutionEngine *eng = sys.engine_.get();
    if (auto *seq = dynamic_cast<engine::SequentialEngine *>(eng)) {
        if (seq->scheduleBuilt_) {
            for (std::size_t i = 0; i < seq->order_.size(); ++i)
                flags.at(seq->order_[i].ordinal) = seq->active_[i];
        }
    } else if (auto *sh =
                   dynamic_cast<engine::ShardedParallelEngine *>(eng)) {
        for (std::size_t sh_i = 0; sh_i < sh->plan_.shards.size(); ++sh_i) {
            const auto &items = sh->plan_.shards[sh_i];
            const auto &st = *sh->shard_state_[sh_i];
            for (std::size_t i = 0; i < items.size(); ++i)
                flags.at(items[i].ordinal) = st.active[i];
        }
        for (std::size_t i = 0; i < sh->plan_.serial.size(); ++i)
            flags.at(sh->plan_.serial[i].ordinal) = sh->serial_active_[i];
    }
    s.u32(static_cast<std::uint32_t>(n));
    for (std::uint8_t f : flags)
        s.u8(f);
}

void
StateIO::loadEngine(Loader &l, system::CmpSystem &sys)
{
    const std::size_t n = sys.sim_.componentCount();
    checkCount(n, l.u32(), "engine component count");
    std::vector<std::uint8_t> flags(n);
    for (std::uint8_t &f : flags)
        f = l.u8();

    // A spurious wake is harmless (quiescent ticks are no-ops) but a
    // missed wake diverges, so the flags are applied exactly. An engine
    // with elision off keeps every flag set and ticks everything.
    engine::ExecutionEngine *eng = sys.engine_.get();
    if (eng == nullptr || !eng->elides())
        return;
    if (auto *seq = dynamic_cast<engine::SequentialEngine *>(eng)) {
        seq->ensureSchedule();
        for (std::size_t i = 0; i < seq->order_.size(); ++i)
            seq->active_[i] = flags.at(seq->order_[i].ordinal);
    } else if (auto *sh =
                   dynamic_cast<engine::ShardedParallelEngine *>(eng)) {
        for (std::size_t sh_i = 0; sh_i < sh->plan_.shards.size(); ++sh_i) {
            const auto &items = sh->plan_.shards[sh_i];
            auto &st = *sh->shard_state_[sh_i];
            for (std::size_t i = 0; i < items.size(); ++i)
                st.active[i] = flags.at(items[i].ordinal);
        }
        for (std::size_t i = 0; i < sh->plan_.serial.size(); ++i)
            sh->serial_active_[i] = flags.at(sh->plan_.serial[i].ordinal);
    }
}

// ----------------------------------------------------------- whole system

void
StateIO::save(const system::CmpSystem &sys, Saver &s)
{
    if (sys.validation_)
        throw SnapshotError("cannot checkpoint a system with validation "
                            "enabled (census state is not serialised)");

    const auto idStreams = noc::savePacketIdStreams();
    s.u32(static_cast<std::uint32_t>(idStreams.size()));
    for (const auto &[idx, seq] : idStreams) {
        s.u32(idx);
        s.u64(seq);
    }

    s.u64(sys.sim_.now_);

    SaveCtx ctx;
    for (const auto &st : sys.streams_)
        saveStream(s, *st);
    for (const auto &core : sys.cores_)
        saveCore(s, ctx, *core);
    for (const auto &l1 : sys.l1s_)
        saveL1(s, ctx, *l1);
    for (const auto &bank : sys.banks_)
        saveBank(s, ctx, *bank);
    for (const auto &mc : sys.mcs_)
        saveMc(s, ctx, *mc);

    const noc::Network &net = *sys.net_;
    const int nodes = sys.shape_.totalNodes();
    for (NodeId n = 0; n < nodes; ++n)
        saveRouter(s, ctx, net.router(n));
    for (NodeId n = 0; n < nodes; ++n)
        saveNi(s, ctx, net.ni(n));
    for (NodeId n = 0; n < nodes; ++n) {
        for (int d = 0; d < noc::kNumDirs; ++d) {
            const noc::Link *lk =
                net.topo_.linkOut(n, static_cast<noc::Dir>(d));
            if (lk != nullptr)
                saveLink(s, ctx, *lk);
        }
    }
    for (const auto &lk : net.niLinks_)
        saveLink(s, ctx, *lk);

    s.b(sys.bankAwarePolicy_ != nullptr);
    if (sys.bankAwarePolicy_)
        savePolicy(s, *sys.bankAwarePolicy_);
    s.b(sys.rcaFabric_ != nullptr);
    if (sys.rcaFabric_)
        saveFabric(s, *sys.rcaFabric_);
    s.b(sys.faults_ != nullptr);
    if (sys.faults_)
        saveFaults(s, *sys.faults_);

    saveEngine(s, sys);
}

void
StateIO::load(system::CmpSystem &sys, Loader &l)
{
    if (sys.validation_)
        throw SnapshotError("cannot restore into a system with validation "
                            "enabled (census state is not serialised)");

    std::vector<std::pair<std::uint32_t, std::uint64_t>> idStreams;
    const std::uint32_t nStreams = l.u32();
    idStreams.reserve(nStreams);
    for (std::uint32_t i = 0; i < nStreams; ++i) {
        const std::uint32_t idx = l.u32();
        const std::uint64_t seq = l.u64();
        idStreams.emplace_back(idx, seq);
    }
    noc::restorePacketIdStreams(idStreams);

    sys.sim_.now_ = l.u64();

    LoadCtx ctx;
    for (const auto &st : sys.streams_)
        loadStream(l, *st);
    for (const auto &core : sys.cores_)
        loadCore(l, ctx, *core);
    for (const auto &l1 : sys.l1s_)
        loadL1(l, ctx, *l1);
    for (const auto &bank : sys.banks_)
        loadBank(l, ctx, *bank);
    for (const auto &mc : sys.mcs_)
        loadMc(l, ctx, *mc);

    noc::Network &net = *sys.net_;
    const int nodes = sys.shape_.totalNodes();
    for (NodeId n = 0; n < nodes; ++n)
        loadRouter(l, ctx, net.router(n));
    for (NodeId n = 0; n < nodes; ++n)
        loadNi(l, ctx, net.ni(n));
    for (NodeId n = 0; n < nodes; ++n) {
        for (int d = 0; d < noc::kNumDirs; ++d) {
            noc::Link *lk = net.topo_.linkOut(n, static_cast<noc::Dir>(d));
            if (lk != nullptr)
                loadLink(l, ctx, *lk);
        }
    }
    for (const auto &lk : net.niLinks_)
        loadLink(l, ctx, *lk);

    const bool hadPolicy = l.b();
    checkCount(hadPolicy ? 1 : 0, sys.bankAwarePolicy_ ? 1 : 0,
               "bank-aware policy presence");
    if (sys.bankAwarePolicy_)
        loadPolicy(l, *sys.bankAwarePolicy_);
    const bool hadFabric = l.b();
    checkCount(hadFabric ? 1 : 0, sys.rcaFabric_ ? 1 : 0,
               "RCA fabric presence");
    if (sys.rcaFabric_)
        loadFabric(l, *sys.rcaFabric_);
    const bool hadFaults = l.b();
    checkCount(hadFaults ? 1 : 0, sys.faults_ ? 1 : 0,
               "fault injector presence");
    if (sys.faults_)
        loadFaults(l, *sys.faults_);

    loadEngine(l, sys);

    if (!l.atEnd())
        throw SnapshotError("trailing bytes after checkpoint payload");
}

// ----------------------------------------------------------------- digest

std::uint64_t
StateIO::digest(const system::CmpSystem &sys)
{
    std::uint64_t h = kFnvOffset;
    const auto mix64 = [&h](std::uint64_t v) {
        h = fnv1a(&v, sizeof v, h);
    };
    const auto mixStr = [&h](const std::string &str) { h = fnv1a(str, h); };
    const auto mixGroup = [&](const stats::Group &g) {
        mixStr(g.name());
        for (const auto &[name, c] : g.allCounters()) {
            mixStr(name);
            mix64(c.value());
        }
        for (const auto &[name, a] : g.allAverages()) {
            mixStr(name);
            mix64(a.count());
            // Mixed as double bits so recorded digests stay valid.
            mix64(std::bit_cast<std::uint64_t>(static_cast<double>(a.sum())));
        }
        for (const auto &[name, d] : g.allDistributions()) {
            mixStr(name);
            mix64(d.total());
            for (std::size_t i = 0; i < d.numBins(); ++i)
                mix64(d.binCount(i));
        }
        for (const auto &[name, hist] : g.allHistograms()) {
            mixStr(name);
            mix64(hist.count());
            mix64(hist.sum());
            mix64(hist.minValue());
            mix64(hist.maxValue());
            for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i)
                mix64(hist.bucketCount(i));
        }
    };

    mix64(sys.sim_.now_);
    for (const auto &core : sys.cores_)
        mix64(core->committed());
    mixGroup(sys.cacheStats_);
    mixGroup(sys.coreStats_);
    mixGroup(sys.memStats_);
    mixGroup(sys.net_->stats());
    if (sys.bankAwarePolicy_)
        mixGroup(sys.bankAwarePolicy_->stats());
    if (sys.faults_)
        mixGroup(sys.faults_->stats());
    return h;
}

std::uint64_t
statsDigest(const system::CmpSystem &sys)
{
    return StateIO::digest(sys);
}

} // namespace stacknoc::snapshot
