#include "snapshot/state_io.hh"

#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "snapshot/context.hh"
#include "system/cmp_system.hh"

namespace stacknoc::snapshot {

namespace {

template <class Ar, class F>
void
flit(Ar &ar, Refs &refs, F &f)
{
    refs.packet(ar, f.pkt);
    ar.i32(f.seq);
    ar.u64(f.arrivedAt);
}

} // namespace

// ---------------------------------------------------------------- workload

template <class Ar, class C>
void
StateIO::stream(Ar &ar, C &st)
{
    for (auto &w : st.rng_.s_)
        ar.u64(w);
    ar.u64(st.memOps_);
    ar.u64(st.misses_);
    ar.u32(st.burstRemaining_);
    ar.u32(st.bankRun_);
    ar.i32(st.hotBank_);
    ar.sorted(st.bankCursor_, [&](auto &b, auto &cursor) {
        ar.i32(b);
        ar.u64(cursor);
    });
    ar.fixed(st.history_, "stream history rings", [&](auto &ring) {
        ar.seq(ring, [&](auto &a) { ar.u64(a); });
    });
    ar.u64(st.historyIdx_);
}

// -------------------------------------------------------------------- cpu

template <class C>
void
StateIO::fetchedOrThrow(const C &core, std::uint64_t seq, const char *what)
{
    // Below the head is a committed op; past the ROB tail is an op the
    // core has not fetched, which a completion must never index.
    if (seq >= core.headSeq_ && seq - core.headSeq_ >= core.rob_.size())
        throw SnapshotError(std::string(what)
                            + " names an instruction not yet fetched");
}

template <class Ar, class C>
void
StateIO::core(Ar &ar, C &core)
{
    ar.seq(core.rob_, [&](auto &e) {
        ar.b(e.op.isMem);
        ar.b(e.op.isWrite);
        ar.u64(e.op.addr);
        ar.b(e.op.l2Hit);
        ar.b(e.op.dependsOnPrev);
        ar.b(e.issued);
        ar.b(e.done);
    });
    ar.u64(core.issueCursor_);
    ar.u64(core.headSeq_);
    ar.u64(core.lastLoadSeq_);
    if constexpr (Ar::kLoading)
        fetchedOrThrow(core, core.lastLoadSeq_, "last-load sequence");
    ar.u64(core.committed_);
}

// -------------------------------------------------------------- coherence

template <class Ar, class C, class Core>
void
StateIO::l1(Ar &ar, C &l1, const Core &core)
{
    const auto token = [&](auto &t) {
        ar.u64(t);
        if constexpr (Ar::kLoading)
            fetchedOrThrow(core, t, "L1 completion token");
    };

    tags(ar, l1.tags_);
    ar.sorted(l1.mshrs_, [&](auto &addr, auto &m) {
        ar.u64(addr);
        ar.b(m.isWrite);
        ar.u64(m.startedAt);
        token(m.token);
    });
    ar.sorted(l1.pendingPutM_, [&](auto &addr) { ar.u64(addr); });
    ar.seq(l1.delayed_, [&](auto &d) {
        ar.u64(d.first);
        token(d.second);
    });
}

template <class Ar, class C>
void
StateIO::bank(Ar &ar, Refs &refs, C &bank)
{
    ar.i32(bank.admittedRequests_);
    ar.i32(bank.admittedWrites_);
    ar.u64(bank.lastNackedEpisode_);
    for (auto &w : bank.rng_.s_)
        ar.u64(w);

    ar.sorted(bank.dir_, [&](auto &addr, auto &d) {
        ar.u64(addr);
        ar.u8(d.state);
        ar.u64(d.sharers);
        ar.i32(d.owner);
    });
    ar.sorted(bank.tbes_, [&](auto &addr, auto &t) {
        ar.u64(addr);
        ar.u8(t.kind);
        ar.i32(t.requester);
        ar.b(t.l2Hit);
        ar.b(t.upgrade);
        ar.u8(t.phase);
        ar.i32(t.pendingAcks);
        ar.i32(t.recallOwner);
        ar.u8(t.grant);
        ar.seq(t.blocked, [&](auto &pkt) { refs.packet(ar, pkt); });
        ar.u64(t.pktId);
        ar.u8(t.pktCls);
        ar.u64(t.arrivedAt);
    });

    ar.present(bank.tags_ != nullptr, "L2 real-tags mode");
    if (bank.tags_)
        tags(ar, *bank.tags_);
    bankCtrl(ar, bank.ctrl_);
}

// -------------------------------------------------------------------- mem

template <class Ar, class C>
void
StateIO::bankCtrl(Ar &ar, C &ctrl)
{
    const auto request = [&](auto &req) {
        ar.b(req.isWrite);
        ar.u64(req.addr);
        ar.u64(req.enqueuedAt);
        ar.u64(req.tracePktId);
        ar.u8(req.traceCls);
    };

    ar.u64(ctrl.bank_.busyUntil_);
    ar.b(ctrl.bank_.currentIsWrite_);
    ar.u64(ctrl.bank_.readsTotal_);
    ar.u64(ctrl.bank_.writesTotal_);

    ar.seq(ctrl.queue_, request);
    ar.opt(ctrl.current_, [&](auto &inf) {
        request(inf.req);
        ar.u64(inf.doneAt);
        ar.i32(inf.failures);
    });
    ar.seq(ctrl.buffer_, [&](auto &bw) {
        ar.u64(bw.addr);
        ar.b(bw.draining);
    });
    ar.opt(ctrl.drainDoneAt_, [&](auto &at) { ar.u64(at); });
    ar.seq(ctrl.delayed_, [&](auto &dd) {
        ar.u64(dd.at);
        request(dd.req);
    });
    ar.u64(ctrl.lastArrival_);
    ar.b(ctrl.lastWasWrite_);
    ar.i32(ctrl.drainFailures_);
    ar.b(ctrl.retryActive_);
    ar.u64(ctrl.retryEpisodes_);
    ar.u64(ctrl.retryRoundsTotal_);
}

template <class Ar, class C>
void
StateIO::mc(Ar &ar, Refs &refs, C &mc)
{
    ar.seq(mc.queue_, [&](auto &pkt) { refs.packet(ar, pkt); });
    ar.seq(mc.inflight_, [&](auto &a) {
        refs.packet(ar, a.pkt);
        ar.u64(a.doneAt);
    });
}

// ------------------------------------------------------------------ cache

template <class Ar, class C>
void
StateIO::tags(Ar &ar, C &tags)
{
    ar.count(static_cast<std::size_t>(tags.numSets_), "tag array sets");
    ar.count(static_cast<std::size_t>(tags.ways_), "tag array ways");
    ar.i32(tags.validCount_);
    ar.u64(tags.useClock_);
    for (auto &e : tags.entries_) {
        ar.u64(e.addr);
        ar.b(e.valid);
        ar.b(e.dirty);
        ar.u8(e.state);
        ar.b(e.pinned);
        ar.u64(e.lastUse);
    }
}

// -------------------------------------------------------------------- noc

template <class Ar, class C>
void
StateIO::link(Ar &ar, Refs &refs, C &link)
{
    if constexpr (!Ar::kLoading) {
        if (link.data.hasStaged() || link.credit.hasStaged())
            throw SnapshotError("channel has undrained staged values "
                                "(checkpoint must be taken between "
                                "runs)");
    }
    // Loading deliberately notifies no receiver: the engine active set
    // travels in the checkpoint, and the pending-signal bytes are
    // restored per owner.
    ar.seq(link.data.queue_, [&](auto &q) {
        ar.u64(q.first);
        flit(ar, refs, q.second.flit);
        ar.i32(q.second.vc);
    });
    ar.seq(link.credit.queue_, [&](auto &q) {
        ar.u64(q.first);
        ar.i32(q.second.vc);
    });
}

template <class Ar, class C>
void
StateIO::router(Ar &ar, Refs &refs, C &r)
{
    for (auto &ip : r.in_) {
        ar.fixed(ip.vcs, "router input VCs", [&](auto &vc) {
            ar.seq(vc.buffer, [&](auto &f) { flit(ar, refs, f); });
            ar.u8(vc.status);
            ar.u8(vc.outDir);
            ar.i32(vc.outVc);
            ar.u64(vc.vaDoneAt);
        });
        ar.i32(ip.rrSaVc);
    }
    for (std::size_t p = 0; p < r.out_.size(); ++p) {
        auto &op = r.out_[p];
        const auto credits =
            std::span(r.credits_).subspan(p * r.numVcs_, r.numVcs_);
        ar.fixed(credits, "router output VCs",
                 [&](auto &c) { ar.i32(c); });
        for (std::size_t v = 0; v < credits.size(); ++v) {
            const std::uint64_t bit = std::uint64_t{1} << v;
            bool busy = (op.vcBusy & bit) != 0;
            ar.b(busy);
            if constexpr (Ar::kLoading)
                op.vcBusy = busy ? op.vcBusy | bit : op.vcBusy & ~bit;
        }
        ar.i32(op.rrVa);
        ar.i32(op.rrSa);
    }
    for (auto &p : r.dataPending_)
        ar.u8(p);
    for (auto &p : r.creditPending_)
        ar.u8(p);
    ar.u64(r.flitsSwitchedTotal_);
    ar.u64(r.flitsBufferedTotal_);
    if constexpr (Ar::kLoading)
        rebuildDerived(r);
}

void
StateIO::rebuildDerived(noc::Router &r)
{
    // Canonically recompute the derived pipeline-state masks, counts and
    // occupancy mirrors. The Idle slots of stateMask/stateCount carry
    // history-dependent values in a live run, but they are never read
    // (see router.hh), so the canonical rebuild is behaviourally exact.
    r.stateMask_ = {};
    r.stateCount_ = {};
    r.bufferedTotal_ = 0;
    r.localCongestion_ = 0;
    for (int p = 0; p < noc::kNumDirs; ++p) {
        auto &ip = r.in_[static_cast<std::size_t>(p)];
        for (const auto &vc : ip.vcs) {
            const auto st = static_cast<std::size_t>(vc.status);
            r.stateMask_[st][static_cast<std::size_t>(p)] |=
                std::uint64_t{1} << vc.idx;
            ++r.stateCount_[st];
            const int held = static_cast<int>(vc.buffer.size());
            r.bufferedTotal_ += held;
            if (p != static_cast<int>(noc::Dir::Local))
                r.localCongestion_ += held;
        }
    }
}

template <class Ar, class C>
void
StateIO::ni(Ar &ar, Refs &refs, C &ni)
{
    ar.seq(ni.injectQueue_, [&](auto &pkt) { refs.packet(ar, pkt); });
    ar.fixed(ni.injVcs_, "NI injection VCs", [&](auto &vc) {
        refs.packet(ar, vc.pkt);
        ar.i32(vc.nextSeq);
        ar.i32(vc.credits);
    });
    ar.fixed(ni.ejectVcs_, "NI ejection VCs", [&](auto &vc) {
        ar.seq(vc.buffer, [&](auto &f) { flit(ar, refs, f); });
        ar.b(vc.committed);
        refs.packet(ar, vc.committedPkt);
        ar.b(vc.crcClean);
        ar.b(vc.dropping);
        ar.i32(vc.retxAttempts);
        ar.u64(vc.retxHoldUntil);
    });
    if constexpr (Ar::kLoading) {
        ni.ejectHeld_ = 0;
        for (const auto &vc : ni.ejectVcs_)
            ni.ejectHeld_ += static_cast<int>(vc.buffer.size());
    }
    ar.i32(ni.rrInjVc_);
    ar.u8(ni.dataPending_);
    ar.u8(ni.creditPending_);
    ar.u64(ni.flitsRetransmittedTotal_);
}

// ----------------------------------------------------------------- sttnoc

template <class Ar, class C>
void
StateIO::policy(Ar &ar, C &p)
{
    ar.fixed(p.busyUntil_, "policy bank count", [&](auto &c) { ar.u64(c); });
    for (auto &c : p.holdMargin_)
        ar.u64(c);
    for (auto &v : p.holdCyclesByBank_)
        ar.u64(v);

    // Only the window (WB) estimator keeps state; SS and RCA have none.
    auto *wb = dynamic_cast<sttnoc::WindowEstimator *>(p.estimator_.get());
    ar.present(wb != nullptr, "estimator kind");
    if (wb != nullptr) {
        ar.fixed(wb->state_, "WB estimator children", [&](auto &cs) {
            ar.u64(cs.forwarded);
            ar.b(cs.probeOutstanding);
            ar.i16(cs.stamp);
            ar.u64(cs.sentAt);
            ar.u64(cs.congestion);
            ar.u64(cs.updatedAt);
        });
    }
}

template <class Ar, class C>
void
StateIO::fabric(Ar &ar, C &f)
{
    ar.fixed(f.prev_, "RCA fabric node count", [&](auto &v) { ar.u32(v); });
    for (auto &v : f.next_)
        ar.u32(v);
    for (auto &v : f.snapshot_)
        ar.u32(v);
    ar.b(f.prevNonzero_);
    ar.b(f.nextNonzero_);
    ar.b(f.snapNonzero_);
}

// ------------------------------------------------------------------ fault

template <class Ar, class C>
void
StateIO::faults(Ar &ar, C &fi)
{
    ar.fixed(fi.bankStreams_, "fault bank streams",
             [&](auto &st) { ar.u64(st.state_); });
    ar.fixed(fi.niStreams_, "fault NI streams",
             [&](auto &st) { ar.u64(st.state_); });
}

// ----------------------------------------------------------------- engine

template <class Ar, class Sys>
void
StateIO::activeSet(Ar &ar, Sys &sys)
{
    // Active flags in canonical schedule-ordinal order, whichever engine
    // is attached; a system without an engine reports all-awake.
    const std::size_t n = sys.sim_.componentCount();
    ar.count(n, "engine component count");
    std::vector<std::uint8_t> flags(n, 1);
    engine::ExecutionEngine *eng = sys.engine_.get();
    if constexpr (!Ar::kLoading) {
        if (eng != nullptr)
            eng->forEachActiveFlag(
                [&](std::size_t ord, std::uint8_t &f) { flags.at(ord) = f; });
    }
    for (auto &f : flags)
        ar.u8(f);
    // Load only. A spurious wake is harmless (quiescent ticks are
    // no-ops) but a missed wake diverges, so the flags are applied
    // exactly. An engine with elision off keeps every flag set and
    // ticks everything.
    if constexpr (Ar::kLoading) {
        if (eng != nullptr && eng->elides())
            eng->forEachActiveFlag(
                [&](std::size_t ord, std::uint8_t &f) { f = flags.at(ord); });
    }
}

// ----------------------------------------------------------- whole system

template <class Ar, class Sys>
void
StateIO::wholeSystem(Ar &ar, Sys &sys)
{
    // Each NI's packet-id stream as (node + 1, packets numbered), for
    // the streams that numbered any, in node order. Unlisted streams
    // restore to zero.
    auto &net = *sys.net_;
    const int nodes = sys.shape_.totalNodes();
    std::vector<std::pair<std::uint32_t, std::uint64_t>> idStreams;
    for (NodeId n = 0; n < nodes; ++n) {
        auto &minted = net.ni(n).idsMinted_;
        if constexpr (Ar::kLoading)
            minted = 0;
        else if (minted != 0)
            idStreams.emplace_back(static_cast<std::uint32_t>(n + 1),
                                   minted);
    }
    ar.seq(idStreams, [&](auto &st) {
        ar.u32(st.first);
        ar.u64(st.second);
        if (st.first == 0 || st.first > static_cast<std::uint32_t>(nodes))
            throw SnapshotError("packet id stream index out of range");
    });
    if constexpr (Ar::kLoading) {
        for (const auto &[stream, seq] : idStreams)
            net.ni(static_cast<NodeId>(stream - 1)).idsMinted_ = seq;
    }

    ar.u64(sys.sim_.now_);

    Refs refs;
    for (const auto &st : sys.streams_)
        stream(ar, *st);
    for (const auto &c : sys.cores_)
        core(ar, *c);
    for (std::size_t i = 0; i < sys.l1s_.size(); ++i)
        l1(ar, *sys.l1s_[i], *sys.cores_[i]);
    for (const auto &b : sys.banks_)
        bank(ar, refs, *b);
    for (const auto &m : sys.mcs_)
        mc(ar, refs, *m);
    for (NodeId n = 0; n < nodes; ++n)
        router(ar, refs, net.router(n));
    for (NodeId n = 0; n < nodes; ++n)
        ni(ar, refs, net.ni(n));
    for (NodeId n = 0; n < nodes; ++n) {
        for (int d = 0; d < noc::kNumDirs; ++d) {
            if (auto *lk = net.topo_.linkOut(n, static_cast<noc::Dir>(d)))
                link(ar, refs, *lk);
        }
    }
    for (const auto &lk : net.niLinks_)
        link(ar, refs, *lk);

    ar.present(sys.bankAwarePolicy_ != nullptr, "bank-aware policy presence");
    if (sys.bankAwarePolicy_)
        policy(ar, *sys.bankAwarePolicy_);
    ar.present(sys.rcaFabric_ != nullptr, "RCA fabric presence");
    if (sys.rcaFabric_)
        fabric(ar, *sys.rcaFabric_);
    ar.present(sys.faults_ != nullptr, "fault injector presence");
    if (sys.faults_)
        faults(ar, *sys.faults_);

    activeSet(ar, sys);
}

void
StateIO::save(const system::CmpSystem &sys, Saver &s)
{
    if (sys.validation_)
        throw SnapshotError("cannot checkpoint a system with validation "
                            "enabled (census state is not serialised)");
    wholeSystem(s, sys);
}

void
StateIO::load(system::CmpSystem &sys, Loader &l)
{
    if (sys.validation_)
        throw SnapshotError("cannot restore into a system with validation "
                            "enabled (census state is not serialised)");
    wholeSystem(l, sys);
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
