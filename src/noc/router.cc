#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "telemetry/trace.hh"

namespace stacknoc::noc {

namespace {

/**
 * Stable insertion sort for the tiny (typically 1-3 element) candidate
 * lists of the allocation stages. Produces the exact ordering of
 * std::stable_sort without its per-call temporary-buffer allocation,
 * which dominated the switch-allocation profile.
 */
template <typename T, typename Less>
void
stableSortSmall(std::vector<T> &v, Less less)
{
    for (std::size_t i = 1; i < v.size(); ++i) {
        T x = v[i];
        std::size_t j = i;
        for (; j > 0 && less(x, v[j - 1]); --j)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

} // namespace

Router::Router(std::string rname, NodeId id, const NocParams &params,
               const RoutingFunction &routing, ArbitrationPolicy &policy,
               stats::Group &net_stats)
    : Ticking(std::move(rname)), id_(id), params_(params),
      routing_(routing), policy_(policy),
      numVcs_(static_cast<std::size_t>(params.totalVcs())),
      flitsIn_(net_stats.counter("flits_buffered")),
      flitsOut_(net_stats.counter("flits_switched")),
      packetsForwarded_(net_stats.counter("packets_forwarded"))
{
    const int vcs = params_.totalVcs();
    panic_if(vcs > 64, "router %d: %d VCs exceed the 64-bit status masks",
             id_, vcs);
    for (int pi = 0; pi < kNumDirs; ++pi) {
        InPort &ip = in_[static_cast<std::size_t>(pi)];
        ip.vcs.resize(static_cast<std::size_t>(vcs));
        for (int vi = 0; vi < vcs; ++vi) {
            auto &vc = ip.vcs[static_cast<std::size_t>(vi)];
            vc.buffer.reserve(static_cast<std::size_t>(params_.vcDepth));
            vc.port = static_cast<std::uint8_t>(pi);
            vc.idx = static_cast<std::uint8_t>(vi);
        }
    }
    credits_.assign(kNumDirs * numVcs_, params_.vcDepth);
    for (int vn = 0; vn < kNumVnets; ++vn) {
        const int n = params_.vcsPerVnet[static_cast<std::size_t>(vn)];
        vnetVcs_[static_cast<std::size_t>(vn)] =
            (n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
            << params_.vnetBase(vn);
    }
}

void
Router::connectIn(Dir d, Link *link)
{
    in_[static_cast<std::size_t>(static_cast<int>(d))].link = link;
    // Bound here so every wiring (full systems and single-router tests
    // alike) gets it: a flit wakes this router, and the pending bytes
    // let the per-tick drains skip polling channels nothing was pushed
    // on.
    link->data.bindReceiver(
        *this, &dataPending_[static_cast<std::size_t>(static_cast<int>(d))],
        ChannelBase::OnPush::Wake);
}

void
Router::connectOut(Dir d, Link *link)
{
    out_[static_cast<std::size_t>(static_cast<int>(d))].link = link;
    // Returning credits deliberately do not wake this router: it
    // drains them lazily at its next data-driven wake (see
    // Router::quiescent), which keeps pure credit-return traffic from
    // defeating elision.
    link->credit.bindReceiver(
        *this,
        &creditPending_[static_cast<std::size_t>(static_cast<int>(d))],
        ChannelBase::OnPush::SignalOnly);
}

void
Router::tick(Cycle now)
{
    if (faults_ && faults_->routerStuckNow(id_, now))
        return; // wedged: the whole pipeline freezes this cycle
    receiveCredits(now);
    receiveFlits(now);
    routeCompute(now);
    vcAllocate(now);
    switchAllocateAndTraverse(now);
}

void
Router::receiveCredits(Cycle now)
{
    // A port's pending byte is re-armed while credits remain in
    // flight (pushed but not yet past the link latency), so no
    // arrival can be missed.
    for (int pi = 0; pi < kNumDirs; ++pi) {
        if (creditPending_[static_cast<std::size_t>(pi)] == 0)
            continue;
        creditPending_[static_cast<std::size_t>(pi)] = 0;
        OutPort &op = out_[static_cast<std::size_t>(pi)];
        while (auto c = op.link->credit.receive(now)) {
            int &held = credit(static_cast<std::size_t>(pi), c->vc);
            ++held;
            panic_if(held > params_.vcDepth,
                     "router %d: credit overflow on vc %d", id_, c->vc);
        }
        if (op.link->credit.inFlight() != 0)
            creditPending_[static_cast<std::size_t>(pi)] = 1;
    }
}

void
Router::receiveFlits(Cycle now)
{
    for (int pi = 0; pi < kNumDirs; ++pi) {
        if (dataPending_[static_cast<std::size_t>(pi)] == 0)
            continue;
        dataPending_[static_cast<std::size_t>(pi)] = 0;
        InPort &ip = in_[static_cast<std::size_t>(pi)];
        while (auto lf = ip.link->data.receive(now)) {
            auto &vc = ip.vcs[static_cast<std::size_t>(lf->vc)];
            panic_if(static_cast<int>(vc.buffer.size()) >= params_.vcDepth,
                     "router %d: input buffer overflow on vc %d", id_,
                     lf->vc);
            Flit flit = std::move(lf->flit);
            flit.arrivedAt = now;
            if (flit.head()) {
                const Packet &pkt = *flit.pkt;
                if (auto *t = telemetry::tracer();
                    t && t->tracked(pkt.id)) {
                    t->record(telemetry::TraceEvent::RouterArrive, pkt.id,
                              static_cast<std::uint8_t>(pkt.cls), id_,
                              now);
                }
            }
            const bool was_empty = vc.buffer.empty();
            vc.buffer.push_back(std::move(flit));
            flitsIn_.inc();
            ++flitsBufferedTotal_;
            ++bufferedTotal_;
            if (pi != static_cast<int>(Dir::Local))
                ++localCongestion_;
            if (vc.buffer.back().head() && was_empty &&
                vc.status == VcStatus::Idle) {
                changeStatus(vc, VcStatus::Routing);
            }
        }
        if (ip.link->data.inFlight() != 0)
            dataPending_[static_cast<std::size_t>(pi)] = 1;
    }
}

void
Router::routeCompute(Cycle)
{
    if (stateCount_[static_cast<std::size_t>(VcStatus::Routing)] == 0)
        return;
    for (std::size_t pi = 0; pi < in_.size(); ++pi) {
        for (std::uint64_t m = stateMask(VcStatus::Routing, pi); m != 0;
             m &= m - 1) {
            auto &vc = in_[pi].vcs[static_cast<std::size_t>(
                std::countr_zero(m))];
            if (vc.buffer.empty())
                continue;
            const Flit &front = vc.buffer.front();
            panic_if(!front.head(),
                     "router %d: routing a non-head flit of %s", id_,
                     front.pkt->toString().c_str());
            vc.outDir = front.pkt->dest == id_
                            ? Dir::Local
                            : routing_.route(id_, *front.pkt);
            changeStatus(vc, VcStatus::WaitVa);
        }
    }
}

void
Router::vcAllocate(Cycle now)
{
    if (stateCount_[static_cast<std::size_t>(VcStatus::WaitVa)] == 0)
        return;

    // Collect every waiting candidate in one pass over the input VCs.
    struct Cand
    {
        int flat;
        VirtualChannel *vc;
        int dir;
        int vnet;
        int cls;
    };
    static thread_local std::vector<Cand> cands;
    cands.clear();
    int base = 0;
    for (std::size_t pi = 0; pi < in_.size(); ++pi) {
        InPort &ip = in_[pi];
        for (std::uint64_t m = stateMask(VcStatus::WaitVa, pi); m != 0;
             m &= m - 1) {
            const int vi = std::countr_zero(m);
            auto &vc = ip.vcs[static_cast<std::size_t>(vi)];
            if (vc.buffer.empty())
                continue;
            Packet &pkt = *vc.buffer.front().pkt;
            if (!policy_.eligible(id_, pkt, now))
                continue;
            cands.push_back({base + vi, &vc,
                             static_cast<int>(vc.outDir),
                             vnetOf(pkt.cls),
                             policy_.priorityClass(id_, pkt, now)});
        }
        base += static_cast<int>(ip.vcs.size());
    }
    if (cands.empty())
        return;

    // Hand each free output VC of each (port, vnet) to the highest-
    // priority candidate; ties break round-robin on the flat VC index.
    // Only (port, vnet) pairs that actually have a candidate are
    // visited, in the same port-major ascending order a full sweep
    // would use.
    static thread_local std::vector<int> keys;
    keys.clear();
    for (const auto &c : cands) {
        const int k = c.dir * kNumVnets + c.vnet;
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    stableSortSmall(keys, [](int a, int b) { return a < b; });
    for (const int key : keys) {
        const int d = key / kNumVnets;
        const int vn = key % kNumVnets;
        OutPort &op = out_[static_cast<std::size_t>(d)];
        if (!op.link)
            continue;
        {
            static thread_local std::vector<Cand *> group;
            group.clear();
            for (auto &c : cands) {
                if (c.dir == d && c.vnet == vn && c.vc)
                    group.push_back(&c);
            }
            if (group.empty())
                continue;

            std::uint64_t free_vcs =
                ~op.vcBusy & vnetVcs_[static_cast<std::size_t>(vn)];
            if (free_vcs == 0)
                continue;

            if (group.size() > 1) {
                stableSortSmall(group,
                    [&](const Cand *a, const Cand *b) {
                        if (a->cls != b->cls)
                            return a->cls < b->cls;
                        const int ra =
                            (a->flat - op.rrVa + 1000000) % 1000000;
                        const int rb =
                            (b->flat - op.rrVa + 1000000) % 1000000;
                        return ra < rb;
                    });
            }

            // Grant free VCs lowest index first.
            for (Cand *c : group) {
                if (free_vcs == 0)
                    break;
                const int out_vc = std::countr_zero(free_vcs);
                free_vcs &= free_vcs - 1;
                changeStatus(*c->vc, VcStatus::Active);
                c->vc->outVc = out_vc;
                c->vc->vaDoneAt = now;
                op.vcBusy |= std::uint64_t{1} << out_vc;
                op.rrVa = c->flat + 1;
                c->vc = nullptr; // consumed
            }
        }
    }
}

void
Router::switchAllocateAndTraverse(Cycle now)
{
    struct Request
    {
        InPort *ip;
        VirtualChannel *vc;
        int inPortIdx;
        int vcIdx;
        int cls;
    };

    if (stateCount_[static_cast<std::size_t>(VcStatus::Active)] == 0)
        return;
    // Input stage: each input port nominates up to as many VCs as its
    // incoming link delivers per cycle (a 256-bit TSB keeps its doubled
    // datapath through the entry router's switch).
    static thread_local std::vector<Request> nominees;
    nominees.clear();
    for (int pi = 0; pi < kNumDirs; ++pi) {
        InPort &ip = in_[static_cast<std::size_t>(pi)];
        const std::uint64_t active =
            stateMask(VcStatus::Active, static_cast<std::size_t>(pi));
        if (active == 0)
            continue;
        const int vcs = static_cast<int>(ip.vcs.size());
        const int speedup = ip.link ? ip.link->bandwidth : 1;

        static thread_local std::vector<Request> ready;
        ready.clear();
        // Visit active VCs in the round-robin order rrSaVc, rrSaVc+1,
        // ..., vcs-1, 0, ..., rrSaVc-1: the bits at or above the
        // pointer in ascending order, then the bits below it.
        const std::uint64_t below =
            (std::uint64_t{1} << ip.rrSaVc) - 1;
        std::uint64_t rot[2] = {active & ~below, active & below};
        for (std::uint64_t &half : rot)
        for (; half != 0; half &= half - 1) {
            const int vi = std::countr_zero(half);
            VirtualChannel &vc = ip.vcs[static_cast<std::size_t>(vi)];
            if (vc.buffer.empty())
                continue;
            const Flit &front = vc.buffer.front();
            if (front.arrivedAt >= now || vc.vaDoneAt >= now)
                continue;
            if (credit(static_cast<std::size_t>(vc.outDir), vc.outVc) <= 0)
                continue;
            Packet &pkt = *front.pkt;
            if (front.head() && !policy_.eligible(id_, pkt, now))
                continue;
            const int cls = policy_.priorityClass(id_, pkt, now);
            ready.push_back(Request{&ip, &vc, pi, vi, cls});
        }
        if (ready.empty())
            continue;
        stableSortSmall(ready,
            [](const Request &a, const Request &b) {
                return a.cls < b.cls; // stable: keeps rr order within class
            });
        const int grants = std::min<int>(speedup,
                                         static_cast<int>(ready.size()));
        for (int g = 0; g < grants; ++g)
            nominees.push_back(ready[static_cast<std::size_t>(g)]);
        ip.rrSaVc = (ready.front().vcIdx + 1) % vcs;
    }
    if (nominees.empty())
        return;

    // Output stage: each output port grants up to its link bandwidth.
    // Visit only the ports some nominee wants, in ascending port order
    // as a full sweep would.
    static thread_local std::vector<int> out_dirs;
    out_dirs.clear();
    for (const auto &r : nominees) {
        const int d = static_cast<int>(r.vc->outDir);
        if (std::find(out_dirs.begin(), out_dirs.end(), d) ==
            out_dirs.end()) {
            out_dirs.push_back(d);
        }
    }
    stableSortSmall(out_dirs, [](int a, int b) { return a < b; });
    for (const int d : out_dirs) {
        OutPort &op = out_[static_cast<std::size_t>(d)];
        if (!op.link)
            continue;
        static thread_local std::vector<Request *> wants;
        wants.clear();
        for (auto &r : nominees) {
            if (static_cast<int>(r.vc->outDir) == d)
                wants.push_back(&r);
        }
        if (wants.empty())
            continue;
        stableSortSmall(wants,
            [&](const Request *a, const Request *b) {
                if (a->cls != b->cls)
                    return a->cls < b->cls;
                const int ra = (a->inPortIdx - op.rrSa + kNumDirs) %
                               kNumDirs;
                const int rb = (b->inPortIdx - op.rrSa + kNumDirs) %
                               kNumDirs;
                return ra < rb;
            });

        int sent = 0;
        for (Request *r : wants) {
            if (sent >= op.link->bandwidth)
                break;
            VirtualChannel &vc = *r->vc;
            Flit flit = std::move(vc.buffer.front());
            vc.buffer.pop_front();
            --bufferedTotal_;
            if (r->inPortIdx != static_cast<int>(Dir::Local))
                --localCongestion_;
            ++sent;
            op.rrSa = r->inPortIdx + 1;

            const bool is_head = flit.head();
            const bool is_tail = flit.tail();
            // The channel queue keeps the packet alive past the move.
            Packet *pkt = flit.pkt.get();
            op.link->data.push(now, LinkFlit{std::move(flit), vc.outVc});
            --credit(static_cast<std::size_t>(d), vc.outVc);
            flitsOut_.inc();
            ++flitsSwitchedTotal_;

            // Return the freed buffer slot upstream.
            if (r->ip->link)
                r->ip->link->credit.push(now, Credit{r->vcIdx});

            if (is_head) {
                policy_.onForward(id_, *pkt, now);
                packetsForwarded_.inc();
            }
            if (is_tail) {
                op.vcBusy &= ~(std::uint64_t{1} << vc.outVc);
                finishPacket(*r->ip, vc);
            }
        }
    }
}

void
Router::changeStatus(VirtualChannel &vc, VcStatus to)
{
    const std::uint64_t bit = std::uint64_t{1} << vc.idx;
    const auto from = static_cast<std::size_t>(vc.status);
    const auto dest = static_cast<std::size_t>(to);
    stateMask(vc.status, vc.port) &= ~bit;
    --stateCount_[from];
    vc.status = to;
    stateMask(to, vc.port) |= bit;
    ++stateCount_[dest];
}

void
Router::finishPacket(InPort &, VirtualChannel &vc)
{
    vc.outVc = -1;
    vc.vaDoneAt = kCycleNever;
    if (vc.buffer.empty()) {
        changeStatus(vc, VcStatus::Idle);
    } else {
        panic_if(!vc.buffer.front().head(),
                 "router %d: packet boundary corrupted", id_);
        changeStatus(vc, VcStatus::Routing);
    }
}

int
Router::bufferedFlits() const
{
    return bufferedTotal_;
}

int
Router::bufferedFlits(Dir d) const
{
    int n = 0;
    const auto &ip = in_[static_cast<std::size_t>(static_cast<int>(d))];
    for (const auto &vc : ip.vcs)
        n += static_cast<int>(vc.buffer.size());
    return n;
}

int
Router::localCongestion() const
{
    return localCongestion_;
}

bool
Router::quiescent(Cycle) const
{
    if (faults_ != nullptr && faults_->spec().stuckRouter == id_)
        return false;
    if (bufferedTotal_ != 0 ||
        stateCount_[static_cast<std::size_t>(VcStatus::Routing)] != 0 ||
        stateCount_[static_cast<std::size_t>(VcStatus::WaitVa)] != 0 ||
        stateCount_[static_cast<std::size_t>(VcStatus::Active)] != 0) {
        return false;
    }
    for (const auto &ip : in_) {
        if (ip.link && ip.link->data.inFlight() != 0)
            return false;
    }
    // Credits in flight on the output links do NOT block quiescence:
    // an empty router makes no decision that reads its credit
    // counters, and receiveCredits() drains every arrived credit at
    // the top of the next tick, before any allocation stage looks at
    // them. Deferring the drain to the next data-driven wake therefore
    // yields bit-identical state while letting the router sleep
    // through pure credit-return traffic.
    return true;
}

void
Router::corruptBufferedFlitForTest(Dir d, int vc, std::size_t index,
                                   bool duplicate)
{
    auto &buf = in_[static_cast<std::size_t>(static_cast<int>(d))]
                    .vcs.at(static_cast<std::size_t>(vc))
                    .buffer;
    panic_if(index >= buf.size(), "router %d: no flit %zu to corrupt",
             id_, index);
    // Rebuild the ring with the flit dropped or doubled; a duplicate
    // may take the buffer past vcDepth, so the ring can grow here.
    std::vector<Flit> flits(buf.begin(), buf.end());
    const auto at = flits.begin() + static_cast<std::ptrdiff_t>(index);
    const int delta = duplicate ? 1 : -1;
    if (duplicate)
        flits.insert(at, *at);
    else
        flits.erase(at);
    buf.clear();
    for (Flit &f : flits)
        buf.push_back(std::move(f));
    bufferedTotal_ += delta;
    if (d != Dir::Local)
        localCongestion_ += delta;
}

} // namespace stacknoc::noc
