#include "validate/census.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace stacknoc::validate {

namespace {

/**
 * Stable LSD radix sort of @p v by packet id, one byte per pass; bytes
 * in which no two ids differ (none set in @p varying) are skipped. A
 * comparison sort of a few hundred random ids costs mostly branch
 * mispredictions; this costs a handful of linear passes. @p tmp is
 * scratch.
 */
void
sortById(std::vector<CensusFlit> &v, std::vector<CensusFlit> &tmp,
         std::uint64_t varying)
{
    tmp.resize(v.size());
    for (int shift = 0; shift < 64; shift += 8) {
        if (((varying >> shift) & 0xff) == 0)
            continue;
        std::array<std::size_t, 257> start{};
        for (const CensusFlit &f : v)
            ++start[((f.id >> shift) & 0xff) + 1];
        for (std::size_t b = 1; b < start.size(); ++b)
            start[b] += start[b - 1];
        for (const CensusFlit &f : v)
            tmp[start[(f.id >> shift) & 0xff]++] = f;
        v.swap(tmp);
    }
}

} // namespace

FabricCensus::FabricCensus(const noc::Network &net)
    : net_(net), vcs_(static_cast<std::size_t>(net.params().totalVcs()))
{
    const int depth = net.params().vcDepth;
    panic_if(depth > std::numeric_limits<Count>::max() / 4,
             "census: VC depth %d too deep for its 16-bit counts", depth);
    const noc::Topology &topo = net.topology();
    const int nodes = net.shape().totalNodes();
    const auto count = static_cast<std::size_t>(nodes);
    inLink_.assign(count * noc::kNumDirs, kNoLink);
    using Kind = CensusLink::Kind;
    const auto add = [&](const noc::Link *link, Kind kind, NodeId from,
                         NodeId to, noc::Dir out, noc::Dir in) {
        if (kind != Kind::RouterToNi) {
            inLink_[static_cast<std::size_t>(to) * noc::kNumDirs +
                    static_cast<std::size_t>(in)] =
                static_cast<std::uint32_t>(links_.size());
        }
        links_.push_back({link, kind, from, to, out,
                          link->data.signalFlag(),
                          link->credit.signalFlag()});
    };
    for (NodeId id = 0; id < nodes; ++id) {
        linkBegin_.push_back(links_.size());
        for (int d = 1; d < noc::kNumDirs; ++d) {
            const auto dir = static_cast<noc::Dir>(d);
            if (const noc::Link *link = topo.linkOut(id, dir)) {
                add(link, Kind::RouterToRouter, id, topo.neighbor(id, dir),
                    dir, noc::opposite(dir));
            }
        }
        add(&net.niToRouterLink(id), Kind::NiToRouter, id, id,
            noc::Dir::Local, noc::Dir::Local);
        add(&net.routerToNiLink(id), Kind::RouterToNi, id, id,
            noc::Dir::Local, noc::Dir::Local);
    }
    linkBegin_.push_back(links_.size());

    stages_.assign(count, 0);
    stagesEpoch_ = Ticking::shardEpoch() - 1; // derive on the first sweep
    const std::size_t entries = links_.size() * vcs_;
    const std::size_t padded = (entries + kLanes - 1) / kLanes * kLanes;
    for (auto *table : {&credits_, &data_, &buffer_, &creditsBack_})
        table->assign(padded, 0);
    std::fill(credits_.begin() + static_cast<std::ptrdiff_t>(entries),
              credits_.end(), static_cast<Count>(depth));
}

void
FabricCensus::refreshStaging()
{
    const std::uint64_t epoch = Ticking::shardEpoch();
    if (epoch == stagesEpoch_)
        return;
    stagesEpoch_ = epoch;
    using Kind = CensusLink::Kind;
    const auto shardOf = [&](NodeId n, bool ni) {
        return ni ? net_.ni(n).shard() : net_.router(n).shard();
    };
    for (std::size_t n = 0; n + 1 < linkBegin_.size(); ++n) {
        std::uint32_t stages = 0;
        for (std::size_t l = linkBegin_[n]; l < linkBegin_[n + 1]; ++l) {
            const CensusLink &cl = links_[l];
            const int sender = shardOf(cl.from, cl.kind == Kind::NiToRouter);
            const int receiver = shardOf(cl.to, cl.kind == Kind::RouterToNi);
            const auto bit = 2 * static_cast<unsigned>(l - linkBegin_[n]);
            if (ChannelBase::stagesAcross(sender, receiver))
                stages |= std::uint32_t{1} << bit;
            if (ChannelBase::stagesAcross(receiver, sender))
                stages |= std::uint32_t{1} << (bit + 1);
        }
        stages_[n] = stages;
    }
}

void
FabricCensus::take()
{
    refreshStaging();
    flits_.clear();
    for (auto *table : {&data_, &buffer_, &creditsBack_})
        std::fill(table->begin(), table->end(), 0);

    std::uint32_t ordinal = 0;
    std::uint64_t anyId = 0;
    std::uint64_t allIds = ~std::uint64_t{0};
    const auto mark = [&](NodeId at, const noc::Packet &pkt, int seq) {
        anyId |= pkt.id;
        allIds &= pkt.id;
        flits_.push_back({pkt.id, seq, at, ordinal++, &pkt});
    };
    const std::size_t vcs = vcs_;
    const auto row = [vcs](std::vector<Count> &table, std::size_t link) {
        return table.data() + link * vcs;
    };
    const int nodes = net_.shape().totalNodes();
    for (NodeId id = 0; id < nodes; ++id) {
        const auto node = static_cast<std::size_t>(id);
        const std::size_t first = linkBegin_[node];
        const std::size_t last = linkBegin_[node + 1];

        // The links leaving the node. The router holds the credits of
        // all but the NI-to-router one (the node's last but one). Their
        // channels that may hold values are marked, a data and a credit
        // bit per link, to be visited below in order. A set signal byte
        // marks a channel; so do values the sharded engine still keeps
        // staged, which only a channel whose pushes cross shards can
        // hold. Should a receiver ever leave values behind a zero byte,
        // they drop out of the census, and the packet and credit
        // identities report them missing.
        const noc::Router &router = net_.router(id);
        // Up to kNumDirs - 1 router links and the two NI links.
        static_assert(2 * (noc::kNumDirs + 1) <= 32);
        std::uint32_t probe = 0;
        for (std::size_t l = first; l < last; ++l) {
            const CensusLink &cl = links_[l];
            if (l != last - 2) {
                const int *held = router.outCredits(cl.out).data();
                Count *credits = row(credits_, l);
                for (std::size_t v = 0; v < vcs; ++v)
                    credits[v] = static_cast<Count>(held[v]);
            }
            const auto bit = 2 * static_cast<unsigned>(l - first);
            const bool data = cl.dataSignal == nullptr || *cl.dataSignal;
            const bool credit =
                cl.creditSignal == nullptr || *cl.creditSignal;
            probe |= (std::uint32_t{data} | std::uint32_t{credit} << 1)
                     << bit;
        }
        for (std::uint32_t s = stages_[node]; s != 0; s &= s - 1) {
            const auto bit = static_cast<unsigned>(std::countr_zero(s));
            const noc::Link &link = *links_[first + bit / 2].link;
            if (bit % 2 == 0 ? link.data.hasStaged()
                             : link.credit.hasStaged())
                probe |= std::uint32_t{1} << bit;
        }

        // The router's input buffers: what they hold for each input
        // link.
        const std::uint32_t *in = &inLink_[node * noc::kNumDirs];
        router.forEachOccupiedVc(
            [&](noc::Dir d, int vc, const Ring<noc::Flit> &buffer) {
                const std::uint32_t link = in[static_cast<int>(d)];
                if (link != kNoLink)
                    row(buffer_, link)[vc] = static_cast<Count>(buffer.size());
                for (const noc::Flit &f : buffer)
                    mark(id, *f.pkt, f.seq);
            });

        // The marked link channels: flits and returning credits.
        for (; probe != 0; probe &= probe - 1) {
            const auto bit =
                static_cast<std::size_t>(std::countr_zero(probe));
            const std::size_t l = first + bit / 2;
            const CensusLink &cl = links_[l];
            if (bit % 2 == 0) {
                Count *data = row(data_, l);
                cl.link->data.forEachInFlight(
                    [&](const noc::LinkFlit &lf) {
                        ++data[lf.vc];
                        mark(cl.to, *lf.flit.pkt, lf.flit.seq);
                    });
            } else {
                Count *back = row(creditsBack_, l);
                cl.link->credit.forEachInFlight(
                    [&](const noc::Credit &c) { ++back[c.vc]; });
            }
        }

        // The NI: what its ejection buffers hold for the router-to-NI
        // link (the node's last), and the credits it holds for the
        // NI-to-router link.
        const noc::NetworkInterface &ni = net_.ni(id);
        Count *eject = row(buffer_, last - 1);
        ni.forEachEjectFlit([&](int vc, const noc::Flit &f, bool) {
            ++eject[vc];
            mark(id, *f.pkt, f.seq);
        });
        // Packets mid-serialisation at their source count as injected
        // the moment the head flit leaves (packets_injected semantics).
        Count *inj = row(credits_, last - 2);
        ni.forEachInjVc([&](int vc, int ni_credits, const noc::Packet *pkt) {
            inj[vc] = static_cast<Count>(ni_credits);
            if (pkt != nullptr)
                mark(id, *pkt, kPendingSeq);
        });
    }
    sortFlits(anyId ^ allIds);
}

void
FabricCensus::sortFlits(std::uint64_t varying)
{
    // The radix sort by packet id is stable, so each packet's entries
    // stay in walk order; then each entry a packet has out of seq
    // order moves back among its predecessors. Few are, so the test is
    // one rarely taken branch per entry.
    sortById(flits_, scratch_, varying);
    CensusFlit *const v = flits_.data();
    for (std::size_t i = 1; i < flits_.size(); ++i) {
        if (!((v[i].id == v[i - 1].id) & (v[i].seq < v[i - 1].seq)))
            continue;
        const CensusFlit x = v[i];
        std::size_t j = i;
        for (; j > 0 && v[j - 1].id == x.id && x.seq < v[j - 1].seq; --j)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

} // namespace stacknoc::validate
