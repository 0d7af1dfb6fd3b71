#include "validate/census.hh"

#include <algorithm>
#include <array>

namespace stacknoc::validate {

namespace {

/**
 * Stable LSD radix sort of @p v by packet id, one byte per pass; bytes
 * every id shares are skipped. A comparison sort of a few hundred
 * random ids costs mostly branch mispredictions; this costs a handful
 * of linear passes. @p tmp is scratch.
 */
void
sortById(std::vector<CensusFlit> &v, std::vector<CensusFlit> &tmp)
{
    std::uint64_t any = 0;
    std::uint64_t all = ~std::uint64_t{0};
    for (const CensusFlit &f : v) {
        any |= f.id;
        all &= f.id;
    }
    const std::uint64_t varying = any ^ all;
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
    const noc::Topology &topo = net.topology();
    const int nodes = net.shape().totalNodes();
    using Kind = CensusLink::Kind;
    const auto add = [&](const noc::Link *link, Kind kind, NodeId from,
                         NodeId to, noc::Dir out, noc::Dir in) {
        links_.push_back({link, kind, from, to, out, in,
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

    const auto per = [&](std::size_t n) {
        return std::vector<int>(n * vcs_, 0);
    };
    bufferOcc_ = per(static_cast<std::size_t>(nodes * noc::kNumDirs));
    ejectOcc_ = per(static_cast<std::size_t>(nodes));
    linkData_ = per(links_.size());
    linkCredits_ = per(links_.size());
}

namespace {

/**
 * Whether channel @p ch, whose receiver signal byte is @p signal, may
 * hold values. A zero byte means its live queue is empty (see
 * ChannelBase::signalFlag), but between cycles the sharded engine still
 * keeps the last cycle's cross-shard pushes staged, and those are in
 * flight too. Otherwise the census skips the channel without touching
 * its queue. Should a receiver ever leave values behind a zero byte,
 * they drop out of the census, and the packet and credit identities
 * report them missing.
 */
template <typename T>
bool
mayHold(const Channel<T> &ch, const std::uint8_t *signal)
{
    return signal == nullptr || *signal != 0 || ch.hasStaged();
}

} // namespace

void
FabricCensus::take()
{
    flits_.clear();
    for (auto *counts : {&bufferOcc_, &ejectOcc_, &linkData_, &linkCredits_})
        std::fill(counts->begin(), counts->end(), 0);

    std::uint32_t ordinal = 0;
    const auto note = [&](NodeId at, const noc::Flit &f) {
        flits_.push_back({f.pkt->id, f.seq, at, ordinal++, f.pkt.get()});
    };
    const std::size_t vcs = vcs_;
    const int nodes = net_.shape().totalNodes();
    for (NodeId id = 0; id < nodes; ++id) {
        const auto node = static_cast<std::size_t>(id);
        int *occ = &bufferOcc_[node * noc::kNumDirs * vcs];
        net_.router(id).forEachBufferedFlit(
            [&](noc::Dir d, int vc, const noc::Flit &f) {
                ++occ[static_cast<std::size_t>(d) * vcs +
                      static_cast<std::size_t>(vc)];
                note(id, f);
            });
        for (std::size_t l = linkBegin_[node]; l < linkBegin_[node + 1];
             ++l) {
            const CensusLink &cl = links_[l];
            int *data = &linkData_[l * vcs];
            int *credits = &linkCredits_[l * vcs];
            if (mayHold(cl.link->data, cl.dataSignal)) {
                cl.link->data.forEachInFlight(
                    [&](const noc::LinkFlit &lf) {
                        ++data[lf.vc];
                        note(cl.to, lf.flit);
                    });
            }
            if (mayHold(cl.link->credit, cl.creditSignal)) {
                cl.link->credit.forEachInFlight(
                    [&](const noc::Credit &c) { ++credits[c.vc]; });
            }
        }
        const noc::NetworkInterface &ni = net_.ni(id);
        int *eject = &ejectOcc_[node * vcs];
        ni.forEachEjectFlit([&](int vc, const noc::Flit &f, bool) {
            ++eject[vc];
            note(id, f);
        });
        // Packets mid-serialisation at their source count as injected
        // the moment the head flit leaves (packets_injected semantics).
        ni.forEachPendingPacket([&](const noc::Packet &pkt, bool injected) {
            if (injected)
                flits_.push_back({pkt.id, kPendingSeq, id, ordinal++, &pkt});
        });
    }

    // Stable radix sort by packet id keeps each packet's entries in walk
    // order; then order each (small) packet group by seq, stably.
    sortById(flits_, scratch_);
    for (auto first = flits_.begin(); first != flits_.end();) {
        auto last = first + 1;
        while (last != flits_.end() && last->id == first->id)
            ++last;
        for (auto i = first + 1; i < last; ++i) {
            const CensusFlit x = *i;
            auto j = i;
            for (; j > first && x.seq < j[-1].seq; --j)
                *j = j[-1];
            *j = x;
        }
        first = last;
    }
}

} // namespace stacknoc::validate
