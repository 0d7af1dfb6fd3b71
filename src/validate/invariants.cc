#include "validate/invariants.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"
#include "coherence/messages.hh"

namespace stacknoc::validate {

namespace {

std::string
describePacket(const noc::Packet &pkt)
{
    return detail::format(
        "pkt %llu cls=%s %d->%d bank=%d flits=%d",
        static_cast<unsigned long long>(pkt.id),
        noc::packetClassName(pkt.cls), pkt.src, pkt.dest, pkt.destBank,
        pkt.numFlits);
}

/**
 * The seq set of one packet's census flits [first, last), sorted by
 * seq, as a hex bit mask ("0x1f3") of any width.
 */
std::string
seqMask(const CensusFlit *first, const CensusFlit *last)
{
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(last[-1].seq / 64 + 1), 0);
    for (const CensusFlit *f = first; f != last; ++f) {
        words[static_cast<std::size_t>(f->seq / 64)] |=
            std::uint64_t{1} << (f->seq % 64);
    }
    std::string mask = detail::format(
        "0x%llx", static_cast<unsigned long long>(words.back()));
    for (auto w = words.rbegin() + 1; w != words.rend(); ++w)
        mask += detail::format("%016llx", static_cast<unsigned long long>(*w));
    return mask;
}

/**
 * Call @p fn(first, last) for each packet's run of census entries: the
 * census is sorted by packet id, so a packet's entries are adjacent.
 */
template <typename Fn>
void
forEachCensusPacket(const std::vector<CensusFlit> &flits, Fn fn)
{
    const CensusFlit *const end = flits.data() + flits.size();
    for (const CensusFlit *first = flits.data(); first != end;) {
        const CensusFlit *last = first + 1;
        while (last != end && last->id == first->id)
            ++last;
        fn(first, last);
        first = last;
    }
}

} // namespace

void
addStandardCheckers(ValidationHub &hub, const SystemView &view,
                    const ValidationConfig &config)
{
    panic_if(view.net == nullptr,
             "validation requires at least a network");
    const FabricCensus &census = hub.fabricCensus(*view.net);
    hub.add(std::make_unique<PacketConservationChecker>(
        census, *view.net, config.stallThreshold));
    hub.add(std::make_unique<CreditConservationChecker>(census, *view.net));
    if (view.policy && view.regions && view.parents) {
        hub.add(std::make_unique<ParentHoldChecker>(
            census, *view.policy, *view.regions, *view.parents,
            config.holdSlack));
    }
    if (!view.banks.empty() && view.regions) {
        hub.add(std::make_unique<BankAccountingChecker>(
            *view.net, view.banks, *view.regions, view.bankRequestCap,
            view.bankWriteCap));
    }
    if (!view.l1s.empty())
        hub.add(std::make_unique<MesiChecker>(view.l1s));
}

// --------------------------------------------------------------------
// PacketConservationChecker

PacketConservationChecker::PacketConservationChecker(
    const FabricCensus &census, const noc::Network &net,
    Cycle stall_threshold)
    : census_(census), stallThreshold_(stall_threshold),
      injected_(net.stats().findCounter("packets_injected")),
      ejected_(net.stats().findCounter("packets_ejected")),
      dropped_(net.stats().findCounter("packets_dropped")),
      switched_(net.stats().findCounter("flits_switched"))
{
}

void
PacketConservationChecker::onReset(Cycle)
{
    // Statistics were zeroed with packets still in flight: re-derive
    // the census-vs-counter offset on the next sweep.
    baselined_ = false;
    progressArmed_ = false;
}

void
PacketConservationChecker::check(Cycle now, std::vector<Violation> &out)
{
    auto fail = [&](std::string msg) {
        out.push_back(Violation{name(), now, std::move(msg)});
    };

    std::int64_t inFlight = 0;
    forEachCensusPacket(census_.flits(), [&](const CensusFlit *first,
                                             const CensusFlit *last) {
        ++inFlight;
        const noc::Packet &pkt = *first->pkt;
        const bool inInjVc = first->seq == FabricCensus::kPendingSeq;
        if (inInjVc)
            ++first;
        if (first == last)
            return; // all sent flits already consumed downstream
        // Wormhole order: the surviving flits of a packet form one
        // contiguous seq range (earlier flits are consumed in order at
        // the destination). A hole means a dropped or reordered flit.
        bool gap = false;
        for (const CensusFlit *f = first + 1; f != last; ++f) {
            if (f->seq == f[-1].seq) {
                fail(detail::format("duplicate flit seq %d at node %d: %s",
                                    f->seq, f->at,
                                    describePacket(pkt).c_str()));
            } else if (f->seq != f[-1].seq + 1) {
                gap = true;
            }
        }
        if (gap) {
            fail(detail::format("flit gap (mask %s): %s",
                                seqMask(first, last).c_str(),
                                describePacket(pkt).c_str()));
        }
        if (!inInjVc && last[-1].seq != pkt.numFlits - 1) {
            fail(detail::format("tail flit missing (mask %s): %s",
                                seqMask(first, last).c_str(),
                                describePacket(pkt).c_str()));
        }
    });

    const std::int64_t inj =
        injected_ ? static_cast<std::int64_t>(injected_->value()) : 0;
    // Packets dropped at an NI past the retransmit budget left the
    // fabric just as surely as ejected ones; they are accounted, not
    // lost, so the conservation identity folds them in.
    const std::int64_t ej =
        (ejected_ ? static_cast<std::int64_t>(ejected_->value()) : 0) +
        (dropped_ ? static_cast<std::int64_t>(dropped_->value()) : 0);
    if (!baselined_) {
        // The census-vs-counter offset is fixed at attach/reset time:
        // in flight == baseline + injected - (ejected + dropped) ever
        // after.
        baseline_ = inFlight - inj + ej;
        baselined_ = true;
    } else if (inFlight != baseline_ + inj - ej) {
        fail(detail::format(
            "packet census %lld != baseline %lld + injected %lld - "
            "(ejected + dropped) %lld",
            static_cast<long long>(inFlight),
            static_cast<long long>(baseline_),
            static_cast<long long>(inj), static_cast<long long>(ej)));
    }

    // Progress: with packets in flight, injection, ejection or flit
    // switching must advance within the stall threshold.
    const std::uint64_t sw = switched_ ? switched_->value() : 0;
    const bool moved = !progressArmed_ ||
                       sw != lastSwitched_ ||
                       static_cast<std::uint64_t>(inj) != lastInjected_ ||
                       static_cast<std::uint64_t>(ej) != lastEjected_;
    if (moved || inFlight == 0) {
        lastProgressAt_ = now;
        lastSwitched_ = sw;
        lastInjected_ = static_cast<std::uint64_t>(inj);
        lastEjected_ = static_cast<std::uint64_t>(ej);
        progressArmed_ = true;
    } else if (stallThreshold_ > 0 &&
               now - lastProgressAt_ >= stallThreshold_) {
        fail(detail::format(
            "no network progress for %llu cycles with %lld packet(s) "
            "in flight (possible deadlock)",
            static_cast<unsigned long long>(now - lastProgressAt_),
            static_cast<long long>(inFlight)));
        lastProgressAt_ = now; // report once per threshold window
    }
}

// --------------------------------------------------------------------
// CreditConservationChecker

CreditConservationChecker::CreditConservationChecker(
    const FabricCensus &census, const noc::Network &net)
    : census_(census), depth_(net.params().vcDepth)
{
}

void
CreditConservationChecker::check(Cycle now, std::vector<Violation> &out)
{
    using Count = FabricCensus::Count;
    using Kind = CensusLink::Kind;
    constexpr std::size_t kLanes = FabricCensus::kLanes;
    const auto depth = static_cast<Count>(depth_);
    const Count *credits = census_.senderCredits().data();
    const Count *data = census_.dataInFlight().data();
    const Count *buffer = census_.receiverOccupancy().data();
    const Count *back = census_.creditsInFlight().data();

    // One branch-free pass over every (link, VC) entry, kLanes at a
    // time so that it vectorises: a lane's flag has its sign bit set
    // when its credits or buffer are negative or its total is not the
    // depth. The four counts are small enough to sum in 16 bits (see
    // FabricCensus::Count), and the padding passes. A clean sweep ends
    // here.
    Count flags = 0;
    for (std::size_t base = 0; base < census_.paddedSize(); base += kLanes) {
        for (std::size_t j = base; j < base + kLanes; ++j) {
            const auto sum = static_cast<Count>(credits[j] + data[j] +
                                                buffer[j] + back[j]);
            flags |= static_cast<Count>(credits[j] | buffer[j] |
                                        (sum != depth ? -1 : 0));
        }
    }
    if (flags >= 0)
        return;

    // Otherwise report each failing VC, link by link.
    const auto &links = census_.links();
    const std::size_t vcs = census_.vcs();
    for (std::size_t l = 0, i = 0; l < links.size(); ++l) {
        const CensusLink &cl = links[l];
        const char *what = cl.kind == Kind::RouterToRouter ? "link"
                           : cl.kind == Kind::NiToRouter ? "ni-to-router"
                                                         : "router-to-ni";
        for (std::size_t vc = 0; vc < vcs; ++vc, ++i) {
            if (credits[i] < 0 || buffer[i] < 0) {
                out.push_back(Violation{
                    name(), now,
                    detail::format("%s %d->%d vc %zu: negative credits "
                                   "(%d) or buffer (%d)",
                                   what, cl.from, cl.to, vc, credits[i],
                                   buffer[i])});
            } else if (credits[i] + data[i] + buffer[i] + back[i] !=
                       depth) {
                out.push_back(Violation{
                    name(), now,
                    detail::format("%s %d->%d vc %zu: credits %d + "
                                   "data-in-flight %d + buffer %d + "
                                   "credits-in-flight %d != depth %d",
                                   what, cl.from, cl.to, vc, credits[i],
                                   data[i], buffer[i], back[i], depth_)});
            }
        }
    }
}

// --------------------------------------------------------------------
// ParentHoldChecker

ParentHoldChecker::ParentHoldChecker(const FabricCensus &census,
                                     const sttnoc::BankAwarePolicy &policy,
                                     const sttnoc::RegionMap &regions,
                                     const sttnoc::ParentMap &parents,
                                     Cycle hold_slack)
    : census_(census), policy_(policy), regions_(regions),
      parents_(parents), holdSlack_(hold_slack)
{
}

void
ParentHoldChecker::check(Cycle now, std::vector<Violation> &out)
{
    const sttnoc::SttAwareParams &p = policy_.params();

    auto fail = [&](std::string msg) {
        out.push_back(Violation{name(), now, std::move(msg)});
    };

    // Section 3.5 bound: a busy window opened at t extends at most to
    // t + path delay + congestion estimate + write service, and the
    // estimate saturates at congestionCap. Under fault injection the
    // hold-miss recovery contract grants horizonSlack() extra cycles
    // (adaptive margin plus NACK window re-opens, both clamped there);
    // without fault recovery the slack is zero and the bound is exact.
    for (BankId b = 0; b < regions_.numBanks(); ++b) {
        const Cycle horizon = policy_.busyUntil(b);
        const Cycle bound = now + policy_.pathDelay(b) +
                            p.congestionCap + p.writeServiceCycles +
                            policy_.horizonSlack();
        if (horizon > bound) {
            fail(detail::format(
                "bank %d busy horizon %llu exceeds now %llu + path %llu "
                "+ cap %llu + service %llu + recovery slack %llu",
                b, static_cast<unsigned long long>(horizon),
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(policy_.pathDelay(b)),
                static_cast<unsigned long long>(p.congestionCap),
                static_cast<unsigned long long>(p.writeServiceCycles),
                static_cast<unsigned long long>(policy_.horizonSlack())));
        }
    }

    // Held-packet sanity. Each packet is diagnosed once per sweep, at
    // the node of its first flit in walk order.
    forEachCensusPacket(census_.flits(), [&](const CensusFlit *first,
                                             const CensusFlit *last) {
        const noc::Packet &pkt = *first->pkt;
        if (pkt.firstHeldAt == kCycleNever)
            return;
        const CensusFlit *walk_first = nullptr;
        for (const CensusFlit *f = first; f != last; ++f) {
            if (f->seq != FabricCensus::kPendingSeq &&
                (!walk_first || f->ordinal < walk_first->ordinal))
                walk_first = f;
        }
        if (walk_first == nullptr)
            return; // no flit in the fabric
        const NodeId at = walk_first->at;
        if (p.delayMode != sttnoc::DelayMode::Hold) {
            fail(detail::format("held packet outside Hold mode: %s",
                                describePacket(pkt).c_str()));
            return;
        }
        if (pkt.cls != noc::PacketClass::StoreWrite &&
            pkt.cls != noc::PacketClass::WritebackReq) {
            fail(detail::format("held packet of unholdable class: %s",
                                describePacket(pkt).c_str()));
            return;
        }
        if (pkt.destBank < 0 || pkt.destBank >= regions_.numBanks()) {
            fail(detail::format("held packet without a target bank: %s",
                                describePacket(pkt).c_str()));
            return;
        }
        if (pkt.firstHeldAt > now) {
            fail(detail::format(
                "hold start %llu in the future (now %llu): %s",
                static_cast<unsigned long long>(pkt.firstHeldAt),
                static_cast<unsigned long long>(now),
                describePacket(pkt).c_str()));
            return;
        }
        if (at == parents_.parentOf(pkt.destBank) &&
            now - pkt.firstHeldAt > p.holdCap + holdSlack_) {
            fail(detail::format(
                "packet held at parent %d for %llu cycles (cap %llu + "
                "slack %llu): %s",
                at,
                static_cast<unsigned long long>(now - pkt.firstHeldAt),
                static_cast<unsigned long long>(p.holdCap),
                static_cast<unsigned long long>(holdSlack_),
                describePacket(pkt).c_str()));
        }
    });
}

// --------------------------------------------------------------------
// BankAccountingChecker

BankAccountingChecker::BankAccountingChecker(
    const noc::Network &net,
    std::vector<const coherence::L2Bank *> banks,
    const sttnoc::RegionMap &regions, int request_cap, int write_cap)
    : net_(net), banks_(std::move(banks)), regions_(regions),
      requestCap_(request_cap), writeCap_(write_cap)
{
}

void
BankAccountingChecker::check(Cycle now, std::vector<Violation> &out)
{
    auto fail = [&](std::string msg) {
        out.push_back(Violation{name(), now, std::move(msg)});
    };

    for (std::size_t i = 0; i < banks_.size(); ++i) {
        const coherence::L2Bank &bank = *banks_[i];
        const BankId b = static_cast<BankId>(i);
        int req = 0;
        int wr = 0;
        bank.countAdmitted(req, wr);

        // Packets the NI has committed (tryAccept succeeded, counters
        // charged) but not yet fully reassembled and delivered.
        const NodeId node = regions_.nodeOfBank(b);
        net_.ni(node).forEachCommittedPacket(
            [&](int, const noc::Packet &pkt) {
                switch (pkt.cls) {
                  case noc::PacketClass::ReadReq:
                  case noc::PacketClass::WriteReq:
                    ++req;
                    break;
                  case noc::PacketClass::StoreWrite:
                  case noc::PacketClass::WritebackReq:
                    ++wr;
                    break;
                  default:
                    break;
                }
            });

        const int ar = bank.admittedRequests();
        const int aw = bank.admittedWrites();
        if (ar != req) {
            fail(detail::format(
                "bank %d admitted-request counter %d != census %d "
                "(%zu TBEs)",
                b, ar, req, bank.tbeCount()));
        }
        if (aw != wr) {
            fail(detail::format(
                "bank %d admitted-write counter %d != census %d "
                "(%zu TBEs)",
                b, aw, wr, bank.tbeCount()));
        }
        if (ar < 0 || ar > requestCap_) {
            fail(detail::format(
                "bank %d admitted-request counter %d outside [0, %d]",
                b, ar, requestCap_));
        }
        if (aw < 0 || aw > writeCap_) {
            fail(detail::format(
                "bank %d admitted-write counter %d outside [0, %d]", b,
                aw, writeCap_));
        }
    }
}

// --------------------------------------------------------------------
// MesiChecker

namespace {

/** Append every valid entry of every L1 in @p l1s to @p out, sorted by
 *  (block, core). */
template <typename L1Ptr>
void
collectHoldings(const std::vector<L1Ptr> &l1s,
                std::vector<MesiHolding> &out)
{
    for (const coherence::L1Cache *l1 : l1s) {
        l1->tags().forEachValid([&](const cache::TagEntry &e) {
            out.push_back({e.addr, l1->core(), e.state});
        });
    }
    std::sort(out.begin(), out.end(),
              [](const MesiHolding &a, const MesiHolding &b) {
                  return std::tie(a.addr, a.core) < std::tie(b.addr, b.core);
              });
}

/**
 * Report every illegal block among @p holdings (sorted by block, then
 * core) in block order, and list the violating blocks in @p violating
 * (null: not wanted).
 */
void
reportHoldings(const std::vector<MesiHolding> &holdings, Cycle now,
               std::vector<Violation> &out,
               std::vector<BlockAddr> *violating)
{
    using coherence::L1State;
    auto fail = [&](std::string msg) {
        out.push_back(Violation{"mesi-legality", now, std::move(msg)});
    };
    const auto stateName = [](const MesiHolding &h) {
        return coherence::l1StateName(static_cast<L1State>(h.state));
    };

    for (std::size_t i = 0; i < holdings.size();) {
        const BlockAddr addr = holdings[i].addr;
        const std::size_t reported = out.size();
        const MesiHolding *owners[2] = {nullptr, nullptr};
        std::size_t numOwners = 0;
        const MesiHolding *sharer = nullptr;
        for (; i < holdings.size() && holdings[i].addr == addr; ++i) {
            const MesiHolding &h = holdings[i];
            if (h.state > static_cast<std::uint8_t>(L1State::SM) ||
                h.state == static_cast<std::uint8_t>(L1State::I)) {
                fail(detail::format(
                    "L1 %d block %llu: illegal state byte %u on a "
                    "valid entry",
                    h.core, static_cast<unsigned long long>(addr),
                    static_cast<unsigned>(h.state)));
                continue;
            }
            const auto st = static_cast<L1State>(h.state);
            if (st == L1State::M || st == L1State::E) {
                if (numOwners < 2)
                    owners[numOwners] = &h;
                ++numOwners;
            } else if ((st == L1State::S || st == L1State::SM) && !sharer) {
                sharer = &h;
            }
        }
        if (numOwners > 1) {
            fail(detail::format(
                "block %llu has %zu owners (cores %d/%s and %d/%s)",
                static_cast<unsigned long long>(addr), numOwners,
                owners[0]->core, stateName(*owners[0]), owners[1]->core,
                stateName(*owners[1])));
        }
        if (numOwners == 1 && sharer) {
            fail(detail::format(
                "block %llu owned %s by core %d but shared %s by "
                "core %d",
                static_cast<unsigned long long>(addr),
                stateName(*owners[0]), owners[0]->core,
                stateName(*sharer), sharer->core));
        }
        if (violating && out.size() != reported)
            violating->push_back(addr);
    }
}

} // namespace

MesiChecker::MesiChecker(std::vector<coherence::L1Cache *> l1s)
    : l1s_(std::move(l1s))
{
    for (coherence::L1Cache *l1 : l1s_)
        l1->enableTagChangeLog();
}

void
MesiChecker::onReset(Cycle)
{
    sweeps_ = 0; // re-run the full census on the next sweep
}

void
MesiChecker::census(const std::vector<const coherence::L1Cache *> &l1s,
                    Cycle now, std::vector<Violation> &out)
{
    std::vector<MesiHolding> holdings;
    collectHoldings(l1s, holdings);
    reportHoldings(holdings, now, out, nullptr);
}

void
MesiChecker::check(Cycle now, std::vector<Violation> &out)
{
    // Drain every log, even on census sweeps: they restart from here.
    bool census = sweeps_++ % kCensusPeriod == 0;
    blocks_.assign(violating_.begin(), violating_.end());
    for (coherence::L1Cache *l1 : l1s_) {
        coherence::TagChangeLog &log = l1->tagChangeLog();
        census = census || log.overflowed;
        blocks_.insert(blocks_.end(), log.blocks.begin(), log.blocks.end());
        log.blocks.clear();
        log.overflowed = false;
    }

    holdings_.clear();
    if (census) {
        collectHoldings(l1s_, holdings_);
    } else {
        std::sort(blocks_.begin(), blocks_.end());
        blocks_.erase(std::unique(blocks_.begin(), blocks_.end()),
                      blocks_.end());
        // Sorted by block, then core: the census order.
        for (const BlockAddr addr : blocks_) {
            const std::size_t begin = holdings_.size();
            for (const coherence::L1Cache *l1 : l1s_) {
                if (const cache::TagEntry *e = l1->tags().peek(addr))
                    holdings_.push_back({addr, l1->core(), e->state});
            }
            std::sort(holdings_.begin() + static_cast<std::ptrdiff_t>(begin),
                      holdings_.end(),
                      [](const MesiHolding &a, const MesiHolding &b) {
                          return a.core < b.core;
                      });
        }
    }
    violating_.clear();
    reportHoldings(holdings_, now, out, &violating_);
}

} // namespace stacknoc::validate
