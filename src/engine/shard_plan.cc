#include "engine/shard_plan.hh"

#include <algorithm>

#include "common/logging.hh"

namespace stacknoc::engine {

ShardPlan
buildShardPlan(const Simulator &sim, int nshards)
{
    panic_if(nshards < 1, "shard plan needs at least one shard");

    const auto &components = sim.components();

    std::vector<int> keys;
    for (std::size_t i = 0; i < components.size(); ++i) {
        const int a = sim.affinity(i);
        if (a != Simulator::kSerialAffinity)
            keys.push_back(a);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    const std::size_t effective =
        std::min<std::size_t>(static_cast<std::size_t>(nshards),
                              std::max<std::size_t>(keys.size(), 1));

    // The global kind-batched schedule: stable-sort every component by
    // (kind, registration index). The position in this order is the
    // schedule ordinal — the one canonical tick order shared by all
    // engines and both elision modes.
    struct Entry
    {
        Ticking *component;
        std::uint32_t reg;
        int affinity;
        TickKind kind;
    };
    std::vector<Entry> schedule;
    schedule.reserve(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
        schedule.push_back(Entry{components[i],
                                 static_cast<std::uint32_t>(i),
                                 sim.affinity(i),
                                 components[i]->tickKind()});
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Entry &a, const Entry &b) {
                         if (a.kind != b.kind)
                             return static_cast<int>(a.kind) <
                                    static_cast<int>(b.kind);
                         return a.reg < b.reg;
                     });

    ShardPlan plan;
    plan.shards.resize(keys.empty() ? 0 : effective);

    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Entry &e = schedule[i];
        ShardItem item;
        item.component = e.component;
        item.ordinal = static_cast<std::uint32_t>(i);
        item.affinity = e.affinity;
        item.kind = e.kind;
        if (item.affinity == Simulator::kSerialAffinity) {
            plan.serial.push_back(item);
            continue;
        }
        // Contiguous rank ranges: neighbouring keys (on the CMP, whole
        // mesh rows) share a shard, so fewer channels cross one.
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(keys.begin(), keys.end(), item.affinity) -
            keys.begin());
        plan.shards[rank * effective / keys.size()].push_back(item);
    }

    // Schedule order is preserved within each list by construction
    // (single ascending pass over the sorted schedule), which is what
    // makes per-shard replay reproduce the canonical tick order.
    return plan;
}

} // namespace stacknoc::engine
