#include "sttnoc/parent_map.hh"

#include "common/logging.hh"

namespace stacknoc::sttnoc {

namespace {

/** One X-then-Y step between two cache-layer coordinates. */
Coord
xyStep(Coord c, const Coord &to)
{
    if (c.x < to.x)
        ++c.x;
    else if (c.x > to.x)
        --c.x;
    else if (c.y < to.y)
        ++c.y;
    else if (c.y > to.y)
        --c.y;
    return c;
}

} // namespace

ParentMap::ParentMap(const RegionMap &regions, int hops)
    : regions_(regions), hops_(hops)
{
    panic_if(hops_ < 1, "parent distance must be >= 1 hop");
    const MeshShape &shape = regions_.shape();
    parentOfBank_.assign(static_cast<std::size_t>(regions_.numBanks()),
                         kInvalidNode);
    childrenOfNode_.assign(static_cast<std::size_t>(shape.totalNodes()),
                           {});

    for (BankId b = 0; b < regions_.numBanks(); ++b) {
        const std::vector<NodeId> path = tsbPathTo(b);
        const int len = static_cast<int>(path.size()) - 1; // hops
        NodeId parent;
        if (len >= hops_) {
            parent = path[static_cast<std::size_t>(len - hops_)];
        } else {
            // Too close to the TSB entry: managed by the core-layer TSB
            // router vertically above the entry point.
            parent = regions_.tsbCoreNode(regions_.regionOf(b));
        }
        parentOfBank_[static_cast<std::size_t>(b)] = parent;
        childrenOfNode_[static_cast<std::size_t>(parent)].push_back(b);
    }
}

std::vector<NodeId>
ParentMap::tsbPathTo(BankId bank) const
{
    const MeshShape &shape = regions_.shape();
    const NodeId entry = regions_.tsbCacheNode(regions_.regionOf(bank));
    const NodeId target = regions_.nodeOfBank(bank);
    std::vector<NodeId> path{entry};
    Coord c = shape.coord(entry);
    const Coord to = shape.coord(target);
    while (shape.node(c) != target) {
        c = xyStep(c, to);
        path.push_back(shape.node(c));
        panic_if(path.size() >
                     static_cast<std::size_t>(shape.totalNodes()),
                 "TSB path loop toward bank %d", bank);
    }
    return path;
}

NodeId
ParentMap::parentOf(BankId bank) const
{
    return parentOfBank_.at(static_cast<std::size_t>(bank));
}

const std::vector<BankId> &
ParentMap::childrenOf(NodeId parent) const
{
    return childrenOfNode_.at(static_cast<std::size_t>(parent));
}

bool
ParentMap::isParent(NodeId node) const
{
    return !childrenOfNode_.at(static_cast<std::size_t>(node)).empty();
}

} // namespace stacknoc::sttnoc
