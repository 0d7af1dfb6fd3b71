#include "sttnoc/region_map.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace stacknoc::sttnoc {

namespace {

/**
 * Factor @p n regions into rx columns x (n / rx) rows that tile a
 * @p w x @p h mesh evenly, preferring the squarest tiling. @return rx,
 * or 0 when no tiling exists.
 */
int
regionColumns(int w, int h, int n)
{
    if (w < 1 || h < 1 || n < 1)
        return 0;
    // For the paper's 8-region case this yields 2 columns x 4 rows of
    // 4x2 tiles, matching Figure 11(c).
    if (n == 8 && w == 8 && h == 8)
        return 2;
    for (int cand = static_cast<int>(std::sqrt(static_cast<double>(n)));
         cand >= 1; --cand) {
        if (n % cand != 0)
            continue;
        const int ry = n / cand;
        // Prefer more columns when the square root is not exact.
        const int cols = std::max(cand, ry);
        const int rows = n / cols;
        if (w % cols == 0 && h % rows == 0)
            return cols;
        if (w % cand == 0 && h % ry == 0)
            return cand;
    }
    return 0;
}

} // namespace

std::string
RegionMap::tilingError(int width, int height, int numRegions)
{
    if (regionColumns(width, height, numRegions) != 0)
        return {};
    return "regions: mesh " + std::to_string(width) + "x" +
           std::to_string(height) + " cannot be tiled into " +
           std::to_string(numRegions) + " equal regions";
}

RegionMap::RegionMap(const MeshShape &shape, const RegionConfig &config)
    : shape_(shape), config_(config), numRegions_(config.numRegions)
{
    panic_if(shape_.layers() != 2, "RegionMap expects a two-layer stack");
    const std::string err =
        tilingError(shape_.width(), shape_.height(), numRegions_);
    panic_if(!err.empty(), "%s", err.c_str());
    buildRegions();
    placeTsbs();
}

void
RegionMap::buildRegions()
{
    const int w = shape_.width();
    const int h = shape_.height();
    const int rx = regionColumns(w, h, numRegions_);
    const int ry = numRegions_ / rx;
    const int tile_w = w / rx;
    const int tile_h = h / ry;

    rects_.clear();
    for (int gy = 0; gy < ry; ++gy) {
        for (int gx = 0; gx < rx; ++gx) {
            rects_.push_back(Rect{gx * tile_w, gy * tile_h,
                                  (gx + 1) * tile_w - 1,
                                  (gy + 1) * tile_h - 1});
        }
    }

    regionOfBank_.assign(static_cast<std::size_t>(shape_.nodesPerLayer()),
                         -1);
    for (BankId b = 0; b < shape_.nodesPerLayer(); ++b) {
        const Coord c = shape_.coord(nodeOfBank(b));
        const int gx = c.x / tile_w;
        const int gy = c.y / tile_h;
        regionOfBank_[static_cast<std::size_t>(b)] = gy * rx + gx;
    }
}

void
RegionMap::placeTsbs()
{
    const int w = shape_.width();
    const int h = shape_.height();
    tsbCacheNode_.assign(static_cast<std::size_t>(numRegions_),
                         kInvalidNode);

    // Innermost coordinate of a span [lo,hi]: the end nearest the centre.
    auto inner = [](int lo, int hi, int dim) {
        const double centre = (dim - 1) / 2.0;
        return std::abs(lo - centre) < std::abs(hi - centre) ? lo : hi;
    };

    std::vector<int> column_use(static_cast<std::size_t>(w), 0);
    for (int r = 0; r < numRegions_; ++r) {
        const Rect &rect = rects_[static_cast<std::size_t>(r)];
        const int y = inner(rect.y0, rect.y1, h);
        int x = inner(rect.x0, rect.x1, w);
        if (config_.placement == TsbPlacement::Stagger) {
            // Pick the least-used column in the region, breaking ties
            // toward the mesh centre, so TSB-bound Y-flows in the core
            // layer travel along disjoint columns.
            int best = x;
            for (int cand = rect.x0; cand <= rect.x1; ++cand) {
                const auto use_c = column_use[std::size_t(cand)];
                const auto use_b = column_use[std::size_t(best)];
                const double centre = (w - 1) / 2.0;
                if (use_c < use_b ||
                    (use_c == use_b &&
                     std::abs(cand - centre) < std::abs(best - centre))) {
                    best = cand;
                }
            }
            x = best;
        }
        ++column_use[static_cast<std::size_t>(x)];
        tsbCacheNode_[static_cast<std::size_t>(r)] = shape_.node(x, y, 1);
    }
}

int
RegionMap::regionOf(BankId bank) const
{
    return regionOfBank_.at(static_cast<std::size_t>(bank));
}

NodeId
RegionMap::tsbCacheNode(int r) const
{
    return tsbCacheNode_.at(static_cast<std::size_t>(r));
}

NodeId
RegionMap::tsbCoreNode(int r) const
{
    const Coord c = shape_.coord(tsbCacheNode(r));
    return shape_.node(c.x, c.y, 0);
}

BankId
RegionMap::bankOfNode(NodeId n) const
{
    const BankId b = n - shape_.nodesPerLayer();
    panic_if(b < 0 || b >= shape_.nodesPerLayer(),
             "node %d is not a cache-layer node", n);
    return b;
}

NodeId
RegionMap::nodeOfBank(BankId bank) const
{
    panic_if(bank < 0 || bank >= shape_.nodesPerLayer(), "bad bank %d",
             bank);
    return bank + shape_.nodesPerLayer();
}

std::vector<BankId>
RegionMap::banksInRegion(int r) const
{
    std::vector<BankId> banks;
    for (BankId b = 0; b < numBanks(); ++b)
        if (regionOf(b) == r)
            banks.push_back(b);
    return banks;
}

} // namespace stacknoc::sttnoc
