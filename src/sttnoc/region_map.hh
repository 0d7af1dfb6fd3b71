/**
 * @file
 * Logical partitioning of the cache layer into regions, each served by a
 * single core-to-cache through-silicon bus (TSB) — Section 3.4/Figure 4
 * of the paper.
 */

#ifndef STACKNOC_STTNOC_REGION_MAP_HH
#define STACKNOC_STTNOC_REGION_MAP_HH

#include <string>
#include <vector>

#include "common/geometry.hh"
#include "common/types.hh"

namespace stacknoc::sttnoc {

/** Where a region's TSB sits (Figure 11 of the paper). */
enum class TsbPlacement {
    Corner,  //!< innermost corner of the region (toward the mesh centre)
    Stagger, //!< distinct columns so Y-flows toward TSBs do not overlap
};

/** Region partitioning parameters. */
struct RegionConfig
{
    int numRegions = 4;                        //!< 4, 8, or 16
    TsbPlacement placement = TsbPlacement::Corner;
};

/**
 * Partitions the cache layer into rectangular regions and assigns each
 * region's TSB cell. Banks are numbered 0..nodesPerLayer-1, with bank b
 * attached to cache-layer node nodesPerLayer + b.
 */
class RegionMap
{
  public:
    /** Panics unless tilingError() accepts the shape; check it first. */
    RegionMap(const MeshShape &shape, const RegionConfig &config);

    /**
     * @return an empty string when a @p width x @p height mesh tiles
     * evenly into @p numRegions rectangular regions, else a one-line
     * reason naming the region count.
     */
    static std::string tilingError(int width, int height, int numRegions);

    int numRegions() const { return numRegions_; }
    const RegionConfig &config() const { return config_; }
    const MeshShape &shape() const { return shape_; }

    /** @return region that bank @p bank belongs to. */
    int regionOf(BankId bank) const;

    /** @return cache-layer node at the bottom of region @p r's TSB. */
    NodeId tsbCacheNode(int r) const;

    /** @return core-layer node at the top of region @p r's TSB. */
    NodeId tsbCoreNode(int r) const;

    /** @return bank attached to cache-layer node @p n. */
    BankId bankOfNode(NodeId n) const;

    /** @return cache-layer node hosting bank @p bank. */
    NodeId nodeOfBank(BankId bank) const;

    /** @return number of banks (== nodes per layer). */
    int numBanks() const { return shape_.nodesPerLayer(); }

  private:
    struct Rect
    {
        int x0, y0, x1, y1; //!< inclusive bounds
    };

    void buildRegions();
    void placeTsbs();

    MeshShape shape_;
    RegionConfig config_;
    int numRegions_;
    std::vector<Rect> rects_;
    std::vector<int> regionOfBank_;
    std::vector<NodeId> tsbCacheNode_;
};

} // namespace stacknoc::sttnoc

#endif // STACKNOC_STTNOC_REGION_MAP_HH
