#ifndef REBUDGET_SIM_SHARED_L2_H_
#define REBUDGET_SIM_SHARED_L2_H_

/**
 * @file
 * Shared last-level cache with per-core Talus shadow partitions.
 *
 * Each core's logical partition is realized as two physical partitions
 * in the underlying futility-scaled cache (Talus shadow partitions A and
 * B); a stable hash of the line address routes each access to one of
 * them.  Installing a (possibly fractional) region target computes the
 * Talus split from the core's current miss curve and programs the
 * futility controller with the two shadow sizes, making cache capacity a
 * continuous, convex resource as required by the market (Section 4.1.1).
 */

#include <cstdint>
#include <vector>

#include "rebudget/cache/futility_controller.h"
#include "rebudget/cache/miss_curve.h"
#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/sim/cmp_config.h"

namespace rebudget::sim {

/** Shared, Talus-partitioned, futility-scaled L2. */
class SharedL2
{
  public:
    explicit SharedL2(const CmpConfig &config);

    /**
     * Install a core's capacity target.
     *
     * @param core     core index
     * @param regions  target capacity in (possibly fractional) regions
     * @param curve    the core's current miss curve (for the Talus PoIs)
     */
    void setTargetRegions(uint32_t core, double regions,
                          const cache::MissCurve &curve);

    /**
     * One L2 access on behalf of a core.
     *
     * @return true on hit.
     */
    bool access(uint32_t core, uint64_t addr, bool write);

    /** @return a core's resident lines (both shadow partitions). */
    uint64_t occupancyLines(uint32_t core) const;

    /** @return a core's occupancy in regions. */
    double occupancyRegions(uint32_t core) const;

    /** @return a core's current capacity target in regions. */
    double targetRegions(uint32_t core) const;

    /** @return aggregated hit/miss statistics of a core. */
    cache::PartitionStats coreStats(uint32_t core) const;

    /** Reset all hit/miss statistics. */
    void resetStats();

    /** Force a futility-controller update (epoch boundary). */
    void updateController();

    /** @return the underlying cache (testing/diagnostics). */
    const cache::SetAssocCache &cache() const { return cache_; }

  private:
    CmpConfig config_;
    cache::SetAssocCache cache_;          // 2 partitions per core
    cache::FutilityController controller_;
    std::vector<double> fracA_;           // Talus stream split per core
    std::vector<double> targets_;         // regions per core
    int lineShift_;
};

} // namespace rebudget::sim

#endif // REBUDGET_SIM_SHARED_L2_H_
