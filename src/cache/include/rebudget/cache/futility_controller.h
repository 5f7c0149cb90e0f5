#ifndef REBUDGET_CACHE_FUTILITY_CONTROLLER_H_
#define REBUDGET_CACHE_FUTILITY_CONTROLLER_H_

/**
 * @file
 * Feedback controller for Futility Scaling cache partitioning
 * [Wang & Chen, MICRO'14].
 *
 * The controller periodically compares each partition's occupancy against
 * its target (expressed in cache lines, i.e.\ 128 kB "cache regions" at
 * line granularity) and multiplicatively adjusts the partition's futility
 * scale: partitions above target have their lines' futility scaled up
 * (more likely to be victimized), partitions below target scaled down.
 * This enforces partition sizes precisely without way-granularity
 * restrictions, which is what lets the market treat cache capacity as a
 * continuous resource (Section 4.1.1 of the paper).
 */

#include <cstdint>
#include <vector>

#include "rebudget/cache/set_assoc_cache.h"

namespace rebudget::cache {

/** Tuning knobs for the futility controller. */
struct FutilityControllerConfig
{
    /** Multiplicative adjustment exponent per update. */
    double gain = 0.5;
    /** Scale clamp range (keeps the controller stable). */
    double minScale = 1e-4;
    double maxScale = 1e4;
    /** Accesses between controller updates. */
    uint64_t updatePeriod = 4096;
};

/** Drives SetAssocCache partition occupancies toward line targets. */
class FutilityController
{
  public:
    /**
     * @param cache   the controlled cache (must outlive the controller)
     * @param config  controller tuning
     */
    FutilityController(SetAssocCache &cache,
                       const FutilityControllerConfig &config = {});

    /**
     * Set the occupancy target of a partition in lines.  Targets need not
     * sum to the cache capacity; partitions with slack targets simply
     * yield to those under pressure.
     */
    void setTargetLines(uint32_t partition, uint64_t lines);

    /** Convenience: set a target in bytes (rounded down to lines). */
    void setTargetBytes(uint32_t partition, uint64_t bytes);

    /** @return a partition's current target in lines. */
    uint64_t targetLines(uint32_t partition) const;

    /**
     * Notify the controller that one access occurred; every
     * updatePeriod accesses the scales are recomputed.
     */
    void
    tick()
    {
        if (++sinceUpdate_ >= config_.updatePeriod) {
            sinceUpdate_ = 0;
            update();
        }
    }

    /** Force a scale update now (used by tests and epoch boundaries). */
    void update();

  private:
    SetAssocCache &cache_;
    FutilityControllerConfig config_;
    std::vector<uint64_t> targets_;
    uint64_t sinceUpdate_ = 0;
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_FUTILITY_CONTROLLER_H_
