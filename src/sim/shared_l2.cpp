#include "rebudget/sim/shared_l2.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "rebudget/cache/talus.h"
#include "rebudget/util/logging.h"

namespace rebudget::sim {

SharedL2::SharedL2(const CmpConfig &config)
    : config_(config), cache_(config.l2Config(), 2 * config.cores),
      controller_(cache_), fracA_(config.cores, 0.0),
      targets_(config.cores, 0.0),
      lineShift_(std::countr_zero(cache_.config().lineBytes))
{
    // Start from an equal static partitioning: shadow partition B holds
    // the whole share, A is idle.
    const double share = static_cast<double>(config_.totalRegions()) /
                         config_.cores;
    const uint64_t lpr = config_.linesPerRegion();
    for (uint32_t c = 0; c < config_.cores; ++c) {
        targets_[c] = share;
        controller_.setTargetLines(2 * c, 1);
        controller_.setTargetLines(
            2 * c + 1, static_cast<uint64_t>(share * lpr));
    }
}

void
SharedL2::setTargetRegions(uint32_t core, double regions,
                           const cache::MissCurve &curve)
{
    REBUDGET_ASSERT(core < config_.cores, "core out of range");
    const double max_r = static_cast<double>(config_.totalRegions());
    const double target = std::clamp(regions, 0.0, max_r);
    targets_[core] = target;
    const cache::TalusSplit split = computeTalusSplit(curve, target);
    fracA_[core] = split.fracA;
    const double lpr = static_cast<double>(config_.linesPerRegion());
    // The Talus split covers capacities up to the monitored maximum;
    // any surplus beyond the curve's range is given to partition B.
    const double covered = split.sizeARegions + split.sizeBRegions;
    const double surplus = std::max(0.0, target - covered);
    const auto lines_a = static_cast<uint64_t>(
        std::llround(split.sizeARegions * lpr));
    const auto lines_b = static_cast<uint64_t>(
        std::llround((split.sizeBRegions + surplus) * lpr));
    controller_.setTargetLines(2 * core, std::max<uint64_t>(1, lines_a));
    controller_.setTargetLines(2 * core + 1,
                               std::max<uint64_t>(1, lines_b));
}

bool
SharedL2::access(uint32_t core, uint64_t addr, bool write)
{
    REBUDGET_ASSERT(core < config_.cores, "core out of range");
    const uint64_t line = addr >> lineShift_;
    const uint32_t part =
        2 * core + (cache::talusRouteToA(line, fracA_[core]) ? 0 : 1);
    const cache::AccessResult r = cache_.access(part, addr, write);
    controller_.tick();
    return r.hit;
}

uint64_t
SharedL2::occupancyLines(uint32_t core) const
{
    REBUDGET_ASSERT(core < config_.cores, "core out of range");
    return cache_.occupancy(2 * core) + cache_.occupancy(2 * core + 1);
}

double
SharedL2::occupancyRegions(uint32_t core) const
{
    return static_cast<double>(occupancyLines(core)) /
           static_cast<double>(config_.linesPerRegion());
}

double
SharedL2::targetRegions(uint32_t core) const
{
    REBUDGET_ASSERT(core < config_.cores, "core out of range");
    return targets_[core];
}

cache::PartitionStats
SharedL2::coreStats(uint32_t core) const
{
    REBUDGET_ASSERT(core < config_.cores, "core out of range");
    const cache::PartitionStats &a = cache_.stats(2 * core);
    const cache::PartitionStats &b = cache_.stats(2 * core + 1);
    cache::PartitionStats out;
    out.hits = a.hits + b.hits;
    out.misses = a.misses + b.misses;
    out.writebacks = a.writebacks + b.writebacks;
    return out;
}

void
SharedL2::resetStats()
{
    cache_.resetStats();
}

void
SharedL2::updateController()
{
    controller_.update();
}

} // namespace rebudget::sim
