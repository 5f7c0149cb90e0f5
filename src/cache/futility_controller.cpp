#include "rebudget/cache/futility_controller.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::cache {

FutilityController::FutilityController(SetAssocCache &cache,
                                       const FutilityControllerConfig &config)
    : cache_(cache), config_(config),
      targets_(cache.partitions(),
               cache.config().lines() / cache.partitions())
{
    if (config_.gain <= 0.0)
        util::fatal("futility controller gain must be positive");
    if (config_.updatePeriod == 0)
        util::fatal("futility controller period must be positive");
}

void
FutilityController::setTargetLines(uint32_t partition, uint64_t lines)
{
    REBUDGET_ASSERT(partition < targets_.size(), "partition out of range");
    targets_[partition] = std::max<uint64_t>(1, lines);
}

void
FutilityController::setTargetBytes(uint32_t partition, uint64_t bytes)
{
    setTargetLines(partition, bytes / cache_.config().lineBytes);
}

uint64_t
FutilityController::targetLines(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < targets_.size(), "partition out of range");
    return targets_[partition];
}

void
FutilityController::update()
{
    for (uint32_t p = 0; p < targets_.size(); ++p) {
        const double occ = static_cast<double>(cache_.occupancy(p));
        const double target = static_cast<double>(targets_[p]);
        if (occ <= 0.0) {
            // Nothing resident: make the partition maximally attractive so
            // it can grow toward its target.
            cache_.setScale(p, config_.minScale);
            continue;
        }
        const double ratio = occ / target;
        double scale = cache_.scale(p) * std::pow(ratio, config_.gain);
        scale = std::clamp(scale, config_.minScale, config_.maxScale);
        cache_.setScale(p, scale);
    }
}

} // namespace rebudget::cache
