#include "rebudget/cache/umon.h"

#include <algorithm>
#include <bit>

#include "rebudget/cache/curve_repair.h"
#include "rebudget/util/logging.h"

namespace rebudget::cache {

UMonitor::UMonitor(const UMonConfig &config) : config_(config)
{
    if (config_.maxRegions == 0)
        util::fatal("UMonitor requires maxRegions > 0");
    if (config_.lineBytes == 0 ||
        (config_.lineBytes & (config_.lineBytes - 1)) != 0)
        util::fatal("UMonitor line size must be a power of two");
    if (config_.regionBytes % config_.lineBytes != 0)
        util::fatal("UMonitor region size must be a line multiple");
    if (config_.samplingRatio == 0)
        util::fatal("UMonitor sampling ratio must be positive");
    // A full shadow cache of maxRegions capacity and maxRegions ways has
    // one set per line of a region.
    const uint64_t shadow_sets = config_.regionBytes / config_.lineBytes;
    sampledSets_ = (shadow_sets + config_.samplingRatio - 1) /
                   config_.samplingRatio;
    lineShift_ = std::countr_zero(config_.lineBytes);
    shadow_ = SetIndexer(shadow_sets);
    sampling_ = SetIndexer(config_.samplingRatio);
    stackTags_.assign(sampledSets_ * config_.maxRegions, 0);
    stackSizes_.assign(sampledSets_, 0);
    hits_.assign(config_.maxRegions, 0);
}

void
UMonitor::observe(uint64_t addr)
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t set = shadow_.set(line);
    if (sampling_.set(set) != 0)
        return; // not a sampled set
    const uint64_t sampled_idx = sampling_.tag(set);
    const uint64_t tag = shadow_.tag(line);
    uint64_t *stack = stackTags_.data() + sampled_idx * config_.maxRegions;
    uint32_t &size = stackSizes_[sampled_idx];
    uint32_t d = 0;
    while (d < size && stack[d] != tag)
        ++d;
    if (d < size) {
        ++hits_[d];
    } else {
        // Miss: the new MRU pushes the LRU entry out of a full stack.
        ++missesBeyond_;
        if (size < config_.maxRegions)
            ++size;
        d = size - 1;
    }
    // Move the tag at depth d (or the new tag) to the MRU slot.
    std::copy_backward(stack, stack + d, stack + d + 1);
    stack[0] = tag;
}

MissCurve
UMonitor::missCurve() const
{
    uint64_t total = missesBeyond_;
    for (uint64_t h : hits_)
        total += h;
    const double scale = static_cast<double>(config_.samplingRatio);
    std::vector<double> misses(config_.maxRegions + 1);
    uint64_t hits_below = 0;
    misses[0] = static_cast<double>(total) * scale;
    for (uint32_t r = 1; r <= config_.maxRegions; ++r) {
        hits_below += hits_[r - 1];
        misses[r] = static_cast<double>(total - hits_below) * scale;
    }
    // Cumulative hit counts make this curve non-increasing already, so
    // the repair is a no-op here; it guards against future histogram
    // sources (sampled, decayed, or injected) that may not be.
    return repairedMissCurve(std::move(misses));
}

double
UMonitor::totalAccessesScaled() const
{
    uint64_t total = missesBeyond_;
    for (uint64_t h : hits_)
        total += h;
    return static_cast<double>(total) *
           static_cast<double>(config_.samplingRatio);
}

uint64_t
UMonitor::hitsAtDistance(uint32_t d) const
{
    REBUDGET_ASSERT(d < config_.maxRegions, "stack distance out of range");
    return hits_[d];
}

void
UMonitor::reset()
{
    std::fill(stackSizes_.begin(), stackSizes_.end(), 0);
    resetHistogram();
}

void
UMonitor::resetHistogram()
{
    std::fill(hits_.begin(), hits_.end(), 0);
    missesBeyond_ = 0;
}

uint64_t
UMonitor::storageOverheadBytes() const
{
    // Each shadow entry stores a partial tag (~4 bytes is representative
    // of the paper's 3.6 kB/core figure at ratio 32).
    return sampledSets_ * config_.maxRegions * 4;
}

} // namespace rebudget::cache
