#include "rebudget/cache/set_assoc_cache.h"

#include <algorithm>
#include <bit>

#include "rebudget/util/logging.h"

namespace rebudget::cache {

void
CacheConfig::validate() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        util::fatal("cache line size must be a power of two");
    if (assoc == 0)
        util::fatal("cache associativity must be positive");
    if (sizeBytes == 0 ||
        sizeBytes % (static_cast<uint64_t>(assoc) * lineBytes) != 0) {
        util::fatal("cache size %llu not divisible by assoc*line",
                    static_cast<unsigned long long>(sizeBytes));
    }
}

SetAssocCache::SetAssocCache(const CacheConfig &config, uint32_t partitions)
    : config_(config), numPartitions_(partitions)
{
    config_.validate();
    if (partitions == 0)
        util::fatal("cache requires at least one partition");
    lineShift_ = std::countr_zero(config_.lineBytes);
    indexer_ = SetIndexer(config_.sets());
    const uint64_t ways = config_.sets() * config_.assoc;
    tags_.assign(ways, kInvalidTag);
    lastTouch_.assign(ways, 0);
    owner_.assign(ways, -1);
    dirty_.assign(ways, 0);
    scales_.assign(partitions, 1.0);
    occupancy_.assign(partitions, 0);
    stats_.assign(partitions, PartitionStats{});
}

AccessResult
SetAssocCache::access(uint32_t partition, uint64_t addr, bool write)
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    ++now_;
    const uint64_t line_addr = addr >> lineShift_;
    const uint64_t tag = indexer_.tag(line_addr);
    REBUDGET_ASSERT(tag != kInvalidTag, "tag collides with invalid marker");
    const uint64_t base = indexer_.set(line_addr) * config_.assoc;

    AccessResult result;
    // Hit check: a line is shared state; any partition may hit on it, but
    // in the multiprogrammed setting address spaces are disjoint so hits
    // are always on own lines.
    const uint64_t *tags = tags_.data() + base;
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        if (tags[w] == tag) {
            lastTouch_[base + w] = now_;
            dirty_[base + w] |= static_cast<uint8_t>(write);
            result.hit = true;
            ++stats_[partition].hits;
            return result;
        }
    }

    // Miss: find a victim way.
    ++stats_[partition].misses;
    const uint64_t victim = base + findVictim(base);
    if (tags_[victim] != kInvalidTag) {
        const int32_t owner = owner_[victim];
        result.victimPartition = owner;
        REBUDGET_ASSERT(owner >= 0, "valid line without owner");
        --occupancy_[static_cast<uint32_t>(owner)];
        if (dirty_[victim]) {
            result.writeback = true;
            ++stats_[static_cast<uint32_t>(owner)].writebacks;
        }
    }
    tags_[victim] = tag;
    owner_[victim] = static_cast<int32_t>(partition);
    dirty_[victim] = static_cast<uint8_t>(write);
    lastTouch_[victim] = now_;
    ++occupancy_[partition];
    return result;
}

uint32_t
SetAssocCache::findVictim(uint64_t set_base) const
{
    // Prefer an invalid way; otherwise evict the line with the largest
    // scaled futility (LRU age times the owner partition's scale), the
    // lowest way on ties.  A miss fills the first invalid way and only
    // flush() invalidates, so the valid ways of a set are a prefix: the
    // set has an invalid way exactly when its last way is invalid.
    const uint32_t assoc = config_.assoc;
    const uint64_t *tags = tags_.data() + set_base;
    if (tags[assoc - 1] == kInvalidTag) {
        uint32_t w = 0;
        while (tags[w] != kInvalidTag)
            ++w;
        return w;
    }
    const uint64_t *touch = lastTouch_.data() + set_base;
    const int32_t *owner = owner_.data() + set_base;
    double best_futility = -1.0;
    uint32_t best_way = 0;
    for (uint32_t w = 0; w < assoc; ++w) {
        // An age counts accesses, so it is far below 2^63 and the
        // (cheaper) signed conversion gives the same double.
        const double age =
            static_cast<double>(static_cast<int64_t>(now_ - touch[w]));
        const double futility =
            age * scales_[static_cast<uint32_t>(owner[w])];
        if (futility > best_futility) {
            best_futility = futility;
            best_way = w;
        }
    }
    return best_way;
}

void
SetAssocCache::setScale(uint32_t partition, double scale)
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    if (scale <= 0.0)
        util::fatal("futility scale must be positive (got %f)", scale);
    scales_[partition] = scale;
}

double
SetAssocCache::scale(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return scales_[partition];
}

uint64_t
SetAssocCache::occupancy(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return occupancy_[partition];
}

const PartitionStats &
SetAssocCache::stats(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return stats_[partition];
}

void
SetAssocCache::resetStats()
{
    for (auto &s : stats_)
        s = PartitionStats{};
}

void
SetAssocCache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lastTouch_.begin(), lastTouch_.end(), 0);
    std::fill(owner_.begin(), owner_.end(), -1);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    for (auto &o : occupancy_)
        o = 0;
    resetStats();
}

} // namespace rebudget::cache
