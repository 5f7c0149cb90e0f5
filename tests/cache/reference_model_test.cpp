/**
 * Property test: SetAssocCache and UMonitor against reference models.
 *
 * The reference models below are the original array-of-structs,
 * division-based implementations, kept here (and only here) as the
 * specification of the cache and monitor behaviour.  Both sides are
 * driven with the same seeded stream of accesses -- random partitions,
 * writes, futility scales (drawn from a small set so scaled-futility
 * ties are common), a mid-run flush -- over power-of-two and
 * non-power-of-two geometries, and must agree on every access: hit or
 * miss, victim partition, writeback, every partition's occupancy, and
 * the monitor's histogram; the full miss curves are compared
 * periodically and at the end.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/cache/curve_repair.h"
#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/cache/umon.h"
#include "rebudget/util/rng.h"

namespace rebudget::cache {
namespace {

/** Array-of-structs cache with division-based indexing. */
class RefCache
{
  public:
    RefCache(const CacheConfig &config, uint32_t partitions)
        : config_(config), numSets_(config.sets()),
          lines_(numSets_ * config.assoc), scales_(partitions, 1.0),
          occupancy_(partitions, 0), stats_(partitions)
    {
    }

    AccessResult
    access(uint32_t partition, uint64_t addr, bool write)
    {
        ++now_;
        const uint64_t line_addr = addr / config_.lineBytes;
        const uint64_t set = line_addr % numSets_;
        const uint64_t tag = line_addr / numSets_;
        const uint64_t base = set * config_.assoc;
        AccessResult result;
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            Line &line = lines_[base + w];
            if (line.valid && line.tag == tag) {
                line.lastTouch = now_;
                line.dirty = line.dirty || write;
                result.hit = true;
                ++stats_[partition].hits;
                return result;
            }
        }
        ++stats_[partition].misses;
        const uint32_t victim_way = findVictim(base);
        Line &line = lines_[base + victim_way];
        if (line.valid) {
            result.victimPartition = line.owner;
            --occupancy_[static_cast<uint32_t>(line.owner)];
            if (line.dirty) {
                result.writeback = true;
                ++stats_[static_cast<uint32_t>(line.owner)].writebacks;
            }
        }
        line.valid = true;
        line.tag = tag;
        line.owner = static_cast<int32_t>(partition);
        line.dirty = write;
        line.lastTouch = now_;
        ++occupancy_[partition];
        return result;
    }

    void setScale(uint32_t p, double s) { scales_[p] = s; }
    uint64_t occupancy(uint32_t p) const { return occupancy_[p]; }
    const PartitionStats &stats(uint32_t p) const { return stats_[p]; }

    void
    flush()
    {
        for (auto &line : lines_)
            line = Line{};
        for (auto &o : occupancy_)
            o = 0;
        for (auto &s : stats_)
            s = PartitionStats{};
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastTouch = 0;
        int32_t owner = -1;
        bool valid = false;
        bool dirty = false;
    };

    uint32_t
    findVictim(uint64_t set_base) const
    {
        double best_futility = -1.0;
        uint32_t best_way = 0;
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            const Line &line = lines_[set_base + w];
            if (!line.valid)
                return w;
            const double age = static_cast<double>(now_ - line.lastTouch);
            const double futility =
                age * scales_[static_cast<uint32_t>(line.owner)];
            if (futility > best_futility) {
                best_futility = futility;
                best_way = w;
            }
        }
        return best_way;
    }

    CacheConfig config_;
    uint64_t numSets_;
    uint64_t now_ = 0;
    std::vector<Line> lines_;
    std::vector<double> scales_;
    std::vector<uint64_t> occupancy_;
    std::vector<PartitionStats> stats_;
};

/** Vector-of-vectors LRU stacks with division-based indexing. */
class RefUMon
{
  public:
    explicit RefUMon(const UMonConfig &config)
        : config_(config),
          shadowSets_(config.regionBytes / config.lineBytes),
          stacks_((shadowSets_ + config.samplingRatio - 1) /
                  config.samplingRatio),
          hits_(config.maxRegions, 0)
    {
    }

    void
    observe(uint64_t addr)
    {
        const uint64_t line = addr / config_.lineBytes;
        const uint64_t set = line % shadowSets_;
        if (set % config_.samplingRatio != 0)
            return;
        const uint64_t tag = line / shadowSets_;
        auto &stack = stacks_[set / config_.samplingRatio];
        const auto it = std::find(stack.begin(), stack.end(), tag);
        if (it != stack.end()) {
            ++hits_[static_cast<size_t>(it - stack.begin())];
            stack.erase(it);
            stack.insert(stack.begin(), tag);
        } else {
            ++missesBeyond_;
            stack.insert(stack.begin(), tag);
            if (stack.size() > config_.maxRegions)
                stack.pop_back();
        }
    }

    std::vector<double>
    missCurve() const
    {
        uint64_t total = missesBeyond_;
        for (const uint64_t h : hits_)
            total += h;
        const double scale = static_cast<double>(config_.samplingRatio);
        std::vector<double> misses(config_.maxRegions + 1);
        uint64_t hits_below = 0;
        misses[0] = static_cast<double>(total) * scale;
        for (uint32_t r = 1; r <= config_.maxRegions; ++r) {
            hits_below += hits_[r - 1];
            misses[r] = static_cast<double>(total - hits_below) * scale;
        }
        return repairedMissCurve(std::move(misses)).samples();
    }

    uint64_t hitsAtDistance(uint32_t d) const { return hits_[d]; }
    uint64_t missesBeyond() const { return missesBeyond_; }

    void
    resetHistogram()
    {
        std::fill(hits_.begin(), hits_.end(), 0);
        missesBeyond_ = 0;
    }

  private:
    UMonConfig config_;
    uint64_t shadowSets_;
    std::vector<std::vector<uint64_t>> stacks_;
    std::vector<uint64_t> hits_;
    uint64_t missesBeyond_ = 0;
};

constexpr int kAccesses = 200000;

// Lines drawn from a footprint twice the cache's, with a hot quarter
// taking half the references, so sets see hits, fills and evictions.
uint64_t
drawAddress(util::Rng &rng, uint64_t cache_lines, uint32_t line_bytes)
{
    const uint64_t footprint = 2 * cache_lines;
    const uint64_t line = rng.bernoulli(0.5)
                              ? rng.uniformInt(footprint / 4)
                              : rng.uniformInt(footprint);
    return line * line_bytes + rng.uniformInt(uint64_t{line_bytes});
}

void
checkCacheAgainstReference(const CacheConfig &config, uint32_t partitions,
                           uint64_t seed)
{
    SetAssocCache cache(config, partitions);
    RefCache ref(config, partitions);
    util::Rng rng(seed);
    const double kScales[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    uint64_t hits = 0;
    uint64_t evictions = 0;
    for (int i = 0; i < kAccesses; ++i) {
        if (i % 500 == 0) {
            const auto p = static_cast<uint32_t>(rng.uniformInt(partitions));
            const double s = kScales[rng.uniformInt(uint64_t{5})];
            cache.setScale(p, s);
            ref.setScale(p, s);
        }
        if (i == kAccesses / 2) {
            cache.flush();
            ref.flush();
        }
        const auto p = static_cast<uint32_t>(rng.uniformInt(partitions));
        const uint64_t addr =
            drawAddress(rng, config.lines(), config.lineBytes);
        const bool write = rng.bernoulli(0.3);
        const AccessResult got = cache.access(p, addr, write);
        const AccessResult want = ref.access(p, addr, write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        ASSERT_EQ(got.victimPartition, want.victimPartition)
            << "access " << i;
        for (uint32_t q = 0; q < partitions; ++q)
            ASSERT_EQ(cache.occupancy(q), ref.occupancy(q))
                << "access " << i << " partition " << q;
        hits += got.hit;
        evictions += got.victimPartition >= 0;
    }
    for (uint32_t q = 0; q < partitions; ++q) {
        EXPECT_EQ(cache.stats(q).hits, ref.stats(q).hits);
        EXPECT_EQ(cache.stats(q).misses, ref.stats(q).misses);
        EXPECT_EQ(cache.stats(q).writebacks, ref.stats(q).writebacks);
    }
    // The stream must exercise every path, not just agree on one.
    EXPECT_GT(hits, static_cast<uint64_t>(kAccesses / 10));
    EXPECT_GT(evictions, static_cast<uint64_t>(kAccesses / 10));
}

TEST(CacheReferenceModel, PowerOfTwoL1Geometry)
{
    // 32 KB / 4 ways / 64 B = 128 sets: the simulated L1.
    checkCacheAgainstReference(CacheConfig{32 * 1024, 4, 64}, 1, 11);
}

TEST(CacheReferenceModel, PowerOfTwoSharedGeometry)
{
    // 2 MB / 16 ways = 2048 sets, 8 partitions (4 cores x Talus A/B).
    checkCacheAgainstReference(CacheConfig{2 * 1024 * 1024, 16, 64}, 8,
                               12);
}

TEST(CacheReferenceModel, NonPowerOfTwoSets)
{
    // 1.5 MB / 16 ways = 1536 sets: the L2 rebudget_cli builds for
    // three apps.
    checkCacheAgainstReference(CacheConfig{1536 * 1024, 16, 64}, 6, 13);
}

TEST(CacheReferenceModel, NonPowerOfTwoWaysAndSets)
{
    // 3 ways x 320 sets x 128 B lines.
    checkCacheAgainstReference(CacheConfig{3 * 320 * 128, 3, 128}, 5, 14);
}

void
checkUMonAgainstReference(const UMonConfig &config, uint64_t seed)
{
    UMonitor umon(config);
    RefUMon ref(config);
    util::Rng rng(seed);
    const uint64_t monitored_lines =
        config.maxRegions * (config.regionBytes / config.lineBytes);
    for (int i = 0; i < kAccesses; ++i) {
        if (i == kAccesses / 2) {
            umon.resetHistogram();
            ref.resetHistogram();
        }
        const uint64_t addr =
            drawAddress(rng, monitored_lines, config.lineBytes);
        umon.observe(addr);
        ref.observe(addr);
        ASSERT_EQ(umon.missesBeyond(), ref.missesBeyond()) << "access " << i;
        for (uint32_t d = 0; d < config.maxRegions; ++d)
            ASSERT_EQ(umon.hitsAtDistance(d), ref.hitsAtDistance(d))
                << "access " << i << " distance " << d;
        if (i % 1000 == 0)
            ASSERT_EQ(umon.missCurve().samples(), ref.missCurve())
                << "access " << i;
    }
    EXPECT_EQ(umon.missCurve().samples(), ref.missCurve());
    EXPECT_GT(umon.missesBeyond(), 0u);
    EXPECT_GT(umon.hitsAtDistance(config.maxRegions - 1), 0u);
}

TEST(UMonReferenceModel, PaperGeometry)
{
    checkUMonAgainstReference(UMonConfig{}, 21);
}

TEST(UMonReferenceModel, NonPowerOfTwoRegionAndSampling)
{
    UMonConfig config;
    config.regionBytes = 96 * 1024; // 1536 shadow sets
    config.samplingRatio = 3;
    checkUMonAgainstReference(config, 22);
}

TEST(UMonReferenceModel, ShallowStacks)
{
    UMonConfig config;
    config.maxRegions = 3;
    config.regionBytes = 40 * 1024;
    config.lineBytes = 128;
    config.samplingRatio = 5;
    checkUMonAgainstReference(config, 23);
}

} // namespace
} // namespace rebudget::cache
