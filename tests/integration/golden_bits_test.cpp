/**
 * Golden bit-identity pin for the reference-stream substrate.
 *
 * The trace generators, the L1, the UMON shadow tags and the shared L2
 * are tuned for speed under one contract: every output bit stays the
 * same.  This test folds the raw IEEE-754 bits of two outputs into
 * FNV-1a hashes and compares them with constants captured before the
 * substrate was optimized:
 *
 *  - all 24 catalog profiles (miss-curve points, instructions, L2
 *    accesses per instruction) -- the profiler's trace->L1->UMON loop;
 *  - a 4-core EpochSimulator run (per-epoch ips, cache targets,
 *    frequencies, DRAM latency) -- the full trace->L1->UMON->L2 loop
 *    with the market in the loop.
 *
 * A mismatch means a change altered simulated behaviour, not just its
 * speed.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/sim/epoch_sim.h"

namespace rebudget {
namespace {

class Fnv1a
{
  public:
    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::vector<double> &vs)
    {
        for (const double v : vs)
            add(v);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Captured from the unoptimized substrate; see the file comment.
constexpr uint64_t kCatalogProfilesHash = 0xfc15e88ccdb86934ULL;
constexpr uint64_t kEpochSimHash = 0x6b5d2fc5c5e46f52ULL;

TEST(GoldenBits, CatalogProfilesUnchanged)
{
    const auto &profiles = app::catalogProfiles();
    ASSERT_EQ(profiles.size(), 24u);
    Fnv1a h;
    for (const auto &p : profiles) {
        h.add(p.l2Curve.samples());
        h.add(p.instructions);
        h.add(p.l2AccessesPerInstr);
    }
    EXPECT_EQ(h.value(), kCatalogProfilesHash)
        << std::hex << "catalog profile hash 0x" << h.value();
}

TEST(GoldenBits, FourCoreEpochSimUnchanged)
{
    // A Zipf app (vpr), a cliff app (mcf), a Zipf cache+power app (gcc)
    // and a streaming app (milc) under ReBudget-20, so every generator
    // family, the Talus split and the market feed the hash.
    sim::EpochSimConfig cfg = sim::EpochSimConfig::forCores(4);
    cfg.epochs = 6;
    cfg.warmupEpochs = 2;
    cfg.cmp.accessesPerEpochPerCore = 20000;
    cfg.seed = 7;
    const std::vector<app::AppParams> apps = {
        app::findCatalogProfile("vpr").params,
        app::findCatalogProfile("mcf").params,
        app::findCatalogProfile("gcc").params,
        app::findCatalogProfile("milc").params};
    const auto alloc = core::ReBudgetAllocator::withStep(0.20);
    sim::EpochSimulator simulator(cfg, apps, alloc);
    const sim::SimResult result = simulator.run();
    ASSERT_EQ(result.epochs.size(), 6u);
    Fnv1a h;
    for (const auto &rec : result.epochs) {
        h.add(rec.ips);
        h.add(rec.cacheTargets);
        h.add(rec.freqsGhz);
        h.add(rec.memLatencyNs);
    }
    EXPECT_EQ(h.value(), kEpochSimHash)
        << std::hex << "epoch sim hash 0x" << h.value();
}

} // namespace
} // namespace rebudget
