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
 *
 * The same scheme pins the scoring path (market::efficiency,
 * market::envyFreeness and the churn engine's lifetime sums), captured
 * before scoring was deduplicated by distinct model and allocation row:
 *
 *  - the fig04 suite (64 cores, 40 bundles per category, seed 2016)
 *    under EqualBudget, Balanced, ReBudget-20 and ReBudget-40, warm
 *    started: efficiency, envy-freeness, MUR, MBR and iterations;
 *  - one churn run the size of the churn_smoke CTest entry (8 cores,
 *    2 bundles per category, seed 2016, 6 epochs, 30% join/leave):
 *    every epoch record and every tenant's lifetime sums.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/core/baselines.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/sim/epoch_sim.h"
#include "rebudget/workloads/bundles.h"

namespace rebudget {
namespace {

class Fnv1a
{
  public:
    void
    add(uint64_t bits)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
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
// Captured before scoring was deduplicated; see the file comment.
constexpr uint64_t kFig04ScoresHash = 0xddbd34428ad96781ULL;
constexpr uint64_t kChurnEpochsHash = 0x612e752279d612d3ULL;
constexpr uint64_t kChurnTenantsHash = 0xc7138c58f6cc14aaULL;

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

TEST(GoldenBits, Fig04SuiteScoresUnchanged)
{
    const auto catalog = workloads::classifyCatalog();
    const auto bundles =
        workloads::generateAllBundles(catalog, 64, 40, 2016);
    ASSERT_EQ(bundles.size(), 240u);
    const core::EqualBudgetAllocator equal_budget;
    const core::BalancedBudgetAllocator balanced;
    const auto rb20 = core::ReBudgetAllocator::withStep(20);
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const eval::BundleRunner runner(
        {&equal_budget, &balanced, &rb20, &rb40});
    Fnv1a h;
    for (const auto &ev : runner.run(bundles)) {
        ASSERT_FALSE(ev.skipped) << ev.bundle << ": " << ev.skipReason;
        ASSERT_EQ(ev.scores.size(), 4u);
        for (const auto &s : ev.scores) {
            h.add(s.efficiency);
            h.add(s.envyFreeness);
            h.add(s.mur);
            h.add(s.mbr);
            h.add(static_cast<uint64_t>(s.marketIterations));
        }
    }
    EXPECT_EQ(h.value(), kFig04ScoresHash)
        << std::hex << "fig04 score hash 0x" << h.value();
}

TEST(GoldenBits, ChurnLifetimeMetricsUnchanged)
{
    const auto catalog = workloads::classifyCatalog();
    const auto bundles =
        workloads::generateAllBundles(catalog, 8, 2, 2016);
    ASSERT_FALSE(bundles.empty());
    const auto spec = eval::ChurnSpec::parse("epochs=6,join=0.3,leave=0.3");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    const core::EqualBudgetAllocator equal_budget;
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const eval::BundleRunner runner({&equal_budget, &rb40});
    Fnv1a epochs;
    Fnv1a tenants;
    size_t scored = 0;
    for (const auto &ev : runner.runChurn(bundles, spec.value())) {
        ASSERT_FALSE(ev.skipped) << ev.bundle << ": " << ev.skipReason;
        for (const auto &res : ev.results) {
            ASSERT_EQ(res.epochs.size(), 6u);
            for (const auto &rec : res.epochs) {
                scored += rec.scored ? 1 : 0;
                epochs.add(static_cast<uint64_t>(rec.players));
                epochs.add(static_cast<uint64_t>(rec.scored));
                epochs.add(rec.efficiency);
                epochs.add(rec.envyFreeness);
                epochs.add(rec.mur);
                epochs.add(rec.mbr);
            }
            epochs.add(res.meanEfficiency);
            epochs.add(res.meanEnvyFreeness);
            for (const auto &t : res.tenants) {
                tenants.add(static_cast<uint64_t>(t.id));
                tenants.add(static_cast<uint64_t>(t.epochsPresent));
                tenants.add(t.utilitySum);
                tenants.add(t.bestOtherUtilitySum);
                tenants.add(t.meanBudget);
                tenants.add(t.meanLambda);
            }
            tenants.add(res.lifetimeEnvyFreeness);
            tenants.add(res.cumulativeMur);
            tenants.add(res.cumulativeMbr);
        }
    }
    EXPECT_EQ(scored, bundles.size() * 2 * 6); // every epoch scored
    EXPECT_EQ(epochs.value(), kChurnEpochsHash)
        << std::hex << "churn epoch hash 0x" << epochs.value();
    EXPECT_EQ(tenants.value(), kChurnTenantsHash)
        << std::hex << "churn tenant hash 0x" << tenants.value();
}

} // namespace
} // namespace rebudget
