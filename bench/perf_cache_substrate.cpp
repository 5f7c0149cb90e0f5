/**
 * @file
 * Cache-substrate benchmark: where a simulated memory reference spends
 * its time.
 *
 * Replays fig05's six seed-99 64-core bundles the way
 * sim::SimCore::runEpoch does -- every core, one after another, runs a
 * window of references through its generator, its private L1 and its
 * UMON shadow tags, and the L1 misses go to the shared Talus-partitioned
 * L2 -- but runs each stage over the whole window before the next, so
 * each stage can be timed on its own.  At every epoch boundary the
 * futility controller is updated once, as the simulator does.
 *
 * Stages, each reported in nanoseconds per item of its own input:
 *   gen         AddressGenerator::next, per generated reference
 *   l1          SetAssocCache::access on the L1, per reference
 *   umon        UMonitor::observe, per L1 miss
 *   l2          SharedL2::access (with its controller tick), per L1 miss
 *   controller  SharedL2::updateController, per call
 * plus the total per generated reference and each stage's share of it.
 * The hit/miss counters are deterministic: two builds that simulate the
 * same behaviour print the same counters.
 *
 * Flags: --smoke (one bundle, two short epochs: the CTest entry),
 * --out PATH (also write the JSON there).  The JSON always goes to
 * stdout.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rebudget/app/catalog.h"
#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/cache/umon.h"
#include "rebudget/sim/cmp_config.h"
#include "rebudget/sim/shared_l2.h"
#include "rebudget/trace/generator.h"
#include "rebudget/util/logging.h"
#include "rebudget/workloads/bundles.h"
#include "rebudget/workloads/classify.h"

using namespace rebudget;

namespace {

constexpr uint32_t kCores = 64;
constexpr uint64_t kFig05Seed = 99;

using Clock = std::chrono::steady_clock;

int64_t
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

/** Accumulated time and item count of one stage. */
struct Stage
{
    int64_t ns = 0;
    uint64_t items = 0;

    double
    perItem() const
    {
        return items ? static_cast<double>(ns) / static_cast<double>(items)
                     : 0.0;
    }
};

struct Totals
{
    Stage gen, l1, umon, l2, controller;
    uint64_t l2Hits = 0;
};

/** One bundle on one machine, stage by stage, epoch by epoch. */
void
replayBundle(const std::vector<app::AppParams> &apps, uint32_t epochs,
             uint64_t accesses, Totals &t)
{
    const sim::CmpConfig cmp = sim::CmpConfig::forCores(kCores);
    sim::SharedL2 l2(cmp);
    std::vector<std::unique_ptr<trace::AddressGenerator>> gens;
    std::vector<cache::SetAssocCache> l1s;
    std::vector<cache::UMonitor> umons;
    for (uint32_t c = 0; c < kCores; ++c) {
        // Same address-space bases and stream seeds as sim::EpochSim
        // with simulator seed 1.
        gens.push_back(apps[c].makeGenerator(static_cast<uint64_t>(c) << 40,
                                             1 + c * 977));
        l1s.emplace_back(cmp.l1, 1);
        umons.emplace_back(cmp.umon);
    }
    std::vector<trace::Access> window(accesses);
    std::vector<trace::Access> misses(accesses);
    for (uint32_t e = 0; e < epochs; ++e) {
        for (uint32_t c = 0; c < kCores; ++c) {
            auto t0 = Clock::now();
            for (auto &a : window)
                a = gens[c]->next();
            t.gen.ns += elapsedNs(t0);
            t.gen.items += accesses;

            t0 = Clock::now();
            size_t m = 0;
            for (const auto &a : window) {
                if (!l1s[c].access(0, a.addr, a.write).hit)
                    misses[m++] = a;
            }
            t.l1.ns += elapsedNs(t0);
            t.l1.items += accesses;

            t0 = Clock::now();
            for (size_t i = 0; i < m; ++i)
                umons[c].observe(misses[i].addr);
            t.umon.ns += elapsedNs(t0);
            t.umon.items += m;

            t0 = Clock::now();
            for (size_t i = 0; i < m; ++i)
                t.l2Hits += l2.access(c, misses[i].addr, misses[i].write);
            t.l2.ns += elapsedNs(t0);
            t.l2.items += m;
        }
        const auto t0 = Clock::now();
        l2.updateController();
        t.controller.ns += elapsedNs(t0);
        ++t.controller.items;
        for (auto &u : umons)
            u.resetHistogram();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
            out_path = argv[++a];
        else
            util::fatal("unknown argument '%s'", argv[a]);
    }
    // The full run matches the sim-epochs replay: 4 + 10 epochs of 8000
    // references per core on each of the six bundles.
    const uint32_t epochs = smoke ? 2 : 14;
    const uint64_t accesses = smoke ? 2000 : 8000;
    const size_t bundles = smoke ? 1 : workloads::kAllCategories.size();

    const auto catalog = workloads::classifyCatalog();
    Totals t;
    for (size_t b = 0; b < bundles; ++b) {
        const auto bundle = workloads::generateBundles(
            catalog, workloads::kAllCategories[b], kCores, 1, kFig05Seed);
        std::vector<app::AppParams> apps;
        for (const auto &name : bundle.front().appNames)
            apps.push_back(app::findCatalogProfile(name).params);
        replayBundle(apps, epochs, accesses, t);
    }

    const int64_t total_ns =
        t.gen.ns + t.l1.ns + t.umon.ns + t.l2.ns + t.controller.ns;
    const double per_access = static_cast<double>(total_ns) /
                              static_cast<double>(t.gen.items);
    auto share = [&](const Stage &s) {
        return static_cast<double>(s.ns) / static_cast<double>(total_ns);
    };
    std::ostringstream js;
    js << "{\"schema\":\"rebudget.cache_substrate.v1\""
       << ",\"mode\":\"" << (smoke ? "smoke" : "full") << "\""
       << ",\"bundles\":" << bundles << ",\"cores\":" << kCores
       << ",\"epochs\":" << epochs
       << ",\"accesses_per_core_epoch\":" << accesses
       << ",\"references\":" << t.gen.items
       << ",\"l1_misses\":" << t.l2.items << ",\"l2_hits\":" << t.l2Hits
       << ",\"ns_per_access\":" << per_access
       << ",\"stage_ns\":{\"gen\":" << t.gen.perItem()
       << ",\"l1\":" << t.l1.perItem() << ",\"umon\":" << t.umon.perItem()
       << ",\"l2\":" << t.l2.perItem()
       << ",\"controller_update\":" << t.controller.perItem() << "}"
       << ",\"stage_share\":{\"gen\":" << share(t.gen)
       << ",\"l1\":" << share(t.l1) << ",\"umon\":" << share(t.umon)
       << ",\"l2\":" << share(t.l2)
       << ",\"controller_update\":" << share(t.controller) << "}}";
    std::cout << js.str() << "\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            util::fatal("cannot write %s", out_path.c_str());
        out << js.str() << "\n";
    }
    return 0;
}
