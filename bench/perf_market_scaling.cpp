/**
 * @file
 * Market runtime vs. machine size, printed as JSON.
 *
 * The paper's scalability argument (Section 1) is that the market is
 * largely distributed: each bidding-pricing round is O(N) player-local
 * optimizations, and rounds stay flat with N.  For each player count
 * this benchmark times, in nanoseconds per call:
 *
 *   construct     eval::makeSyntheticBundleProblem on a warm model
 *                 cache (O(players) pointer copies, at most 24 models)
 *   allocate      EqualBudget and ReBudget-40 allocate()
 *   score         eval::scoreOutcome on the ReBudget-40 outcome, and
 *                 the naive N x N efficiency + envy-freeness loop it
 *                 replaced, on two rosters:
 *                   catalog   the synthetic roster, whose players share
 *                             the memoized catalog models by pointer
 *                   distinct  the same app names resolved through a
 *                             ProfileLookup, which builds one model per
 *                             player: no pointer repeats, the kernel's
 *                             worst case
 *
 * Each score row also reports the distinct model pointers and distinct
 * allocation rows the kernel found.  The kernel's scores must equal the
 * naive loop's bit for bit; the binary fatals otherwise, so the smoke
 * entry doubles as a regression gate.
 *
 * Problems come from eval::makeSyntheticBundleProblem -- the same
 * deterministic catalog roster used by perf_equilibrium's scaling
 * sweep and `rebudget_cli --players` -- so the numbers measure the
 * mechanisms on the real convexified app models.
 *
 * Flags: --smoke (8 and 64 players, few repetitions: the CTest entry),
 * --out PATH (also write the JSON there).  The JSON always goes to
 * stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rebudget/app/catalog.h"
#include "rebudget/core/baselines.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/market/metrics.h"
#include "rebudget/util/logging.h"

using namespace rebudget;

namespace {

constexpr uint64_t kSeed = 42;

using Clock = std::chrono::steady_clock;

/** Keeps a computed value alive so the timed call is not elided. */
volatile double g_sink = 0.0;

/**
 * @return mean ns per call of `fn`, repeating it until `min_ns` has
 * elapsed (at least once).
 */
template <typename Fn>
double
timeNs(Fn &&fn, int64_t min_ns)
{
    int64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    int64_t ns = 0;
    do {
        fn();
        ++calls;
        ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - t0)
                 .count();
    } while (ns < min_ns);
    return static_cast<double>(ns) / static_cast<double>(calls);
}

/** Efficiency and envy-freeness by the naive N x N loop. */
std::pair<double, double>
naiveScore(const core::AllocationProblem &problem,
           const util::Matrix<double> &alloc)
{
    double eff = 0.0;
    double ef = 1.0;
    for (size_t i = 0; i < problem.models.size(); ++i) {
        const double own = problem.models[i]->utility(alloc[i]);
        double best = own;
        for (size_t j = 0; j < alloc.size(); ++j) {
            if (j != i)
                best = std::max(best, problem.models[i]->utility(alloc[j]));
        }
        eff += own;
        if (best > 0.0)
            ef = std::min(ef, own / best);
    }
    return {eff, ef};
}

/** Efficiency and envy-freeness through the kernel, as scoreOutcome. */
std::pair<double, double>
kernelScore(const core::AllocationProblem &problem,
            const util::Matrix<double> &alloc)
{
    const market::OwnAndBest terms =
        market::ownAndBestUtilities(problem.models, alloc);
    return {terms.efficiency(), terms.envyFreeness()};
}

size_t
distinctRows(const util::Matrix<double> &alloc)
{
    std::set<std::vector<uint64_t>> rows;
    for (size_t i = 0; i < alloc.size(); ++i) {
        std::vector<uint64_t> bits(alloc.cols());
        std::memcpy(bits.data(), alloc.row(i),
                    alloc.cols() * sizeof(double));
        rows.insert(std::move(bits));
    }
    return rows.size();
}

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Times scoreOutcome and the naive loop on one roster; JSON object. */
std::string
scoreRow(const core::AllocationProblem &problem,
         const core::AllocationOutcome &outcome, int64_t min_ns)
{
    const eval::MechanismScore s = eval::scoreOutcome(problem, outcome);
    const auto [eff, ef] = naiveScore(problem, outcome.alloc);
    if (!s.status.ok() || bitsOf(s.efficiency) != bitsOf(eff) ||
        bitsOf(s.envyFreeness) != bitsOf(ef)) {
        util::fatal("scoreOutcome (%.17g, %.17g) differs from the naive "
                    "loop (%.17g, %.17g) at %zu players",
                    s.efficiency, s.envyFreeness, eff, ef,
                    problem.models.size());
    }
    const double score_ns = timeNs(
        [&] { g_sink = eval::scoreOutcome(problem, outcome).envyFreeness; },
        min_ns);
    const double kernel_ns = timeNs(
        [&] { g_sink = kernelScore(problem, outcome.alloc).second; },
        min_ns);
    const double naive_ns = timeNs(
        [&] { g_sink = naiveScore(problem, outcome.alloc).second; },
        min_ns);
    const std::set<const market::UtilityModel *> models(
        problem.models.begin(), problem.models.end());
    std::ostringstream js;
    js << "{\"score_ns\":" << score_ns << ",\"kernel_ns\":" << kernel_ns
       << ",\"naive_ns\":" << naive_ns
       << ",\"speedup\":" << naive_ns / kernel_ns
       << ",\"distinct_models\":" << models.size()
       << ",\"distinct_rows\":" << distinctRows(outcome.alloc) << "}";
    return js.str();
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
    const std::vector<size_t> players =
        smoke ? std::vector<size_t>{8, 64}
              : std::vector<size_t>{8, 16, 32, 64, 128, 256, 512, 1024,
                                    2048, 4096};
    const int64_t min_ns = smoke ? 1'000'000 : 200'000'000;

    const core::EqualBudgetAllocator equal_budget;
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const eval::ProfileLookup lookup =
        [](const std::string &name) -> const app::AppProfile & {
        return app::findCatalogProfile(name);
    };

    std::ostringstream js;
    js << "{\"schema\":\"rebudget.market_scaling.v1\""
       << ",\"mode\":\"" << (smoke ? "smoke" : "full") << "\""
       << ",\"seed\":" << kSeed << ",\"rows\":[";
    for (size_t k = 0; k < players.size(); ++k) {
        const size_t n = players[k];
        // Warms the shared model cache: construct then times the
        // steady state every repeated-solve consumer pays.
        const eval::BundleProblem shared =
            eval::makeSyntheticBundleProblem(n, kSeed);
        const double construct_ns = timeNs(
            [&] {
                g_sink = static_cast<double>(
                    eval::makeSyntheticBundleProblem(n, kSeed)
                        .models.size());
            },
            min_ns);
        const double equal_budget_ns = timeNs(
            [&] {
                g_sink = equal_budget.allocate(shared.problem).alloc(0, 0);
            },
            min_ns);
        const double rb40_ns = timeNs(
            [&] { g_sink = rb40.allocate(shared.problem).alloc(0, 0); },
            min_ns);

        const eval::BundleProblem distinct = eval::makeBundleProblem(
            eval::syntheticAppNames(n, kSeed), lookup);
        const core::AllocationOutcome shared_out =
            rb40.allocate(shared.problem);
        const core::AllocationOutcome distinct_out =
            rb40.allocate(distinct.problem);

        js << (k ? "," : "") << "{\"players\":" << n
           << ",\"construct_ns\":" << construct_ns
           << ",\"allocate_ns\":{\"EqualBudget\":" << equal_budget_ns
           << ",\"ReBudget-40\":" << rb40_ns << "}"
           << ",\"score\":{\"catalog\":"
           << scoreRow(shared.problem, shared_out, min_ns)
           << ",\"distinct\":"
           << scoreRow(distinct.problem, distinct_out, min_ns) << "}}";
    }
    js << "]}";
    std::cout << js.str() << "\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            util::fatal("cannot write %s", out_path.c_str());
        out << js.str() << "\n";
    }
    return 0;
}
