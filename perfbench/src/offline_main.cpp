/**
 * pb_offline -- the benchmark's offline program: the eval-sweep and
 * sim-epochs workloads, linked against the library.
 *
 *   pb_offline --workload eval-sweep|sim-epochs --seed N --seconds T
 *              [--trace 0|1] [--jobs J] [--setup-only]
 *
 * eval-sweep scores 64-core bundle suites under EqualBudget, Balanced,
 * ReBudget-20 and ReBudget-40 through eval::BundleRunner::evaluate on
 * one thread pool.  The seed-2016 fig04 suite always runs first (its
 * iteration counters are checked), then suites drawn from --seed until
 * --seconds of measured time have passed.
 *
 * sim-epochs simulates fig05's six seed-99 bundles on 64 cores, 4
 * warm-up and 10 measured epochs, under EqualBudget and ReBudget-20,
 * in passes of twelve simulations until --seconds have passed.  The
 * simulator seed comes from --seed; every pass must reproduce the
 * first one exactly.
 *
 * With --trace 1 the first half of the time runs untraced and the
 * second half runs with spans around the public calls into each layer
 * (classifyCatalog, makeBundleProblem, a timing Allocator decorator,
 * scoreOutcome, EpochSimulator); the difference between the halves is
 * the tracing overhead.
 *
 * Prints one JSON line of raw measurements; perfbench/run.py turns it
 * into the benchmark's metrics.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rebudget/app/catalog.h"
#include "rebudget/core/baselines.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/market/metrics.h"
#include "rebudget/sim/epoch_sim.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/thread_pool.h"
#include "rebudget/workloads/bundles.h"

#include "pb_stats.h"
#include "pb_trace.h"

using namespace rebudget;

namespace {

constexpr std::uint32_t kCores = 64;
/** fig04's suite seed and its warm-start iteration totals (EqualBudget,
 * Balanced, ReBudget-20, ReBudget-40), pinned by BENCH_market.json. */
constexpr std::uint64_t kFig04Seed = 2016;
constexpr int kFig04Iterations[4] = {753, 953, 1896, 2631};
/** Bundles per category in the seeded suites after the fig04 one. */
constexpr std::uint32_t kSeededPerCategory = 8;
/** Shortest throughput block, seconds (eval-sweep). */
constexpr double kBlockS = 0.5;
/** fig05's bundle seed and machine. */
constexpr std::uint64_t kFig05Seed = 99;
constexpr std::uint32_t kSimEpochs = 10;
constexpr std::uint32_t kSimWarmup = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 0;
    bool setupOnly = false;
};

/** Times every allocate() of the wrapped mechanism as one span. */
class TimedAllocator final : public core::Allocator
{
  public:
    explicit TimedAllocator(const core::Allocator &inner)
        : inner_(inner), span_("core.allocate." + inner.name())
    {
    }

    const std::string &name() const override { return inner_.name(); }

    core::AllocationOutcome allocate(
        const core::AllocationProblem &problem) const override
    {
        const pb::Span span(span_);
        return inner_.allocate(problem);
    }

    void onRosterChange(const core::RosterChange &change,
                        core::AllocationProblem &problem) const override
    {
        inner_.onRosterChange(change, problem);
    }

  private:
    const core::Allocator &inner_;
    std::string span_;
};

/** FNV-1a fold of a double's bit pattern / an integer. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8) {
        h ^= (v >> shift) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
foldDouble(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return fold(h, bits);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0.0 : pb::percentile(v, 0.5);
}

/** Output checks: every failure is named, and any one fails the run. */
struct Checks
{
    std::vector<std::string> errors;
    void expect(bool ok, const std::string &what)
    {
        if (!ok && errors.size() < 16)
            errors.push_back(what);
    }
    std::string joined() const
    {
        std::string out;
        for (const std::string &e : errors)
            out += (out.empty() ? "" : "; ") + e;
        return out;
    }
};

void
reportSolver(pb::JsonLine &out, const util::SolverStats &s,
             double nsPerSweep)
{
    out.integer("market.solves", s.equilibriumSolves);
    out.integer("market.sweeps", s.sweepIterations);
    out.integer("market.hill_climb_steps", s.hillClimbSteps);
    out.integer("market.failsafe_trips", s.failSafeTrips);
    out.integer("market.warm_solves", s.warmStartedSolves);
    out.integer("market.elided_rescales", s.elidedRescales);
    out.num("market.ns_per_sweep", nsPerSweep);
    out.integer("core.budget_rounds", s.budgetRounds);
}

// --- eval-sweep -------------------------------------------------------

struct Mechanisms
{
    core::EqualBudgetAllocator equalBudget;
    core::BalancedBudgetAllocator balanced;
    core::ReBudgetAllocator rb20 = core::ReBudgetAllocator::withStep(20);
    core::ReBudgetAllocator rb40 = core::ReBudgetAllocator::withStep(40);

    std::vector<const core::Allocator *> list() const
    {
        return {&equalBudget, &balanced, &rb20, &rb40};
    }
};

/** What one pass over a suite produced. */
struct SuiteResult
{
    std::vector<eval::BundleEvaluation> evals;
    std::vector<double> latencyUs;
    double wallSeconds = 0.0;
};

std::uint64_t
digestEvals(std::uint64_t h, const std::vector<eval::BundleEvaluation> &evs)
{
    for (const auto &ev : evs) {
        h = fold(h, ev.skipped ? 1 : 0);
        for (const auto &s : ev.scores) {
            h = foldDouble(h, s.efficiency);
            h = foldDouble(h, s.envyFreeness);
            h = foldDouble(h, s.mbr);
            h = fold(h, static_cast<std::uint64_t>(s.marketIterations));
        }
    }
    return h;
}

/** The BundleRunner::evaluate sequence rebuilt from its public parts,
 * with a span around each layer's call. */
eval::BundleEvaluation
rebuiltEvaluate(const workloads::Bundle &bundle,
               const std::vector<const core::Allocator *> &mechanisms)
{
    const pb::Span root("eval.bundle");
    eval::BundleEvaluation ev;
    ev.bundle = bundle.name;
    ev.category = bundle.category;
    eval::BundleProblem bp;
    {
        const pb::Span span("eval.make_problem");
        bp = eval::makeBundleProblem(bundle.appNames);
    }
    bp.problem.marketConfig = eval::BundleRunnerOptions{}.marketConfig;
    market::SolveWorkspace ws;
    bp.problem.workspace = &ws;
    if (core::tryValidateProblem(bp.problem)) {
        ev.skipped = true;
        return ev;
    }
    for (const core::Allocator *m : mechanisms) {
        core::AllocationOutcome out = m->allocate(bp.problem);
        const pb::Span span("eval.score");
        eval::MechanismScore s = eval::scoreOutcome(bp.problem, out);
        if (!s.status.ok()) {
            ev.skipped = true;
            ev.scores.clear();
            return ev;
        }
        ev.scores.push_back(std::move(s));
    }
    return ev;
}

SuiteResult
runSuite(util::ThreadPool &pool, const std::vector<workloads::Bundle> &suite,
         const eval::BundleRunner &runner,
         const std::vector<const core::Allocator *> *rebuiltWith)
{
    SuiteResult r;
    r.evals.resize(suite.size());
    r.latencyUs.resize(suite.size());
    const std::int64_t start = pb::nowNs();
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        const std::int64_t t0 = pb::nowNs();
        r.evals[i] = rebuiltWith ? rebuiltEvaluate(suite[i], *rebuiltWith)
                                 : runner.evaluate(suite[i]);
        r.latencyUs[i] = static_cast<double>(pb::nowNs() - t0) / 1e3;
    });
    r.wallSeconds = static_cast<double>(pb::nowNs() - start) / 1e9;
    return r;
}

/** Checks that hold for every suite: nothing skipped or failed, and
 * ReBudget never breaks its Theorem-2 envy-freeness bound. */
void
checkSuite(const SuiteResult &r, std::size_t mechanisms, Checks &checks,
           std::uint64_t &failed, std::int64_t &thm2Violations)
{
    for (const auto &ev : r.evals) {
        if (ev.skipped || ev.scores.size() != mechanisms) {
            ++failed;
            checks.expect(false, "bundle " + ev.bundle + " skipped: " +
                                     ev.skipReason);
            continue;
        }
        for (std::size_t m = 2; m < mechanisms; ++m) { // the ReBudgets
            const auto &s = ev.scores[m];
            if (s.envyFreeness <
                market::envyFreenessLowerBound(s.mbr) - 1e-6)
                ++thm2Violations;
        }
    }
}

int
runEval(const Options &opt, std::int64_t t0)
{
    Checks checks;
    const workloads::ClassifiedCatalog catalog = workloads::classifyCatalog();
    const std::int64_t profiled = pb::nowNs();
    const std::vector<workloads::Bundle> fig04 =
        workloads::generateAllBundles(catalog, kCores, 40, kFig04Seed);
    for (const auto &b : fig04)
        (void)eval::makeBundleProblem(b.appNames);
    const double setupS = static_cast<double>(pb::nowNs() - t0) / 1e9;
    pb::JsonLine out;
    out.num("setup_s", setupS);
    out.num("app.catalog_profile_s",
            static_cast<double>(profiled - t0) / 1e9);
    if (opt.setupOnly) {
        out.print();
        return 0;
    }

    const Mechanisms mech;
    const auto plain = mech.list();
    std::vector<std::unique_ptr<TimedAllocator>> timed;
    std::vector<const core::Allocator *> timedList;
    for (const core::Allocator *m : plain) {
        timed.push_back(std::make_unique<TimedAllocator>(*m));
        timedList.push_back(timed.back().get());
    }
    const eval::BundleRunner runner(plain);
    util::ThreadPool pool(opt.jobs);

    auto suiteFor = [&](std::uint64_t k) {
        if (k == 0)
            return fig04;
        return workloads::generateAllBundles(
            catalog, kCores, kSeededPerCategory,
            util::mix64(opt.seed ^ (k * 0x9e3779b97f4a7c15ull)));
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::int64_t thm2 = 0;
    std::vector<double> latencies;
    util::SolverStats fig04Stats;
    util::SolverStats allStats;
    std::uint64_t digest = kFnvBasis;
    std::uint64_t fig04Digest = 0;

    // Suites run back to back until the time is used; the fig04 suite
    // and the first seeded suite always run.  Untraced runs time
    // BundleRunner::evaluate itself.  Traced runs time its rebuilt
    // sequence (rebuiltEvaluate) and alternate suite by suite between
    // tracing off and on, so both halves see the same machine and
    // differ only by the spans.  Throughput is the median over blocks
    // of at least kBlockS, so a few slow seconds move one block, not
    // the result.
    struct Phase
    {
        double seconds = 0.0;
        std::uint64_t bundles = 0;
        std::vector<double> blockRates;
        double blockS = 0.0;
        std::uint64_t blockBundles = 0;

        void add(double s, std::size_t n)
        {
            seconds += s;
            bundles += n;
            blockS += s;
            blockBundles += n;
            if (blockS >= kBlockS) {
                blockRates.push_back(static_cast<double>(blockBundles) /
                                     blockS);
                blockS = 0.0;
                blockBundles = 0;
            }
        }
        double rate() const
        {
            return blockRates.empty()
                       ? static_cast<double>(bundles) / seconds
                       : median(blockRates);
        }
    };
    Phase phases[2]; // [0] untraced, [1] traced
    // The fig04 suite goes through BundleRunner once, untimed, as the
    // reference the rebuilt sequence must reproduce.
    const bool rebuilt = opt.trace;
    if (rebuilt)
        fig04Digest = digestEvals(kFnvBasis, runner.run(fig04));
    double elapsed = 0.0;
    for (std::uint64_t k = 0; k < 2 || elapsed < opt.seconds; ++k) {
        const bool traced = opt.trace && k % 2 == 1;
        const auto suite = suiteFor(k);
        pb::Tracer::instance().enable(traced);
        const SuiteResult r =
            runSuite(pool, suite, runner, rebuilt ? &timedList : nullptr);
        pb::Tracer::instance().enable(false);
        elapsed += r.wallSeconds;
        phases[traced ? 1 : 0].add(r.wallSeconds, suite.size());
        attempted += suite.size();
        checkSuite(r, plain.size(), checks, failed, thm2);
        if (k < 2)
            digest = digestEvals(digest, r.evals);
        if (traced)
            continue;
        latencies.insert(latencies.end(), r.latencyUs.begin(),
                         r.latencyUs.end());
        for (const auto &ev : r.evals)
            for (const auto &sc : ev.scores)
                allStats.merge(sc.stats);
        if (k != 0)
            continue;
        int iters[4] = {0, 0, 0, 0};
        for (const auto &ev : r.evals) {
            for (std::size_t m = 0; m < ev.scores.size(); ++m) {
                iters[m] += ev.scores[m].marketIterations;
                fig04Stats.merge(ev.scores[m].stats);
            }
        }
        for (std::size_t m = 0; m < 4; ++m) {
            checks.expect(iters[m] == kFig04Iterations[m],
                          plain[m]->name() + " fig04 iterations " +
                              std::to_string(iters[m]) + " != " +
                              std::to_string(kFig04Iterations[m]));
        }
        const std::uint64_t d = digestEvals(kFnvBasis, r.evals);
        if (rebuilt)
            checks.expect(d == fig04Digest, "rebuilt evaluate differs from "
                                            "BundleRunner on the fig04 suite");
    }
    checks.expect(thm2 == 0, "Theorem-2 violations: " + std::to_string(thm2));

    const double rate = phases[0].rate();
    out.integer("rate_samples",
                static_cast<std::int64_t>(phases[0].blockRates.size()));
    out.integer("attempted", static_cast<std::int64_t>(attempted));
    out.integer("failed", static_cast<std::int64_t>(failed));
    out.num("failed_frac", pb::failedFrac(failed, attempted));
    out.num("ops_per_s", rate);
    out.num("epochs_per_s", rate * static_cast<double>(plain.size()));
    out.num("p50_us", median(latencies));
    out.integer("samples", static_cast<std::int64_t>(latencies.size()));

    if (opt.trace) {
        const auto layers = pb::aggregateSpans(pb::Tracer::instance().drain());
        const double plainRate = static_cast<double>(phases[0].bundles) /
                                 phases[0].seconds;
        const double tracedRate = static_cast<double>(phases[1].bundles) /
                                  phases[1].seconds;
        out.num("trace.overhead_frac", plainRate / tracedRate - 1.0);
        auto meanMs = [&](const std::string &name) {
            const auto it = layers.find(name);
            return it == layers.end() || it->second.count == 0
                       ? 0.0
                       : static_cast<double>(it->second.totalNs) / 1e6 /
                             static_cast<double>(it->second.count);
        };
        out.num("eval.make_problem_ms", meanMs("eval.make_problem"));
        out.num("eval.score_ms", meanMs("eval.score"));
        for (const core::Allocator *m : plain)
            out.num("core.allocate_ms." + m->name(),
                    meanMs("core.allocate." + m->name()));
        // Busy time = the bundle spans; everything but their own self
        // time (the benchmark's glue) is attributed to a layer.
        const auto root = layers.find("eval.bundle");
        const double busy =
            root == layers.end() ? 0.0
                                 : static_cast<double>(root->second.totalNs);
        const double glue =
            root == layers.end() ? 0.0
                                 : static_cast<double>(root->second.selfNs);
        out.num("trace.attributed_frac", busy > 0 ? 1.0 - glue / busy : 0.0);
    }
    reportSolver(out, fig04Stats,
                 allStats.sweepIterations > 0
                     ? allStats.solveSeconds * 1e9 /
                           static_cast<double>(allStats.sweepIterations)
                     : 0.0);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    out.str("digest", hex);
    out.num("peak_rss_mb", peakRssMb());
    out.boolean("correct", checks.errors.empty());
    out.str("check_errors", checks.joined());
    out.print();
    return 0;
}

// --- sim-epochs -------------------------------------------------------

sim::EpochSimConfig
machine(std::uint64_t seed)
{
    sim::EpochSimConfig cfg = sim::EpochSimConfig::forCores(kCores);
    cfg.epochs = kSimEpochs;
    cfg.warmupEpochs = kSimWarmup;
    cfg.cmp.accessesPerEpochPerCore = 8000;
    cfg.seed = seed;
    return cfg;
}

int
runSim(const Options &opt, std::int64_t t0)
{
    Checks checks;
    const workloads::ClassifiedCatalog catalog = workloads::classifyCatalog();
    const std::int64_t profiled = pb::nowNs();
    std::vector<std::vector<app::AppParams>> bundles;
    for (const auto cat : workloads::kAllCategories) {
        const auto b =
            workloads::generateBundles(catalog, cat, kCores, 1, kFig05Seed);
        std::vector<app::AppParams> apps;
        for (const auto &name : b.front().appNames)
            apps.push_back(app::findCatalogProfile(name).params);
        bundles.push_back(std::move(apps));
    }
    const double setupS = static_cast<double>(pb::nowNs() - t0) / 1e9;
    pb::JsonLine out;
    out.num("setup_s", setupS);
    out.num("app.catalog_profile_s",
            static_cast<double>(profiled - t0) / 1e9);
    if (opt.setupOnly) {
        out.print();
        return 0;
    }

    const core::EqualBudgetAllocator equalBudget;
    const auto rb20 = core::ReBudgetAllocator::withStep(20);
    const TimedAllocator timedEqual(equalBudget);
    const TimedAllocator timedRb20(rb20);
    const std::vector<const core::Allocator *> plain = {&equalBudget, &rb20};
    const std::vector<const core::Allocator *> traced = {&timedEqual,
                                                         &timedRb20};
    const std::size_t tasks = bundles.size() * plain.size();
    const sim::EpochSimConfig cfg = machine(opt.seed);
    util::ThreadPool pool(opt.jobs);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencies;
    std::vector<std::uint64_t> firstPass(tasks, 0);
    util::SolverStats firstStats;
    std::int64_t firstIterations = 0;
    std::int64_t fallbackEpochs = 0;

    // Passes of all twelve simulations run until the time is used.
    // Traced runs alternate pass by pass between tracing off and on, so
    // both halves see the same machine and differ only by the spans.
    struct Phase
    {
        double seconds = 0.0;
        std::uint64_t sims = 0;
    };
    Phase phases[2]; // [0] untraced, [1] traced
    std::int64_t failedAllocations = 0;
    double elapsed = 0.0;
    for (std::uint64_t pass = 0;
         elapsed < opt.seconds || (opt.trace && pass < 2); ++pass) {
        const bool tracing = opt.trace && pass % 2 == 1;
        const auto &mechs = tracing ? traced : plain;
        std::vector<sim::SimResult> results(tasks);
        std::vector<double> lat(tasks);
        pb::Tracer::instance().enable(tracing);
        const std::int64_t start = pb::nowNs();
        pool.parallelFor(tasks, [&](std::size_t i) {
            const pb::Span span("sim.task");
            const std::int64_t s0 = pb::nowNs();
            sim::EpochSimulator simulator(cfg, bundles[i / plain.size()],
                                          *mechs[i % plain.size()]);
            {
                const pb::Span run("sim.run");
                results[i] = simulator.run();
            }
            lat[i] = static_cast<double>(pb::nowNs() - s0) / 1e3;
        });
        const double wall = static_cast<double>(pb::nowNs() - start) / 1e9;
        pb::Tracer::instance().enable(false);
        elapsed += wall;
        phases[tracing ? 1 : 0].seconds += wall;
        phases[tracing ? 1 : 0].sims += tasks;
        attempted += tasks;
        for (std::size_t i = 0; i < tasks; ++i) {
            const sim::SimResult &r = results[i];
            failedAllocations += r.failedAllocations;
            const bool bad =
                r.failedAllocations != 0 || r.epochs.size() != kSimEpochs;
            failed += bad ? 1 : 0;
            checks.expect(!bad, "simulation " + std::to_string(i) +
                                    " had " +
                                    std::to_string(r.failedAllocations) +
                                    " failed allocations");
            std::uint64_t h = foldDouble(kFnvBasis, r.meanEfficiency);
            h = foldDouble(h, r.envyFreeness);
            for (const auto &e : r.epochs)
                h = fold(h, static_cast<std::uint64_t>(e.marketIterations));
            if (pass != 0) {
                checks.expect(firstPass[i] == h,
                              "simulation " + std::to_string(i) +
                                  " differs from the first pass");
                continue;
            }
            firstPass[i] = h;
            firstStats.merge(r.solverStats);
            for (const auto &e : r.epochs)
                firstIterations += e.marketIterations;
            fallbackEpochs += r.solverStats.fallbackEpochs;
        }
        if (!tracing)
            latencies.insert(latencies.end(), lat.begin(), lat.end());
    }

    const double rate =
        static_cast<double>(phases[0].sims) / phases[0].seconds;
    out.integer("rate_samples", static_cast<std::int64_t>(phases[0].sims));
    const double epochsPerSim = kSimEpochs + kSimWarmup;
    out.integer("attempted", static_cast<std::int64_t>(attempted));
    out.integer("failed", static_cast<std::int64_t>(failed));
    out.num("failed_frac", pb::failedFrac(failed, attempted));
    out.num("ops_per_s", rate);
    out.num("epochs_per_s", rate * epochsPerSim);
    out.num("p50_us", median(latencies));
    out.integer("samples", static_cast<std::int64_t>(latencies.size()));

    if (opt.trace) {
        // Solo calibration runs inside every simulation; time it once
        // per bundle through its public entry point.
        pb::Tracer::instance().enable(true);
        for (const auto &apps : bundles) {
            const pb::Span span("sim.solo_calibration");
            (void)sim::EpochSimulator::soloPerformances(cfg, apps);
        }
        pb::Tracer::instance().enable(false);
        const auto layers = pb::aggregateSpans(pb::Tracer::instance().drain());
        const double tracedRate =
            static_cast<double>(phases[1].sims) / phases[1].seconds;
        out.num("trace.overhead_frac", rate / tracedRate - 1.0);
        auto get = [&](const std::string &name) {
            const auto it = layers.find(name);
            return it == layers.end() ? pb::LayerTime{} : it->second;
        };
        const pb::LayerTime run = get("sim.run");
        out.num("sim.self_ms_per_epoch",
                static_cast<double>(run.selfNs) / 1e6 /
                    (static_cast<double>(phases[1].sims) * epochsPerSim));
        const pb::LayerTime solo = get("sim.solo_calibration");
        out.num("sim.solo_calibration_ms",
                solo.count ? static_cast<double>(solo.totalNs) / 1e6 /
                                 static_cast<double>(solo.count)
                           : 0.0);
        for (const core::Allocator *m : plain) {
            const pb::LayerTime a = get("core.allocate." + m->name());
            out.num("core.allocate_ms." + m->name(),
                    a.count ? static_cast<double>(a.totalNs) / 1e6 /
                                  static_cast<double>(a.count)
                            : 0.0);
        }
        const pb::LayerTime task = get("sim.task");
        out.num("trace.attributed_frac",
                task.totalNs > 0 ? 1.0 - static_cast<double>(task.selfNs) /
                                             static_cast<double>(task.totalNs)
                                 : 0.0);
    }
    out.integer("sim.market_iterations", firstIterations);
    out.integer("sim.failed_allocations", failedAllocations);
    out.integer("sim.fallback_epochs", fallbackEpochs);
    reportSolver(out, firstStats,
                 firstStats.sweepIterations > 0
                     ? firstStats.solveSeconds * 1e9 /
                           static_cast<double>(firstStats.sweepIterations)
                     : 0.0);
    std::uint64_t digest = kFnvBasis;
    for (const std::uint64_t h : firstPass)
        digest = fold(digest, h);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    out.str("digest", hex);
    out.num("peak_rss_mb", peakRssMb());
    out.boolean("correct", checks.errors.empty());
    out.str("check_errors", checks.joined());
    out.print();
    return 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        auto number = [&](std::uint64_t max) {
            const auto v = util::parseUnsigned(value(), max);
            if (!v.ok())
                util::fatal("%s: %s", arg.c_str(),
                            v.status().message().c_str());
            return v.value();
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = number(~0ull);
        else if (arg == "--seconds")
            opt.seconds = [&] {
                const auto v = util::parseDouble(value());
                if (!v.ok() || !(v.value() > 0.0 && v.value() <= 3600.0))
                    util::fatal("--seconds: want a number in (0, 3600]");
                return v.value();
            }();
        else if (arg == "--trace")
            opt.trace = number(1) == 1;
        else if (arg == "--jobs")
            opt.jobs = static_cast<unsigned>(number(256));
        else if (arg == "--setup-only")
            opt.setupOnly = true;
        else
            util::fatal("unknown argument '%s'", arg.c_str());
    }
    if (opt.jobs == 0)
        opt.jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t t0 = pb::nowNs();
    const Options opt = parseArgs(argc, argv);
    int rc = 0;
    if (opt.workload == "eval-sweep")
        rc = runEval(opt, t0);
    else if (opt.workload == "sim-epochs")
        rc = runSim(opt, t0);
    else
        util::fatal("unknown workload '%s'", opt.workload.c_str());
    return rc;
}
