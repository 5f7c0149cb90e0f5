#include "rebudget/market/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

namespace rebudget::market {
namespace {

std::unique_ptr<PowerLawUtility>
model2(double w0, double w1)
{
    return std::make_unique<PowerLawUtility>(
        std::vector<double>{w0, w1}, std::vector<double>{0.5, 0.5},
        std::vector<double>{10.0, 10.0});
}

TEST(Efficiency, SumsUtilities)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{10.0, 10.0}, {0.0, 0.0}};
    EXPECT_NEAR(efficiency(models, alloc), 1.0, 1e-12);
    const auto utils = perPlayerUtilities(models, alloc);
    EXPECT_NEAR(utils[0], 1.0, 1e-12);
    EXPECT_NEAR(utils[1], 0.0, 1e-12);
}

TEST(EfficiencyDeathTest, MismatchedArityAsserts)
{
    // Parallel-array mismatches are caller bugs, not data errors: they
    // trip the always-on assert rather than the recoverable path.
    const auto a = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get()};
    EXPECT_DEATH(efficiency(models, {}), "players/allocations mismatch");
}

TEST(EnvyFreeness, EqualSplitIsEnvyFree)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{5.0, 5.0}, {5.0, 5.0}};
    EXPECT_DOUBLE_EQ(envyFreeness(models, alloc), 1.0);
}

TEST(EnvyFreeness, StarvedPlayerEnvies)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{9.0, 9.0}, {1.0, 1.0}};
    // Player 1's own utility vs. what it would get with player 0's
    // bundle: sqrt(0.1)/sqrt(0.9).
    EXPECT_NEAR(envyFreeness(models, alloc),
                std::sqrt(0.1) / std::sqrt(0.9), 1e-9);
}

TEST(EnvyFreeness, SpecializedAllocationCanBeEnvyFree)
{
    // Each player holds exactly what it values: no envy despite unequal
    // bundles.
    const auto a = model2(1, 0.0001);
    const auto b = model2(0.0001, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{10.0, 0.0}, {0.0, 10.0}};
    EXPECT_GT(envyFreeness(models, alloc), 0.99);
}

TEST(EnvyFreeness, NeverExceedsOne)
{
    const auto a = model2(2, 1);
    const auto b = model2(1, 3);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{3.0, 7.0}, {7.0, 3.0}};
    EXPECT_LE(envyFreeness(models, alloc), 1.0);
}

// --- ownAndBestUtilities against the naive N x N loop ----------------

/** The N x N scoring loop the kernel replaced, kept as the reference. */
OwnAndBest
naiveOwnAndBest(const std::vector<const UtilityModel *> &models,
                const util::Matrix<double> &alloc)
{
    OwnAndBest ref;
    for (size_t i = 0; i < models.size(); ++i) {
        const double own = models[i]->utility(alloc[i]);
        double best = own;
        for (size_t j = 0; j < alloc.size(); ++j) {
            if (j != i)
                best = std::max(best, models[i]->utility(alloc[j]));
        }
        ref.own.push_back(own);
        ref.best.push_back(best);
    }
    return ref;
}

double
naiveEfficiency(const std::vector<const UtilityModel *> &models,
                const util::Matrix<double> &alloc)
{
    double sum = 0.0;
    for (size_t i = 0; i < models.size(); ++i)
        sum += models[i]->utility(alloc[i]);
    return sum;
}

double
naiveEnvyFreeness(const std::vector<const UtilityModel *> &models,
                  const util::Matrix<double> &alloc)
{
    const OwnAndBest ref = naiveOwnAndBest(models, alloc);
    double ef = 1.0;
    for (size_t i = 0; i < ref.own.size(); ++i) {
        if (ref.best[i] <= 0.0)
            continue;
        ef = std::min(ef, ref.own[i] / ref.best[i]);
    }
    return ef;
}

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Zero everywhere (the envy-freeness skip path), with the sign of r_0. */
class FlatZeroUtility : public UtilityModel
{
  public:
    explicit FlatZeroUtility(size_t resources) : resources_(resources) {}
    size_t numResources() const override { return resources_; }
    double
    utility(std::span<const double> alloc) const override
    {
        return std::copysign(0.0, alloc[0]);
    }

  private:
    size_t resources_;
};

/**
 * -1 when r_0 >= 5, else a zero with the sign of r_0.  From own = -1
 * the first zero the fold meets wins (0.0 == -0.0 never replaces it),
 * so `best`'s sign pins the order in which rows are folded.
 */
class ZeroSignUtility : public UtilityModel
{
  public:
    explicit ZeroSignUtility(size_t resources) : resources_(resources) {}
    size_t numResources() const override { return resources_; }
    double
    utility(std::span<const double> alloc) const override
    {
        return alloc[0] >= 5.0 ? -1.0 : std::copysign(0.0, alloc[0]);
    }

  private:
    size_t resources_;
};

/** Tells apart rows that differ only in the sign of a zero r_0. */
class SignSensitiveUtility : public UtilityModel
{
  public:
    explicit SignSensitiveUtility(size_t resources)
        : resources_(resources)
    {
    }
    size_t numResources() const override { return resources_; }
    double
    utility(std::span<const double> alloc) const override
    {
        return (std::signbit(alloc[0]) ? 0.5 : 0.25) + 0.01 * alloc[1];
    }

  private:
    size_t resources_;
};

/** Counts utility() calls on a wrapped model. */
class CountingUtility : public UtilityModel
{
  public:
    explicit CountingUtility(const UtilityModel &inner) : inner_(inner) {}
    size_t numResources() const override { return inner_.numResources(); }
    double
    utility(std::span<const double> alloc) const override
    {
        ++calls;
        return inner_.utility(alloc);
    }
    mutable size_t calls = 0;

  private:
    const UtilityModel &inner_;
};

struct Roster
{
    std::vector<std::unique_ptr<UtilityModel>> owned;
    std::vector<const UtilityModel *> models;
    util::Matrix<double> alloc;
};

/**
 * A seeded roster of n players over `resources` resources.  Players
 * draw from a pool of models (power laws, separate copies of the same
 * power law, flat zero, zero-sign and sign-sensitive models), so pointers
 * repeat; and from a pool of rows with elements in {0, -0, 0.5 k}, plus
 * twins that differ only in the sign of their zeros, so rows repeat.
 */
Roster
randomRoster(size_t n, size_t resources, util::Rng &rng)
{
    Roster r;
    const size_t n_models = 1 + rng.uniformInt(std::min<uint64_t>(n, 24));
    std::vector<double> weights, exponents;
    for (size_t k = 0; k < n_models; ++k) {
        const uint64_t kind = rng.uniformInt(uint64_t{6});
        if (kind == 0) {
            r.owned.push_back(std::make_unique<FlatZeroUtility>(resources));
        } else if (kind == 5) {
            r.owned.push_back(std::make_unique<ZeroSignUtility>(resources));
        } else if (kind == 1) {
            r.owned.push_back(
                std::make_unique<SignSensitiveUtility>(resources));
        } else {
            if (kind == 2 || weights.empty()) {
                weights.clear();
                exponents.clear();
                for (size_t m = 0; m < resources; ++m) {
                    weights.push_back(rng.uniform(0.1, 2.0));
                    exponents.push_back(rng.uniform(0.2, 1.0));
                }
            } // else: a separate copy of the last power law
            r.owned.push_back(std::make_unique<PowerLawUtility>(
                weights, exponents, std::vector<double>(resources, 10.0)));
        }
    }

    std::vector<std::vector<double>> rows(1 + rng.uniformInt(n));
    for (auto &row : rows) {
        for (size_t m = 0; m < resources; ++m) {
            const uint64_t pick = rng.uniformInt(uint64_t{6});
            row.push_back(pick == 0   ? 0.0
                          : pick == 1 ? -0.0
                                      : 0.5 * static_cast<double>(
                                                  rng.uniformInt(
                                                      uint64_t{21})));
        }
    }
    for (size_t k = 0, size = rows.size(); k < size; ++k) {
        std::vector<double> twin = rows[k];
        bool has_zero = false;
        for (double &v : twin) {
            if (v == 0.0) {
                v = -v;
                has_zero = true;
            }
        }
        if (has_zero)
            rows.push_back(std::move(twin));
    }

    r.alloc.assign(n, resources, 0.0);
    for (size_t i = 0; i < n; ++i) {
        r.models.push_back(r.owned[rng.uniformInt(r.owned.size())].get());
        const auto &row = rows[rng.uniformInt(rows.size())];
        std::copy(row.begin(), row.end(), r.alloc.row(i));
    }
    return r;
}

TEST(OwnAndBest, MatchesNaiveLoopBitwise)
{
    for (const size_t resources : {2u, 3u}) {
        for (const size_t n : {1u, 2u, 3u, 5u, 8u, 16u, 33u, 64u, 100u,
                               256u}) {
            for (uint64_t seed = 0; seed < 6; ++seed) {
                util::Rng rng =
                    util::Rng::forStream(2016, {resources, n, seed});
                const Roster r = randomRoster(n, resources, rng);
                SCOPED_TRACE(::testing::Message()
                             << "resources " << resources << " n " << n
                             << " seed " << seed);
                const OwnAndBest got =
                    ownAndBestUtilities(r.models, r.alloc);
                const OwnAndBest ref = naiveOwnAndBest(r.models, r.alloc);
                ASSERT_EQ(got.own.size(), n);
                ASSERT_EQ(got.best.size(), n);
                for (size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(bits(got.own[i]), bits(ref.own[i]))
                        << "own, player " << i;
                    EXPECT_EQ(bits(got.best[i]), bits(ref.best[i]))
                        << "best, player " << i;
                }
                EXPECT_EQ(bits(efficiency(r.models, r.alloc)),
                          bits(naiveEfficiency(r.models, r.alloc)));
                EXPECT_EQ(bits(envyFreeness(r.models, r.alloc)),
                          bits(naiveEnvyFreeness(r.models, r.alloc)));
            }
        }
    }
}

TEST(OwnAndBest, OneCallPerDistinctModelAndRow)
{
    // Two shared models, a separate copy of the first, and three
    // distinct rows (one a signed-zero twin) over six players.
    const auto a = model2(1, 1);
    const auto a_copy = model2(1, 1);
    const auto b = model2(2, 1);
    const CountingUtility ca(*a), ca_copy(*a_copy), cb(*b);
    const std::vector<const UtilityModel *> models = {
        &ca, &cb, &ca, &ca_copy, &cb, &ca};
    const util::Matrix<double> alloc = {{1.0, 0.0}, {1.0, -0.0},
                                        {2.0, 2.0}, {1.0, 0.0},
                                        {2.0, 2.0}, {1.0, -0.0}};
    const OwnAndBest got = ownAndBestUtilities(models, alloc);
    EXPECT_EQ(ca.calls, 3u);
    EXPECT_EQ(ca_copy.calls, 3u);
    EXPECT_EQ(cb.calls, 3u);
    const OwnAndBest ref = naiveOwnAndBest(models, alloc);
    for (size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(bits(got.own[i]), bits(ref.own[i]));
        EXPECT_EQ(bits(got.best[i]), bits(ref.best[i]));
    }
}

TEST(OwnAndBest, EmptyRoster)
{
    const OwnAndBest got = ownAndBestUtilities({}, {});
    EXPECT_TRUE(got.own.empty());
    EXPECT_TRUE(got.best.empty());
    EXPECT_DOUBLE_EQ(envyFreeness({}, {}), 1.0);
}

TEST(Mur, Definition)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({1.0, 2.0, 4.0}).value(), 0.25);
    EXPECT_DOUBLE_EQ(marketUtilityRange({3.0, 3.0}).value(), 1.0);
}

TEST(Mur, AllZeroLambdasIsOne)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({0.0, 0.0}).value(), 1.0);
}

TEST(Mur, ZeroMinIsZero)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({0.0, 5.0}).value(), 0.0);
}

TEST(Mur, RejectsBadInput)
{
    const auto empty = marketUtilityRange({});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), util::StatusCode::InvalidArgument);
    const auto negative = marketUtilityRange({-1.0, 1.0});
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.status().code(), util::StatusCode::Numerical);
}

TEST(Mur, ClampsFloatingPointNoiseToZero)
{
    // An incremental-gradient lambda can undershoot zero by an ulp or
    // two (e.g. -1e-15); that is noise, not a pathological market.
    const auto mur = marketUtilityRange({-1e-15, 1.0});
    ASSERT_TRUE(mur.ok());
    EXPECT_DOUBLE_EQ(mur.value(), 0.0);
    // Same within tolerance for a large-magnitude set.
    const auto scaled = marketUtilityRange({-1e-10, 1e3});
    ASSERT_TRUE(scaled.ok());
    EXPECT_DOUBLE_EQ(scaled.value(), 0.0);
}

TEST(Mbr, Definition)
{
    EXPECT_DOUBLE_EQ(marketBudgetRange({50.0, 100.0}).value(), 0.5);
    EXPECT_DOUBLE_EQ(marketBudgetRange({100.0, 100.0}).value(), 1.0);
}

TEST(Mbr, RejectsBadInput)
{
    EXPECT_FALSE(marketBudgetRange({}).ok());
    EXPECT_FALSE(marketBudgetRange({-1.0}).ok());
}

TEST(Mbr, ClampsFloatingPointNoiseToZero)
{
    const auto mbr = marketBudgetRange({-1e-15, 100.0});
    ASSERT_TRUE(mbr.ok());
    EXPECT_DOUBLE_EQ(mbr.value(), 0.0);
}

TEST(PoaBound, Theorem1Shape)
{
    // MUR >= 1/2: PoA >= 1 - 1/(4 MUR); at MUR = 1/2 exactly 0.5.
    EXPECT_DOUBLE_EQ(poaLowerBound(0.5), 0.5);
    EXPECT_DOUBLE_EQ(poaLowerBound(1.0), 0.75);
    // MUR < 1/2: PoA >= MUR (continuous at 1/2).
    EXPECT_DOUBLE_EQ(poaLowerBound(0.3), 0.3);
    EXPECT_DOUBLE_EQ(poaLowerBound(0.0), 0.0);
}

TEST(PoaBound, MonotoneInMur)
{
    double prev = -1.0;
    for (double mur = 0.0; mur <= 1.0; mur += 0.05) {
        const double b = poaLowerBound(mur);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(PoaBound, AtLeastHalfAboveHalfMur)
{
    for (double mur = 0.5; mur <= 1.0; mur += 0.05)
        EXPECT_GE(poaLowerBound(mur), 0.5);
}

TEST(PoaBound, ClampsOutOfRangeInput)
{
    EXPECT_DOUBLE_EQ(poaLowerBound(-0.1), poaLowerBound(0.0));
    EXPECT_DOUBLE_EQ(poaLowerBound(1.1), poaLowerBound(1.0));
}

TEST(EfBound, Theorem2Shape)
{
    // MBR = 1 (equal budgets): 2*sqrt(2) - 2 = 0.828 (Lemma 3).
    EXPECT_NEAR(envyFreenessLowerBound(1.0), 0.8284271, 1e-6);
    EXPECT_DOUBLE_EQ(envyFreenessLowerBound(0.0), 0.0);
}

TEST(EfBound, MonotoneInMbr)
{
    double prev = -1.0;
    for (double mbr = 0.0; mbr <= 1.0; mbr += 0.05) {
        const double b = envyFreenessLowerBound(mbr);
        EXPECT_GT(b, prev);
        prev = b;
    }
}

TEST(EfBound, PaperReBudgetValues)
{
    // ReBudget-20 min budget 61.25 -> bound ~0.54; ReBudget-40 min
    // budget 21.25 -> bound ~0.20 (paper Section 6.2 quotes 0.53/0.19
    // from the slightly looser 2*step bound).
    EXPECT_NEAR(envyFreenessLowerBound(0.6125), 0.5399, 1e-3);
    EXPECT_NEAR(envyFreenessLowerBound(0.2125), 0.2023, 1e-3);
}

TEST(EfBound, InverseRoundTrips)
{
    for (double mbr = 0.05; mbr <= 1.0; mbr += 0.05) {
        const double ef = envyFreenessLowerBound(mbr);
        EXPECT_NEAR(mbrForEnvyFreenessTarget(ef), mbr, 1e-9);
    }
}

TEST(EfBound, InverseClampsExtremes)
{
    EXPECT_DOUBLE_EQ(mbrForEnvyFreenessTarget(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(mbrForEnvyFreenessTarget(0.9), 1.0);
}

} // namespace
} // namespace rebudget::market
