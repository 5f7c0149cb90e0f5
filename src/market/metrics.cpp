#include "rebudget/market/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "rebudget/util/logging.h"

namespace rebudget::market {

namespace {

using util::Expected;
using util::SolveStatus;
using util::StatusCode;

/**
 * min/max ratio with an FP-noise clamp: values within tolerance below
 * zero count as zero; genuinely negative values are an error.
 */
Expected<double>
clampedRange(const std::vector<double> &values, const char *what)
{
    if (values.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "%s of empty set", what);
    }
    auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
    double mn = *mn_it;
    const double mx = *mx_it;
    const double tol = 1e-9 * std::max(1.0, std::abs(mx));
    if (mn < 0.0) {
        if (mn < -tol) {
            return SolveStatus::error(StatusCode::Numerical,
                                      "%s: genuinely negative value %g",
                                      what, mn);
        }
        mn = 0.0; // FP noise (e.g. -1e-15 from the incremental gradient)
    }
    if (mx <= 0.0)
        return 1.0; // fully satiated market: no reassignment potential
    return mn / mx;
}

/** One multiply-xorshift round: spreads `x` into the high and low bits. */
inline uint64_t
mixBits(uint64_t h, uint64_t x)
{
    h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
}

/**
 * Numbers the keys of indices 0..n-1 in order of first occurrence:
 * cls[i] is the class of i's key and reps[c] the first index of class
 * c.  Open addressing over `cap` slots (a power of two >= 2n);
 * `hash(i)` and `same(a, b)` see the keys through their indices.
 * @return the number of classes.  O(n) expected.
 */
template <typename Hash, typename Same>
size_t
firstOccurrenceClasses(size_t n, Hash hash, Same same, uint32_t *slots,
                       size_t cap, uint32_t *cls, uint32_t *reps)
{
    constexpr uint32_t kEmpty = UINT32_MAX;
    std::fill(slots, slots + cap, kEmpty);
    uint32_t classes = 0;
    for (size_t i = 0; i < n; ++i) {
        for (size_t s = hash(i) & (cap - 1);; s = (s + 1) & (cap - 1)) {
            const uint32_t c = slots[s];
            if (c == kEmpty) {
                slots[s] = cls[i] = classes;
                reps[classes++] = static_cast<uint32_t>(i);
                break;
            }
            if (same(reps[c], i)) {
                cls[i] = c;
                break;
            }
        }
    }
    return classes;
}

} // namespace

/*
 * Roster audit (dynamic-tenant refactor): every player loop in this
 * file indexes PARALLEL arrays (models[i] with alloc row i, or a
 * single per-player vector), so `i` is a dense position, never an
 * identity.  Under churn the caller rebuilds these arrays in the
 * current roster's dense order each epoch, which keeps the loops
 * correct by construction; anything lifetime-scoped is accumulated by
 * identity upstream (eval/churn.cpp) and reaches this layer as
 * positionally-aligned vectors (see lifetimeEnvyFreeness).  No loop
 * here assumes player == stable id.
 */

std::vector<double>
perPlayerUtilities(const std::vector<const UtilityModel *> &models,
                   const util::Matrix<double> &alloc)
{
    REBUDGET_ASSERT(models.size() == alloc.size(),
                    "perPlayerUtilities: players/allocations mismatch");
    std::vector<double> utils(models.size());
    for (size_t i = 0; i < models.size(); ++i)
        utils[i] = models[i]->utility(alloc[i]);
    return utils;
}

double
OwnAndBest::efficiency() const
{
    double sum = 0.0;
    for (const double u : own)
        sum += u;
    return sum;
}

double
OwnAndBest::envyFreeness() const
{
    return lifetimeEnvyFreeness(own, best);
}

OwnAndBest
ownAndBestUtilities(const std::vector<const UtilityModel *> &models,
                    const util::Matrix<double> &alloc)
{
    REBUDGET_ASSERT(models.size() == alloc.size(),
                    "ownAndBestUtilities: players/allocations mismatch");
    const size_t n = models.size();
    REBUDGET_ASSERT(n < UINT32_MAX, "ownAndBestUtilities: too many players");
    const size_t cols = alloc.cols();
    size_t cap = 2;
    while (cap < 2 * n)
        cap <<= 1;
    // One buffer: model class and row class per player, the first
    // player of each model and row class, and the hash slots.
    std::vector<uint32_t> buffer(4 * n + cap);
    uint32_t *model_of = buffer.data();
    uint32_t *row_of = model_of + n;
    uint32_t *model_reps = row_of + n;
    uint32_t *row_reps = model_reps + n;
    uint32_t *slots = row_reps + n;
    const size_t n_models = firstOccurrenceClasses(
        n,
        [&](size_t i) {
            return mixBits(0, reinterpret_cast<uintptr_t>(models[i]));
        },
        [&](size_t a, size_t b) { return models[a] == models[b]; }, slots,
        cap, model_of, model_reps);
    const size_t n_rows = firstOccurrenceClasses(
        n,
        [&](size_t i) {
            const double *row = alloc.row(i);
            uint64_t h = 0;
            for (size_t c = 0; c < cols; ++c) {
                uint64_t bits = 0;
                std::memcpy(&bits, row + c, sizeof bits);
                h = mixBits(h, bits);
            }
            return h;
        },
        [&](size_t a, size_t b) {
            return cols == 0 || std::memcmp(alloc.row(a), alloc.row(b),
                                            cols * sizeof(double)) == 0;
        },
        slots, cap, row_of, row_reps);

    // One distinct model at a time: its utility at every distinct row
    // (one call per distinct pair), then the players holding it.  Rows
    // are classed in first-occurrence order, so each player's fold is
    // the naive j = 0..N-1 fold minus repeated rows; a repeat never
    // wins a strict `<`, hence the same bits (signed zeros and NaNs
    // included).
    OwnAndBest out;
    out.own.resize(n);
    out.best.resize(n);
    std::vector<double> u(n_rows);
    for (size_t m = 0; m < n_models; ++m) {
        const UtilityModel &model = *models[model_reps[m]];
        for (size_t r = 0; r < n_rows; ++r)
            u[r] = model.utility(alloc[row_reps[r]]);
        for (size_t i = model_reps[m]; i < n; ++i) {
            if (model_of[i] != m)
                continue;
            const double own = u[row_of[i]];
            double best = own;
            for (const double v : u)
                best = std::max(best, v);
            out.own[i] = own;
            out.best[i] = best;
        }
    }
    return out;
}

double
efficiency(const std::vector<const UtilityModel *> &models,
           const util::Matrix<double> &alloc)
{
    double sum = 0.0;
    for (double u : perPlayerUtilities(models, alloc))
        sum += u;
    return sum;
}

double
envyFreeness(const std::vector<const UtilityModel *> &models,
             const util::Matrix<double> &alloc)
{
    return ownAndBestUtilities(models, alloc).envyFreeness();
}

util::Expected<double>
marketUtilityRange(const std::vector<double> &lambdas)
{
    return clampedRange(lambdas, "marketUtilityRange");
}

util::Expected<double>
marketBudgetRange(const std::vector<double> &budgets)
{
    return clampedRange(budgets, "marketBudgetRange");
}

double
lifetimeEnvyFreeness(const std::vector<double> &own,
                     const std::vector<double> &best_other)
{
    REBUDGET_ASSERT(own.size() == best_other.size(),
                    "lifetimeEnvyFreeness: tenant array mismatch");
    double ef = 1.0;
    for (size_t i = 0; i < own.size(); ++i) {
        if (best_other[i] <= 0.0)
            continue; // zero utility everywhere: nothing to envy
        ef = std::min(ef, own[i] / best_other[i]);
    }
    return ef;
}

double
poaLowerBound(double mur)
{
    mur = std::clamp(mur, 0.0, 1.0);
    if (mur >= 0.5)
        return 1.0 - 1.0 / (4.0 * mur);
    return mur;
}

double
envyFreenessLowerBound(double mbr)
{
    mbr = std::clamp(mbr, 0.0, 1.0);
    return 2.0 * std::sqrt(1.0 + mbr) - 2.0;
}

double
mbrForEnvyFreenessTarget(double target_ef)
{
    if (target_ef < 0.0)
        return 0.0;
    const double half = (target_ef + 2.0) / 2.0;
    const double mbr = half * half - 1.0;
    return std::clamp(mbr, 0.0, 1.0);
}

} // namespace rebudget::market
