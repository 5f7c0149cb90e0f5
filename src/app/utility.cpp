#include "rebudget/app/utility.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"
#include "rebudget/util/piecewise.h"

namespace rebudget::app {

namespace {

/**
 * @return the index of the first knot that is non-finite or not
 * strictly above its predecessor, or knots.size() when the axis is a
 * valid grid axis.  A repeated knot would give cellIndex() a
 * zero-width cell, and interpolating across it divides by zero.
 */
size_t
firstBadKnot(const std::vector<double> &knots)
{
    for (size_t i = 0; i < knots.size(); ++i) {
        if (!std::isfinite(knots[i]) || (i > 0 && knots[i] <= knots[i - 1]))
            return i;
    }
    return knots.size();
}

/** Fatal naming the offending knot unless `knots` strictly increase. */
void
requireStrictlyIncreasing(const std::vector<double> &knots,
                          const char *axis)
{
    const size_t bad = firstBadKnot(knots);
    if (bad == knots.size())
        return;
    if (!std::isfinite(knots[bad]))
        util::fatal("%s knot %zu (%g) must be finite", axis, bad,
                    knots[bad]);
    util::fatal("%s knots must be strictly increasing: knot %zu (%g) "
                "is not above knot %zu (%g)",
                axis, bad, knots[bad], bad - 1, knots[bad - 1]);
}

} // namespace

GridSanitizeReport
sanitizeUtilityGrid(std::vector<double> &grid, size_t nc, size_t np)
{
    REBUDGET_ASSERT(grid.size() == nc * np, "grid size mismatch");
    GridSanitizeReport report;

    // Non-finite cells take the last finite value in row-major scan
    // order (zero when the grid starts with a hole); the monotone
    // projection below then restores shape around the patch.
    double prev = 0.0;
    for (auto &v : grid) {
        if (!std::isfinite(v)) {
            v = prev;
            ++report.nonFiniteCells;
        }
        prev = v;
    }

    for (auto &v : grid) {
        if (v < 0.0) {
            v = 0.0;
            ++report.negativeCells;
        }
    }

    // Enforce monotone non-decreasing along both axes (running max),
    // cache axis first, then power: the exact projection the profile
    // constructor has always applied, so clean grids pass unchanged.
    for (size_t pi = 0; pi < np; ++pi) {
        for (size_t ci = 1; ci < nc; ++ci) {
            const double below = grid[(ci - 1) * np + pi];
            if (grid[ci * np + pi] < below) {
                grid[ci * np + pi] = below;
                ++report.monotoneRaised;
            }
        }
    }
    for (size_t ci = 0; ci < nc; ++ci) {
        for (size_t pi = 1; pi < np; ++pi) {
            const double left = grid[ci * np + pi - 1];
            if (grid[ci * np + pi] < left) {
                grid[ci * np + pi] = left;
                ++report.monotoneRaised;
            }
        }
    }

    if (!grid.empty()) {
        const auto [lo, hi] = std::minmax_element(grid.begin(), grid.end());
        report.flatGrid = *lo == *hi;
    }
    return report;
}

std::vector<double>
concavifySamples(const std::vector<double> &xs, const std::vector<double> &ys)
{
    const util::PiecewiseLinear hull =
        util::PiecewiseLinear(xs, ys).concaveMajorant();
    std::vector<double> out(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        out[i] = hull.eval(xs[i]);
    return out;
}

AppUtilityModel::AppUtilityModel(const AppProfile &profile,
                                 const power::PowerModel &power,
                                 const UtilityGridOptions &options)
    : name_(profile.params.name), activity_(profile.params.activity),
      minRegions_(options.minRegions)
{
    if (options.cacheRegions.size() < 2 || options.freqsGhz.size() < 2)
        util::fatal("utility grid needs at least 2 points per axis");
    requireStrictlyIncreasing(options.cacheRegions, "cache grid");
    requireStrictlyIncreasing(options.freqsGhz, "frequency grid");
    cacheKnots_ = options.cacheRegions;

    // Power knots: watts at each sampled frequency (strictly increasing
    // because core power is strictly increasing in frequency).
    powerKnots_.reserve(options.freqsGhz.size());
    for (double f : options.freqsGhz)
        powerKnots_.push_back(power.corePower(f, activity_));
    minWatts_ = powerKnots_.front();

    // Sample the 90-point utility grid: performance normalized to the
    // run-alone configuration (all monitored cache, max frequency).
    const size_t nc = cacheKnots_.size();
    const size_t np = powerKnots_.size();
    const bool hull = options.convexify;
    const double perf_alone =
        profile.perfAlone(options.freqsGhz.back(), hull);
    if (perf_alone <= 0.0)
        util::fatal("app '%s' has zero run-alone performance",
                    name_.c_str());
    grid_.assign(nc * np, 0.0);
    for (size_t ci = 0; ci < nc; ++ci) {
        for (size_t pi = 0; pi < np; ++pi) {
            const double perf = profile.perfAt(
                cacheKnots_[ci], options.freqsGhz[pi], hull);
            grid_[ci * np + pi] = perf / perf_alone;
        }
    }

    if (options.convexify) {
        // Alternate per-axis concave majorants until stable (each pass
        // only raises values, bounded by 1, so this converges quickly).
        for (int pass = 0; pass < 4; ++pass) {
            bool changed = false;
            for (size_t pi = 0; pi < np; ++pi) { // along cache
                std::vector<double> col(nc);
                for (size_t ci = 0; ci < nc; ++ci)
                    col[ci] = grid_[ci * np + pi];
                const auto fixed = concavifySamples(cacheKnots_, col);
                for (size_t ci = 0; ci < nc; ++ci) {
                    if (fixed[ci] > col[ci] + 1e-12)
                        changed = true;
                    grid_[ci * np + pi] = fixed[ci];
                }
            }
            for (size_t ci = 0; ci < nc; ++ci) { // along power
                std::vector<double> row(np);
                for (size_t pi = 0; pi < np; ++pi)
                    row[pi] = grid_[ci * np + pi];
                const auto fixed = concavifySamples(powerKnots_, row);
                for (size_t pi = 0; pi < np; ++pi) {
                    if (fixed[pi] > row[pi] + 1e-12)
                        changed = true;
                    grid_[ci * np + pi] = fixed[pi];
                }
            }
            if (!changed)
                break;
        }
    }
    // Monotone non-decreasing along both axes plus NaN/negative guards
    // (the latter are no-ops for profile-sampled grids).
    sanitizeReport_ = sanitizeUtilityGrid(grid_, nc, np);
}

AppUtilityModel::AppUtilityModel(RawUtilityGrid raw)
    : name_(std::move(raw.name)), activity_(raw.activity),
      minRegions_(raw.minRegions), minWatts_(raw.minWatts),
      cacheKnots_(std::move(raw.cacheKnots)),
      powerKnots_(std::move(raw.powerKnots)), grid_(std::move(raw.grid))
{
    // Untrusted input: degrade to a flat zero surface over a minimal
    // valid grid instead of fataling, and say why in gridStatus().
    const auto degrade = [this](util::SolveStatus status) {
        gridStatus_ = std::move(status);
        if (!std::isfinite(minRegions_) || minRegions_ < 0.0)
            minRegions_ = 1.0;
        if (!std::isfinite(minWatts_) || minWatts_ < 0.0)
            minWatts_ = 0.0;
        if (!std::isfinite(activity_) || activity_ <= 0.0)
            activity_ = 1.0;
        cacheKnots_ = {minRegions_, minRegions_ + 1.0};
        powerKnots_ = {minWatts_, minWatts_ + 1.0};
        grid_.assign(4, 0.0);
        sanitizeReport_ = GridSanitizeReport{};
        sanitizeReport_.flatGrid = true;
    };

    if (cacheKnots_.size() < 2 || powerKnots_.size() < 2) {
        degrade(util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' needs >= 2 knots per axis (got %zu x %zu)",
            name_.c_str(), cacheKnots_.size(), powerKnots_.size()));
        return;
    }
    if (firstBadKnot(cacheKnots_) != cacheKnots_.size() ||
        firstBadKnot(powerKnots_) != powerKnots_.size()) {
        degrade(util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' knots must be finite and strictly increasing",
            name_.c_str()));
        return;
    }
    if (grid_.size() != cacheKnots_.size() * powerKnots_.size()) {
        degrade(util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' has %zu cells, expected %zu x %zu",
            name_.c_str(), grid_.size(), cacheKnots_.size(),
            powerKnots_.size()));
        return;
    }
    if (!std::isfinite(minRegions_) || minRegions_ < 0.0 ||
        !std::isfinite(minWatts_) || minWatts_ < 0.0 ||
        !std::isfinite(activity_) || activity_ <= 0.0) {
        degrade(util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' has malformed minimums or activity",
            name_.c_str()));
        return;
    }
    sanitizeReport_ =
        sanitizeUtilityGrid(grid_, cacheKnots_.size(), powerKnots_.size());
}

namespace {

// Index of the cell containing x: largest i with knots[i] <= x, clamped
// to [0, n-2] so that i+1 is always valid.
size_t
cellIndex(const std::vector<double> &knots, double x)
{
    const auto it =
        std::upper_bound(knots.begin(), knots.end(), x);
    size_t i = it == knots.begin()
                   ? 0
                   : static_cast<size_t>(it - knots.begin()) - 1;
    return std::min(i, knots.size() - 2);
}

} // namespace

double
AppUtilityModel::interpolate(double regions, double watts) const
{
    const double c =
        std::clamp(regions, cacheKnots_.front(), cacheKnots_.back());
    const double p =
        std::clamp(watts, powerKnots_.front(), powerKnots_.back());
    const size_t ci = cellIndex(cacheKnots_, c);
    const size_t pi = cellIndex(powerKnots_, p);
    const size_t np = powerKnots_.size();
    const double tx = (c - cacheKnots_[ci]) /
                      (cacheKnots_[ci + 1] - cacheKnots_[ci]);
    const double ty = (p - powerKnots_[pi]) /
                      (powerKnots_[pi + 1] - powerKnots_[pi]);
    const double u00 = grid_[ci * np + pi];
    const double u01 = grid_[ci * np + pi + 1];
    const double u10 = grid_[(ci + 1) * np + pi];
    const double u11 = grid_[(ci + 1) * np + pi + 1];
    return (1.0 - tx) * ((1.0 - ty) * u00 + ty * u01) +
           tx * ((1.0 - ty) * u10 + ty * u11);
}

double
AppUtilityModel::utility(std::span<const double> alloc) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    return interpolate(minRegions_ + std::max(0.0, alloc[kCache]),
                       minWatts_ + std::max(0.0, alloc[kPower]));
}

double
AppUtilityModel::marginal(size_t resource,
                          std::span<const double> alloc) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    REBUDGET_ASSERT(resource < 2, "resource out of range");
    const double c = minRegions_ + std::max(0.0, alloc[kCache]);
    const double p = minWatts_ + std::max(0.0, alloc[kPower]);
    if (resource == kCache && c >= cacheKnots_.back())
        return 0.0;
    if (resource == kPower && p >= powerKnots_.back())
        return 0.0;
    const double cc = std::clamp(c, cacheKnots_.front(), cacheKnots_.back());
    const double pp = std::clamp(p, powerKnots_.front(), powerKnots_.back());
    const size_t ci = cellIndex(cacheKnots_, cc);
    const size_t pi = cellIndex(powerKnots_, pp);
    const size_t np = powerKnots_.size();
    const double u00 = grid_[ci * np + pi];
    const double u01 = grid_[ci * np + pi + 1];
    const double u10 = grid_[(ci + 1) * np + pi];
    const double u11 = grid_[(ci + 1) * np + pi + 1];
    if (resource == kCache) {
        const double ty = (pp - powerKnots_[pi]) /
                          (powerKnots_[pi + 1] - powerKnots_[pi]);
        const double dx = cacheKnots_[ci + 1] - cacheKnots_[ci];
        return ((u10 - u00) * (1.0 - ty) + (u11 - u01) * ty) / dx;
    }
    const double tx = (cc - cacheKnots_[ci]) /
                      (cacheKnots_[ci + 1] - cacheKnots_[ci]);
    const double dy = powerKnots_[pi + 1] - powerKnots_[pi];
    return ((u01 - u00) * (1.0 - tx) + (u11 - u10) * tx) / dy;
}

void
AppUtilityModel::gradient(std::span<const double> alloc,
                          std::span<double> out) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    REBUDGET_ASSERT(out.size() == 2, "expected 2-resource gradient");
    // Straight-line form for the solver hot path: one shared cell
    // lookup, both axis slopes computed unconditionally, saturation
    // applied as selects at the end (no early-out branch ladder).
    // Each output equals what the per-axis branches produced: a
    // saturated axis publishes literal 0.0, an unsaturated one the
    // same slope expression over the same cell.
    const double c = minRegions_ + std::max(0.0, alloc[kCache]);
    const double p = minWatts_ + std::max(0.0, alloc[kPower]);
    const bool cache_sat = c >= cacheKnots_.back();
    const bool power_sat = p >= powerKnots_.back();
    const double cc = std::clamp(c, cacheKnots_.front(), cacheKnots_.back());
    const double pp = std::clamp(p, powerKnots_.front(), powerKnots_.back());
    const size_t ci = cellIndex(cacheKnots_, cc);
    const size_t pi = cellIndex(powerKnots_, pp);
    const size_t np = powerKnots_.size();
    const double u00 = grid_[ci * np + pi];
    const double u01 = grid_[ci * np + pi + 1];
    const double u10 = grid_[(ci + 1) * np + pi];
    const double u11 = grid_[(ci + 1) * np + pi + 1];
    const double ty = (pp - powerKnots_[pi]) /
                      (powerKnots_[pi + 1] - powerKnots_[pi]);
    const double dx = cacheKnots_[ci + 1] - cacheKnots_[ci];
    const double slope_c =
        ((u10 - u00) * (1.0 - ty) + (u11 - u01) * ty) / dx;
    const double tx = (cc - cacheKnots_[ci]) /
                      (cacheKnots_[ci + 1] - cacheKnots_[ci]);
    const double dy = powerKnots_[pi + 1] - powerKnots_[pi];
    const double slope_p =
        ((u01 - u00) * (1.0 - tx) + (u11 - u10) * tx) / dy;
    out[kCache] = cache_sat ? 0.0 : slope_c;
    out[kPower] = power_sat ? 0.0 : slope_p;
}

double
AppUtilityModel::utilityTotal(double regions, double watts) const
{
    return interpolate(regions, watts);
}

double
AppUtilityModel::gridValue(size_t ci, size_t pi) const
{
    REBUDGET_ASSERT(ci < cacheKnots_.size() && pi < powerKnots_.size(),
                    "grid index out of range");
    return grid_[ci * powerKnots_.size() + pi];
}

} // namespace rebudget::app
