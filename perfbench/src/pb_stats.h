#ifndef PERFBENCH_PB_STATS_H_
#define PERFBENCH_PB_STATS_H_

/**
 * @file
 * The benchmark's own arithmetic, kept in one header so that
 * stats_test.cpp can pin it: nearest-rank percentiles and the rule of
 * ten samples beyond a reported percentile, self time as a span minus
 * the union of its children, latency timed from a request's due time,
 * and the failed fraction with its base.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pb {

/** Samples that must lie beyond a percentile before it is reported. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** @return the 0-based index of the nearest-rank @p q quantile of
 * @p n sorted samples (rank ceil(q*n), at least 1). */
inline std::size_t
rankIndex(std::size_t n, double q)
{
    if (n == 0)
        throw std::invalid_argument("rankIndex: no samples");
    const double rank = std::ceil(q * static_cast<double>(n));
    const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
    return std::min(r, n) - 1;
}

/** @return how many of @p n samples lie strictly beyond the nearest-rank
 * @p q quantile. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - 1 - rankIndex(n, q);
}

/** @return true when the @p q quantile of @p n samples has at least
 * kMinSamplesBeyond samples beyond it. */
inline bool
reportable(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= kMinSamplesBeyond;
}

/** Nearest-rank @p q quantile of @p samples (reorders the vector). */
inline double
percentile(std::vector<double> &samples, double q)
{
    const std::size_t k = rankIndex(samples.size(), q);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

/** A closed-open time interval [start, end) in nanoseconds. */
struct Interval
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** @return the length of the union of @p parts clipped to @p within. */
inline std::int64_t
coveredLength(std::vector<Interval> parts, Interval within)
{
    for (Interval &p : parts) {
        p.start = std::max(p.start, within.start);
        p.end = std::min(p.end, within.end);
    }
    std::sort(parts.begin(), parts.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    std::int64_t covered = 0;
    std::int64_t reach = within.start;
    for (const Interval &p : parts) {
        if (p.end <= p.start)
            continue;
        const std::int64_t from = std::max(p.start, reach);
        if (p.end > from) {
            covered += p.end - from;
            reach = p.end;
        }
    }
    return covered;
}

/** Self time: the span's duration minus the part of it its children
 * cover (overlapping children count once). */
inline std::int64_t
selfTime(Interval span, const std::vector<Interval> &children)
{
    return (span.end - span.start) - coveredLength(children, span);
}

/**
 * Open-loop latency of one request: from the moment it was due to be
 * sent, not the moment it was sent, so a stall that delays later sends
 * is charged to them.  @p sent is only used to reject a time-travelling
 * sample.
 */
inline std::int64_t
dueLatency(std::int64_t due, std::int64_t sent, std::int64_t done)
{
    if (sent < due || done < sent)
        throw std::invalid_argument("dueLatency: timestamps out of order");
    return done - due;
}

/** Failed operations over attempted ones; the base must be nonzero. */
inline double
failedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    if (attempted == 0)
        throw std::invalid_argument("failedFrac: nothing attempted");
    if (failed > attempted)
        throw std::invalid_argument("failedFrac: failed > attempted");
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

} // namespace pb

#endif // PERFBENCH_PB_STATS_H_
