#ifndef REBUDGET_UTIL_RNG_H_
#define REBUDGET_UTIL_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (trace generators, workload
 * bundle construction, tie-breaking) draw from Rng so that every
 * experiment is exactly reproducible from a seed.  The core generator is
 * xoshiro256++ (public domain, Blackman & Vigna), chosen for speed and
 * statistical quality.
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <vector>

namespace rebudget::util {

/** splitmix64 finalizer: a fast, well-mixed 64-bit hash step. */
uint64_t mix64(uint64_t x);

/**
 * Stable 64-bit id for a string (FNV-1a folded through mix64).  Used to
 * key deterministic RNG streams by bundle or run name.
 */
uint64_t hashId(std::string_view s);

/** Deterministic xoshiro256++ generator with distribution helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, n) (n must be > 0). */
    uint64_t uniformInt(uint64_t n);

    /** @return a uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** @return true with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** @return a sample from a normal distribution (Box-Muller). */
    double normal(double mean, double stddev);

    /** @return an exponential sample with the given rate. */
    double exponential(double rate);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            const size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Fork a new independent generator (stream split). */
    Rng split();

    /**
     * Deterministic named sub-stream: an independent generator keyed by
     * (seed, key0, key1, ...).  Unlike split(), the result depends only
     * on the keys, never on generator state, so concurrent consumers
     * (parallel sweep workers, per-player fault streams) obtain
     * bit-identical streams regardless of evaluation order or job
     * count.  Distinct key tuples yield independent streams.
     */
    static Rng forStream(uint64_t seed,
                         std::initializer_list<uint64_t> keys);

  private:
    uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * Precomputed Zipf(alpha) sampler over {0, ..., n-1}.
 *
 * Uses an inverse-CDF table searched through a guide table (Chen and
 * Asau): m = 2^k >= n buckets, where bucket j holds the rank of the
 * first CDF entry >= j/m.  Because m is a power of two, u*m and j/m are
 * exact, so a draw u in bucket j = floor(u*m) has its rank pinned to
 * [guide[j], guide[j+1]] and a binary search of that range returns
 * exactly the rank a search of the whole CDF would.  Construction is
 * O(n); a draw searches about one CDF entry.  alpha == 0 degenerates to
 * the uniform distribution.
 *
 * The tables are immutable and shared by every sampler with the same
 * (n, alpha) that is alive at the same time; the last sampler to go
 * frees them.
 */
class ZipfSampler
{
  public:
    /** Largest supported population (ranks are stored in 32 bits). */
    static constexpr uint64_t kMaxPopulation = uint64_t{1} << 32;

    /**
     * @param n     population size (> 0, <= kMaxPopulation)
     * @param alpha skew exponent (>= 0)
     */
    ZipfSampler(size_t n, double alpha);

    /** Draw one sample in [0, n). */
    size_t
    sample(Rng &rng) const
    {
        return rankOf(rng.uniform());
    }

    /**
     * @return the rank a uniform draw u in [0, 1) maps to: the first k
     * with cdf()[k] >= u.
     */
    size_t
    rankOf(double u) const
    {
        const Tables &t = *tables_;
        const auto j = static_cast<size_t>(u * t.buckets);
        const double *cdf = t.cdf.data();
        return static_cast<size_t>(
            std::lower_bound(cdf + t.guide[j], cdf + t.guide[j + 1], u) -
            cdf);
    }

    /** @return the population size. */
    size_t size() const { return tables_->cdf.size(); }

    /** @return probability mass of rank k. */
    double pmf(size_t k) const;

    /** @return the cumulative distribution, one entry per rank. */
    const std::vector<double> &cdf() const { return tables_->cdf; }

    /** @return the number of guide-table buckets (a power of two). */
    size_t buckets() const { return tables_->guide.size() - 1; }

  private:
    struct Tables
    {
        std::vector<double> cdf;
        // guide[j] = first rank with cdf >= j / buckets, j = 0..buckets.
        std::vector<uint32_t> guide;
        double buckets = 0.0;
    };

    static std::unique_ptr<Tables> buildTables(size_t n, double alpha);
    static std::shared_ptr<const Tables> sharedTables(size_t n,
                                                      double alpha);

    std::shared_ptr<const Tables> tables_;
};

} // namespace rebudget::util

#endif // REBUDGET_UTIL_RNG_H_
