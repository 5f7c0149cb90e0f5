#include "rebudget/util/rng.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "rebudget/util/logging.h"

namespace rebudget::util {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashId(std::string_view s)
{
    // FNV-1a, then one mix64 pass to spread the low bits.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return mix64(h);
}

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

Rng
Rng::forStream(uint64_t seed, std::initializer_list<uint64_t> keys)
{
    // Fold the keys into the seed one mix at a time; every prefix yields
    // a distinct, well-mixed state, so (a, b) and (b, a) differ.
    uint64_t h = mix64(seed);
    for (const uint64_t k : keys)
        h = mix64(h ^ mix64(k));
    return Rng(h);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    REBUDGET_ASSERT(n > 0, "uniformInt requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    REBUDGET_ASSERT(lo <= hi, "uniformInt requires lo <= hi");
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(uniformInt(span));
}

double
Rng::normal(double mean, double stddev)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mean + stddev * spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal_ = true;
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::exponential(double rate)
{
    REBUDGET_ASSERT(rate > 0.0, "exponential requires rate > 0");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

Rng
Rng::split()
{
    return Rng(next());
}

ZipfSampler::ZipfSampler(size_t n, double alpha)
{
    if (n == 0)
        fatal("ZipfSampler requires a non-empty population");
    if (n > kMaxPopulation)
        fatal("ZipfSampler population %zu exceeds 2^32", n);
    if (alpha < 0.0)
        fatal("ZipfSampler requires alpha >= 0 (got %f)", alpha);
    tables_ = sharedTables(n, alpha);
}

std::unique_ptr<ZipfSampler::Tables>
ZipfSampler::buildTables(size_t n, double alpha)
{
    auto tables = std::make_unique<Tables>();
    auto &cdf = tables->cdf;
    cdf.resize(n);
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
        cdf[k] = sum;
    }
    for (auto &c : cdf)
        c /= sum;
    cdf.back() = 1.0; // guard against rounding

    const size_t buckets = std::bit_ceil(n);
    tables->buckets = static_cast<double>(buckets);
    tables->guide.resize(buckets + 1);
    size_t rank = 0;
    for (size_t j = 0; j <= buckets; ++j) {
        const double edge = static_cast<double>(j) / tables->buckets;
        while (rank < n - 1 && cdf[rank] < edge)
            ++rank;
        tables->guide[j] = static_cast<uint32_t>(rank);
    }
    return tables;
}

std::shared_ptr<const ZipfSampler::Tables>
ZipfSampler::sharedTables(size_t n, double alpha)
{
    // Weak memo: generators with the same (n, alpha) -- every core
    // running the same application -- share one table.  The last
    // sampler to go frees the table and erases its entry, so nothing
    // outlives it.  The memo itself is never destroyed, so a sampler
    // released during static destruction still finds it.
    using Key = std::pair<size_t, uint64_t>;
    struct Memo
    {
        std::mutex mutex;
        std::map<Key, std::weak_ptr<const Tables>> entries;
    };
    static Memo &memo = *new Memo;
    uint64_t alpha_bits = 0;
    std::memcpy(&alpha_bits, &alpha, sizeof alpha_bits);
    const Key key{n, alpha_bits};
    {
        const std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = memo.entries.find(key);
        if (it != memo.entries.end()) {
            if (auto hit = it->second.lock())
                return hit;
        }
    }

    // Built and wrapped outside the lock, which the deleter takes.
    const std::shared_ptr<const Tables> built(
        buildTables(n, alpha).release(), [key](const Tables *t) {
            delete t;
            const std::lock_guard<std::mutex> lock(memo.mutex);
            const auto it = memo.entries.find(key);
            if (it != memo.entries.end() && it->second.expired())
                memo.entries.erase(it);
        });
    const std::lock_guard<std::mutex> lock(memo.mutex);
    auto &slot = memo.entries[key];
    if (auto raced = slot.lock())
        return raced; // `built` is dropped after the lock is released
    slot = built;
    return built;
}

double
ZipfSampler::pmf(size_t k) const
{
    const auto &cdf = tables_->cdf;
    REBUDGET_ASSERT(k < cdf.size(), "pmf rank out of range");
    return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

} // namespace rebudget::util
