#ifndef REBUDGET_CACHE_SET_INDEXER_H_
#define REBUDGET_CACHE_SET_INDEXER_H_

/**
 * @file
 * Set/tag split of a line address.
 *
 * Every cache structure maps a line address to (set, tag) =
 * (line mod sets, line div sets).  The simulated geometries are almost
 * always powers of two, where the split is a mask and a shift; the
 * indexer picks that path once, at construction, and keeps exact
 * division for the other geometries (e.g. 1.5 MB / 16 ways = 1536
 * sets), so both give the same answer as `%` and `/`.
 */

#include <bit>
#include <cstdint>

namespace rebudget::cache {

/** Splits an index into (index mod divisor, index div divisor). */
class SetIndexer
{
  public:
    /** @param divisor  number of sets (> 0) */
    explicit SetIndexer(uint64_t divisor = 1)
        : divisor_(divisor), pow2_(std::has_single_bit(divisor)),
          shift_(pow2_ ? std::countr_zero(divisor) : 0),
          mask_(pow2_ ? divisor - 1 : 0)
    {
    }

    /** @return line mod divisor. */
    uint64_t
    set(uint64_t line) const
    {
        return pow2_ ? line & mask_ : line % divisor_;
    }

    /** @return line div divisor. */
    uint64_t
    tag(uint64_t line) const
    {
        return pow2_ ? line >> shift_ : line / divisor_;
    }

  private:
    uint64_t divisor_;
    bool pow2_;
    int shift_;
    uint64_t mask_;
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_SET_INDEXER_H_
