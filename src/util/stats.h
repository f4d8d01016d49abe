#ifndef ATUM_UTIL_STATS_H_
#define ATUM_UTIL_STATS_H_

/**
 * @file
 * The power-of-two histogram behind the trace statistics (trace/stats.h).
 */

#include <cstdint>
#include <vector>

namespace atum {

/**
 * A power-of-two bucketed histogram for positive integer samples (for
 * example context-switch interval lengths). Bucket i counts samples in
 * [2^i, 2^(i+1)).
 */
class Log2Histogram
{
  public:
    /** Adds one sample; 0 is counted in bucket 0. */
    void Add(uint64_t x);

    uint64_t count() const { return count_; }
    /** Number of samples in [2^i, 2^(i+1)). */
    uint64_t BucketCount(unsigned i) const;
    unsigned NumBuckets() const { return buckets_.size(); }

  private:
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

}  // namespace atum

#endif  // ATUM_UTIL_STATS_H_
