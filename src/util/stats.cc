#include "util/stats.h"

namespace atum {

void
Log2Histogram::Add(uint64_t x)
{
    unsigned bucket = 0;
    while (x > 1) {
        x >>= 1;
        ++bucket;
    }
    if (bucket >= buckets_.size())
        buckets_.resize(bucket + 1, 0);
    ++buckets_[bucket];
    ++count_;
}

uint64_t
Log2Histogram::BucketCount(unsigned i) const
{
    return i < buckets_.size() ? buckets_[i] : 0;
}

}  // namespace atum
