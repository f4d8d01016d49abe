#include "util/stats.h"

#include <sstream>

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

std::string
Log2Histogram::ToString() const
{
    std::ostringstream os;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        const uint64_t lo = i == 0 ? 0 : (1ull << i);
        const uint64_t hi = (1ull << (i + 1)) - 1;
        os << "[" << lo << ", " << hi << "]: " << buckets_[i] << "\n";
    }
    return os.str();
}

}  // namespace atum
