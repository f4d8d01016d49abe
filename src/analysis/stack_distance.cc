#include "analysis/stack_distance.h"

#include "util/logging.h"

namespace atum::analysis {

StackDistanceAnalyzer::StackDistanceAnalyzer(unsigned block_shift)
    : block_shift_(block_shift)
{
    if (block_shift > 16)
        Fatal("block_shift too large: ", block_shift);
    bit_.assign(2, 0);  // index 0 unused (1-based Fenwick tree)
    mark_.assign(2, 0);
}

void
StackDistanceAnalyzer::EnsureCapacity()
{
    if (time_ < bit_.size())
        return;
    // A Fenwick tree cannot simply be extended (its implicit range nodes
    // would miss earlier counts), so rebuild from the mark array. Each
    // doubling costs O(n log n); amortized O(log n) per access.
    size_t n = bit_.size();
    while (n <= time_)
        n *= 2;
    mark_.resize(n, 0);
    bit_.assign(n, 0);
    for (size_t pos = 1; pos < mark_.size(); ++pos) {
        if (mark_[pos])
            BitAdd(pos, +1);
    }
}

void
StackDistanceAnalyzer::BitAdd(size_t pos, int delta)
{
    for (; pos < bit_.size(); pos += pos & (~pos + 1))
        bit_[pos] += delta;
}

uint64_t
StackDistanceAnalyzer::BitSumFrom(size_t pos) const
{
    // Prefix sum 1..pos.
    int64_t sum = 0;
    for (; pos > 0; pos -= pos & (~pos + 1))
        sum += bit_[pos];
    return static_cast<uint64_t>(sum);
}

void
StackDistanceAnalyzer::TouchBlock(uint32_t block)
{
    ++time_;
    EnsureCapacity();

    auto [it, inserted] = last_pos_.try_emplace(block, time_);
    if (inserted) {
        ++cold_misses_;
    } else {
        const uint64_t prev = it->second;
        // Distinct blocks touched after `prev`: marks in (prev, time-1].
        const uint64_t distance =
            BitSumFrom(time_ - 1) - BitSumFrom(prev);
        if (distance >= distance_counts_.size())
            distance_counts_.resize(distance + 1, 0);
        ++distance_counts_[distance];
        BitAdd(prev, -1);
        mark_[prev] = 0;
        it->second = time_;
    }
    BitAdd(time_, +1);
    mark_[time_] = 1;
}

void
StackDistanceAnalyzer::Feed(const trace::Record& record)
{
    if (refs_.Classify(record) == trace::RefFilter::kRef)
        TouchBlock(record.addr >> block_shift_);
}

uint64_t
StackDistanceAnalyzer::MissesForCapacity(uint64_t capacity_blocks) const
{
    if (capacity_blocks == 0)
        Fatal("capacity must be nonzero");
    uint64_t misses = cold_misses_;
    for (uint64_t d = capacity_blocks; d < distance_counts_.size(); ++d)
        misses += distance_counts_[d];
    return misses;
}

double
StackDistanceAnalyzer::MissRateForCapacity(uint64_t capacity_blocks) const
{
    return time_ == 0 ? 0.0
                      : static_cast<double>(
                            MissesForCapacity(capacity_blocks)) /
                            static_cast<double>(time_);
}

uint64_t
StackDistanceAnalyzer::DistanceCount(uint64_t d) const
{
    return d < distance_counts_.size() ? distance_counts_[d] : 0;
}

}  // namespace atum::analysis
