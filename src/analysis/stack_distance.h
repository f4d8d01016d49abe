#ifndef ATUM_ANALYSIS_STACK_DISTANCE_H_
#define ATUM_ANALYSIS_STACK_DISTANCE_H_

/**
 * @file
 * One-pass LRU stack-distance analysis (Mattson et al. 1970), the classic
 * companion to trace-driven cache studies: a single pass over the trace
 * yields the exact miss count of a fully-associative LRU cache of *every*
 * capacity simultaneously.
 *
 * The stack distance of an access is the number of distinct blocks touched
 * since the previous access to the same block (infinite for first
 * touches). A fully-associative LRU cache of capacity C misses exactly on
 * accesses with distance >= C, plus all cold first touches.
 *
 * Implementation: Fenwick tree over access timestamps — O(N log N) time,
 * O(N + B) space for N accesses and B distinct blocks.
 */

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

class StackDistanceAnalyzer
{
  public:
    /** `block_shift` converts addresses to blocks (e.g. 4 = 16B blocks). */
    explicit StackDistanceAnalyzer(unsigned block_shift = 4);

    /** Processes one block access. */
    void TouchBlock(uint32_t block);

    /** Processes a memory record's address (markers/PTE refs skipped). */
    void Feed(const trace::Record& record);

    uint64_t total_accesses() const { return time_; }
    uint64_t cold_misses() const { return cold_misses_; }
    uint64_t distinct_blocks() const { return last_pos_.size(); }

    /**
     * Exact miss count of a fully-associative LRU cache holding
     * `capacity_blocks` blocks (> 0).
     */
    uint64_t MissesForCapacity(uint64_t capacity_blocks) const;
    double MissRateForCapacity(uint64_t capacity_blocks) const;

    /** Count of accesses with finite stack distance exactly d. */
    uint64_t DistanceCount(uint64_t d) const;

  private:
    void BitAdd(size_t pos, int delta);
    uint64_t BitSumFrom(size_t pos) const;  // sum of (pos, end]

    void EnsureCapacity();

    unsigned block_shift_;
    trace::RefFilter refs_;
    std::vector<int32_t> bit_;   ///< Fenwick tree over timestamps
    std::vector<uint8_t> mark_;  ///< which timestamps hold a block's
                                 ///< most-recent access (rebuild source)
    std::unordered_map<uint32_t, uint64_t> last_pos_;
    std::vector<uint64_t> distance_counts_;
    uint64_t time_ = 0;
    uint64_t cold_misses_ = 0;
};

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_STACK_DISTANCE_H_
