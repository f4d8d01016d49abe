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
 * Implementation (Olken 1981; PARDA, Niu et al., IPDPS 2012): every block
 * holds a 32-bit stamp, its last access's place in time, and one bit per
 * stamp marks the live ones (one per distinct block). An access's
 * distance is the number of live stamps newer than its block's. A
 * Fenwick tree over the 64-stamp words of that bitmap counts the live
 * stamps in whole words: the count is a popcount of the bits above the
 * stamp in its own word plus a tree range sum over the words after it,
 * whose two prefix paths stop where they meet. The re-touched block's
 * stamp moves to the newest word the same way, -1 and +1 cancelling
 * above the meeting point, and not at all when both stamps share a word.
 * The tree is 64x smaller than one over single stamps, and each path is
 * 6 levels shorter. Stamps are local: when they run out, the B live ones
 * are renumbered 1..B in order and the bitmap and tree are rebuilt in
 * linear time, with a capacity of at least 4*B, so renumbering costs
 * O(1) per access amortized. A re-touch of the block touched last is
 * distance 0 and moves no stamp, which skips the tree for the commonest
 * access of all. Blocks map to stamps through a flat open-addressing
 * table.
 *
 * O(N log B) time and O(B) space for N accesses and B distinct blocks.
 */

#include <cstddef>
#include <cstdint>
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
    uint64_t distinct_blocks() const { return live_; }

    /**
     * Exact miss count of a fully-associative LRU cache holding
     * `capacity_blocks` blocks (> 0).
     */
    uint64_t MissesForCapacity(uint64_t capacity_blocks) const;
    double MissRateForCapacity(uint64_t capacity_blocks) const;

    /** Count of accesses with finite stack distance exactly d. */
    uint64_t DistanceCount(uint64_t d) const;

  private:
    /** One block -> stamp entry; stamp 0 marks an empty slot (any
     *  uint32_t is a valid block when block_shift is 0). */
    struct Slot {
        uint32_t block = 0;
        uint32_t stamp = 0;
    };

    /** The slot holding `block`, or the empty slot where it goes. */
    Slot& Find(uint32_t block);
    void GrowMap();

    /** Issues the next stamp to `block`, renumbering first if full.
     *  `retired` (0: none) is the block's previous stamp, whose live bit
     *  the caller has cleared; its count moves to the new stamp's word. */
    uint32_t NextStamp(uint32_t block, uint32_t retired = 0);
    void Renumber();

    /** Adds `delta` to the live count of stamp's word. */
    void TreeAdd(uint32_t stamp, int32_t delta);
    /** Moves one live count from `from`'s word to `to`'s. */
    void TreeMove(uint32_t from, uint32_t to);
    uint32_t NewerThan(uint32_t stamp) const;  ///< live stamps > stamp

    unsigned block_shift_;
    trace::RefFilter refs_;
    std::vector<Slot> map_;         ///< power-of-two open addressing
    std::vector<int32_t> tree_;     ///< Fenwick tree over live_bits_
                                    ///< words, word w at index w+1
    std::vector<uint32_t> owner_;   ///< stamp -> block; size = capacity
    std::vector<uint64_t> live_bits_;  ///< which stamps are live
    uint32_t next_stamp_ = 1;
    uint32_t live_ = 0;             ///< distinct blocks = live stamps
    uint32_t last_block_ = 0;       ///< block of the latest access
    std::vector<uint64_t> distance_counts_;
    uint64_t time_ = 0;
    uint64_t cold_misses_ = 0;
};

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_STACK_DISTANCE_H_
