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
 * O(1) per access amortized. Blocks map to stamps through a flat
 * open-addressing table.
 *
 * O(N log B) time and O(B) space for N accesses and B distinct blocks.
 *
 * Settling in parallel (PARDA's split and merge). A re-touch of the
 * block touched last, the commonest access of all, is distance 0 and
 * moves nothing, so it is counted when it is fed. Every other block
 * touch is buffered, at most kBatchTouches of them (4 MB), and a full
 * buffer is settled at once; the result accessors settle whatever is
 * pending first. A settle of fewer than kSplitTouches runs them through
 * the engine above, one by one. A larger one cuts them into kPieces
 * equal slices (the last takes the remainder) and runs those on
 * min(kPieces, nproc) threads, the caller's included, all joined before
 * it returns. The slice count does not depend on the host, so neither
 * does any step of the merge:
 *   - The first slice runs on the analyzer's own (global) engine. Each
 *     other slice runs on a fresh engine of its own, which gives every
 *     re-touch inside the slice its exact distance, since all the blocks
 *     touched in between are the slice's. The slice also reports its
 *     first touches, in order, and its blocks in last-touch order.
 *   - Then, slice by slice, serially: each first touch is touched on the
 *     global engine. The slice's earlier first touches are already at
 *     the top of its stack, and they are exactly the blocks the slice
 *     touched before, so the count is exact. Then the slice's blocks are
 *     moved to the top in last-touch order, with no count, which leaves
 *     the global stack as a serial pass would. The merge costs two
 *     global moves per distinct block of a slice.
 * So every count is the serial pass's, whatever the thread count. Memory
 * is the global engine's O(B), the buffer, and the slices' engines,
 * O(distinct blocks of a slice) each, freed when the settle ends.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

class StackDistanceAnalyzer
{
  public:
    /** Pending block touches that trigger a settle: 4 MB of them. */
    static constexpr size_t kBatchTouches = size_t{1} << 20;
    /** Fewer pending touches than this settle serially. */
    static constexpr size_t kSplitTouches = size_t{1} << 14;
    /** Slices a larger settle cuts its touches into. */
    static constexpr unsigned kPieces = 4;

    /** `block_shift` converts addresses to blocks (e.g. 4 = 16B blocks). */
    explicit StackDistanceAnalyzer(unsigned block_shift = 4);

    /** Processes one block access. */
    void TouchBlock(uint32_t block)
    {
        // A re-touch of the latest block is distance 0 and reorders
        // nothing, so it is counted and not buffered. Without a branch:
        // the slot is written either way and kept only for a new block.
        const bool repeat = block == last_block_;
        ++time_;
        repeats_ += repeat;
        pending_[pending_count_] = block;
        pending_count_ += !repeat;
        last_block_ = block;
        if (pending_count_ == kBatchTouches)
            Settle();
    }

    /** Processes a memory record's address (markers/PTE refs skipped). */
    void Feed(const trace::Record& record)
    {
        if (refs_.Classify(record) == trace::RefFilter::kRef)
            TouchBlock(record.addr >> block_shift_);
    }

    uint64_t total_accesses() const { return time_; }
    uint64_t cold_misses();
    uint64_t distinct_blocks();

    /**
     * Exact miss count of a fully-associative LRU cache holding
     * `capacity_blocks` blocks (> 0).
     */
    uint64_t MissesForCapacity(uint64_t capacity_blocks);
    double MissRateForCapacity(uint64_t capacity_blocks);

    /** Count of accesses with finite stack distance exactly d. */
    uint64_t DistanceCount(uint64_t d);

  private:
    /** The serial engine: one LRU stack and the distances it counted.
     *  Each starts on a cache line of its own, since slices' engines
     *  run side by side on different threads. */
    class alignas(64) Engine
    {
      public:
        /** `keep_first_touches`: record cold touches, in order (a
         *  slice's engine). */
        explicit Engine(bool keep_first_touches = false);

        /** Touches a block that is not the one touched last: counts its
         *  distance, or a cold miss. */
        void Touch(uint32_t block);
        /** Moves a block already on the stack to its top, uncounted. */
        void Raise(uint32_t block);
        /** The live blocks, least recently touched first. */
        std::vector<uint32_t> BlocksByRecency() const;
        /** Adds `other`'s distance counts to this engine's. */
        void AddCounts(const Engine& other);

        std::vector<uint32_t> first_touches;  ///< when kept
        uint64_t cold_misses = 0;
        uint32_t live = 0;  ///< distinct blocks = live stamps
        std::vector<uint64_t> distance_counts;

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
         *  `retired` (0: none) is the block's previous stamp, whose live
         *  bit the caller has cleared; its count moves to the new
         *  stamp's word. */
        uint32_t NextStamp(uint32_t block, uint32_t retired = 0);
        /** Retires `slot`'s stamp and issues it the next one. */
        void Restamp(Slot& slot);
        void Renumber();

        /** Adds `delta` to the live count of stamp's word. */
        void TreeAdd(uint32_t stamp, int32_t delta);
        /** Moves one live count from `from`'s word to `to`'s. */
        void TreeMove(uint32_t from, uint32_t to);
        uint32_t NewerThan(uint32_t stamp) const;  ///< live stamps > stamp

        std::vector<Slot> map_;         ///< power-of-two open addressing
        std::vector<int32_t> tree_;     ///< Fenwick tree over live_bits_
                                        ///< words, word w at index w+1
        std::vector<uint32_t> owner_;   ///< stamp -> block; size = capacity
        std::vector<uint64_t> live_bits_;  ///< which stamps are live
        uint32_t next_stamp_ = 1;
        bool keep_first_touches_;
    };

    /** Runs every pending touch through the engine (see the file
     *  comment) and empties the buffer. */
    void Settle();

    unsigned block_shift_;
    trace::RefFilter refs_;
    Engine engine_;
    /** Touches not yet settled: kBatchTouches slots, the first
     *  pending_count_ of them in use. */
    std::unique_ptr<uint32_t[]> pending_;
    size_t pending_count_ = 0;
    /** Block of the latest access; no block equals the first value. */
    uint64_t last_block_ = uint64_t{1} << 32;
    uint64_t time_ = 0;
    uint64_t repeats_ = 0;  ///< distance-0 re-touches, never buffered
};

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_STACK_DISTANCE_H_
