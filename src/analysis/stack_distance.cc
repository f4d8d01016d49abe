#include "analysis/stack_distance.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace atum::analysis {

namespace {

/** First capacities: one analyzer per process is common, so start small
 *  (one live-bit word). */
constexpr uint32_t kInitialStamps = 64;
constexpr size_t kInitialSlots = 64;
/** Stamps are uint32_t, and owner_ and the live bits are indexed by them. */
constexpr uint64_t kMaxStamps = uint64_t{1} << 31;

/** Fibonacci hashing: the mixed upper half of block * 2^64/phi. */
inline size_t
SlotOf(uint32_t block, size_t mask)
{
    return static_cast<size_t>(
               (uint64_t{block} * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
}

inline uint32_t
LowBit(uint32_t i)
{
    return i & (~i + 1);
}

}  // namespace

StackDistanceAnalyzer::StackDistanceAnalyzer(unsigned block_shift)
    : block_shift_(block_shift),
      map_(kInitialSlots),
      tree_(kInitialStamps / 64 + 1, 0),
      owner_(kInitialStamps, 0),
      live_bits_(kInitialStamps / 64, 0),
      distance_counts_(1, 0)
{
    if (block_shift > 16)
        Fatal("block_shift too large: ", block_shift);
}

StackDistanceAnalyzer::Slot&
StackDistanceAnalyzer::Find(uint32_t block)
{
    const size_t mask = map_.size() - 1;
    for (size_t i = SlotOf(block, mask);; i = (i + 1) & mask) {
        Slot& slot = map_[i];
        if (slot.stamp == 0 || slot.block == block)
            return slot;
    }
}

void
StackDistanceAnalyzer::GrowMap()
{
    std::vector<Slot> old(map_.size() * 2);
    old.swap(map_);
    for (const Slot& slot : old) {
        if (slot.stamp != 0)
            Find(slot.block) = slot;
    }
}

void
StackDistanceAnalyzer::TreeAdd(uint32_t stamp, int32_t delta)
{
    const uint32_t n = static_cast<uint32_t>(tree_.size());
    for (uint32_t i = stamp / 64 + 1; i < n; i += LowBit(i))
        tree_[i] += delta;
}

void
StackDistanceAnalyzer::TreeMove(uint32_t from, uint32_t to)
{
    // -1 up from's path and +1 up to's; where the paths meet, the two
    // cancel, so climb the lower one until they do (or both leave).
    const uint32_t n = static_cast<uint32_t>(tree_.size());
    uint32_t i = from / 64 + 1;
    uint32_t j = to / 64 + 1;
    while (i != j && std::min(i, j) < n) {
        if (i < j) {
            --tree_[i];
            i += LowBit(i);
        } else {
            ++tree_[j];
            j += LowBit(j);
        }
    }
}

uint32_t
StackDistanceAnalyzer::NewerThan(uint32_t stamp) const
{
    // The live bits above stamp in its own word, then the words after it
    // up to the newest stamp's: a Fenwick range sum, whose two prefix
    // paths stop where they meet.
    const uint32_t word = stamp / 64;
    int32_t sum =
        std::popcount(live_bits_[word] & ~uint64_t{1} << (stamp % 64));
    uint32_t a = word + 1;
    uint32_t b = (next_stamp_ - 1) / 64 + 1;
    while (b > a) {
        sum += tree_[b];
        b -= LowBit(b);
    }
    while (a > b) {
        sum -= tree_[a];
        a -= LowBit(a);
    }
    return static_cast<uint32_t>(sum);
}

void
StackDistanceAnalyzer::Renumber()
{
    // The live stamps, oldest first, become 1..B: the stack order is all
    // a stamp means, so the distances to come are unchanged.
    uint32_t renumbered = 0;
    for (uint32_t stamp = 1; stamp < next_stamp_; ++stamp) {
        if ((live_bits_[stamp / 64] >> (stamp % 64) & 1) == 0)
            continue;
        const uint32_t block = owner_[stamp];
        owner_[++renumbered] = block;
        Find(block).stamp = renumbered;
    }
    next_stamp_ = renumbered + 1;

    // Room for at least 4x the live stamps, the one about to be issued
    // included, so the next renumbering is 3x as many accesses away.
    uint64_t capacity = owner_.size();
    while (capacity < 4 * uint64_t{next_stamp_})
        capacity *= 2;
    if (capacity > kMaxStamps)
        Fatal("stack distance: too many distinct blocks (", renumbered,
              ")");
    owner_.resize(capacity);
    live_bits_.assign(capacity / 64, 0);
    tree_.assign(capacity / 64 + 1, 0);
    // Stamps 1..renumbered hold one block each; build the tree over their
    // words in linear time, each node passing its sum to its parent.
    for (uint32_t stamp = 1; stamp <= renumbered; ++stamp)
        live_bits_[stamp / 64] |= uint64_t{1} << (stamp % 64);
    const uint32_t n = static_cast<uint32_t>(tree_.size());
    for (uint32_t i = 1; i < n; ++i) {
        tree_[i] += std::popcount(live_bits_[i - 1]);
        const uint32_t parent = i + LowBit(i);
        if (parent < n)
            tree_[parent] += tree_[i];
    }
}

uint32_t
StackDistanceAnalyzer::NextStamp(uint32_t block, uint32_t retired)
{
    if (next_stamp_ == owner_.size()) {
        // The rebuilt tree already leaves out retired, whose bit is clear.
        Renumber();
        retired = 0;
    }
    const uint32_t stamp = next_stamp_++;
    owner_[stamp] = block;
    live_bits_[stamp / 64] |= uint64_t{1} << (stamp % 64);
    if (retired == 0)
        TreeAdd(stamp, +1);
    else
        TreeMove(retired, stamp);
    return stamp;
}

void
StackDistanceAnalyzer::TouchBlock(uint32_t block)
{
    if (block == last_block_ && time_ > 0) {
        // Re-touching the top of the stack reorders nothing.
        ++time_;
        ++distance_counts_[0];
        return;
    }
    ++time_;
    last_block_ = block;

    Slot* slot = &Find(block);
    if (slot->stamp == 0) {
        ++cold_misses_;
        ++live_;
        if (2 * size_t{live_} > map_.size()) {
            GrowMap();
            slot = &Find(block);
        }
        // NextStamp may renumber, which looks blocks up through Find, so
        // the slot must be taken first: any nonzero stamp marks it full.
        *slot = {block, ~0u};
        slot->stamp = NextStamp(block);
        return;
    }

    const uint32_t prev = slot->stamp;
    // Distinct blocks touched since: the live stamps newer than prev.
    const uint64_t distance = NewerThan(prev);
    if (distance >= distance_counts_.size())
        distance_counts_.resize(distance + 1, 0);
    ++distance_counts_[distance];
    // Retire prev's bit before issuing the new stamp, so a renumbering in
    // between sees one live stamp per block.
    live_bits_[prev / 64] &= ~(uint64_t{1} << (prev % 64));
    slot->stamp = NextStamp(block, prev);
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
