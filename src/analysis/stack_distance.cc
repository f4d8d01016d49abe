#include "analysis/stack_distance.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>

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

StackDistanceAnalyzer::Engine::Engine(bool keep_first_touches)
    : distance_counts(1, 0),
      map_(kInitialSlots),
      tree_(kInitialStamps / 64 + 1, 0),
      owner_(kInitialStamps, 0),
      live_bits_(kInitialStamps / 64, 0),
      keep_first_touches_(keep_first_touches)
{
}

StackDistanceAnalyzer::StackDistanceAnalyzer(unsigned block_shift)
    : block_shift_(block_shift),
      pending_(std::make_unique_for_overwrite<uint32_t[]>(kBatchTouches))
{
    if (block_shift > 16)
        Fatal("block_shift too large: ", block_shift);
}

StackDistanceAnalyzer::Engine::Slot&
StackDistanceAnalyzer::Engine::Find(uint32_t block)
{
    const size_t mask = map_.size() - 1;
    for (size_t i = SlotOf(block, mask);; i = (i + 1) & mask) {
        Slot& slot = map_[i];
        if (slot.stamp == 0 || slot.block == block)
            return slot;
    }
}

void
StackDistanceAnalyzer::Engine::GrowMap()
{
    std::vector<Slot> old(map_.size() * 2);
    old.swap(map_);
    for (const Slot& slot : old) {
        if (slot.stamp != 0)
            Find(slot.block) = slot;
    }
}

void
StackDistanceAnalyzer::Engine::TreeAdd(uint32_t stamp, int32_t delta)
{
    const uint32_t n = static_cast<uint32_t>(tree_.size());
    for (uint32_t i = stamp / 64 + 1; i < n; i += LowBit(i))
        tree_[i] += delta;
}

void
StackDistanceAnalyzer::Engine::TreeMove(uint32_t from, uint32_t to)
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
StackDistanceAnalyzer::Engine::NewerThan(uint32_t stamp) const
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
StackDistanceAnalyzer::Engine::Renumber()
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
StackDistanceAnalyzer::Engine::NextStamp(uint32_t block, uint32_t retired)
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
StackDistanceAnalyzer::Engine::Restamp(Slot& slot)
{
    // Retire the old bit before issuing the new stamp, so a renumbering
    // in between sees one live stamp per block.
    const uint32_t prev = slot.stamp;
    live_bits_[prev / 64] &= ~(uint64_t{1} << (prev % 64));
    slot.stamp = NextStamp(slot.block, prev);
}

void
StackDistanceAnalyzer::Engine::Touch(uint32_t block)
{
    Slot* slot = &Find(block);
    if (slot->stamp == 0) {
        ++cold_misses;
        ++live;
        if (keep_first_touches_)
            first_touches.push_back(block);
        if (2 * size_t{live} > map_.size()) {
            GrowMap();
            slot = &Find(block);
        }
        // NextStamp may renumber, which looks blocks up through Find, so
        // the slot must be taken first: any nonzero stamp marks it full.
        *slot = {block, ~0u};
        slot->stamp = NextStamp(block);
        return;
    }

    // Distinct blocks touched since: the live stamps newer than its own.
    const uint64_t distance = NewerThan(slot->stamp);
    if (distance >= distance_counts.size())
        distance_counts.resize(distance + 1, 0);
    ++distance_counts[distance];
    Restamp(*slot);
}

void
StackDistanceAnalyzer::Engine::Raise(uint32_t block)
{
    Slot& slot = Find(block);
    if (slot.stamp != next_stamp_ - 1)
        Restamp(slot);
}

std::vector<uint32_t>
StackDistanceAnalyzer::Engine::BlocksByRecency() const
{
    std::vector<uint32_t> blocks;
    blocks.reserve(live);
    for (size_t w = 0; w < live_bits_.size(); ++w) {
        for (uint64_t bits = live_bits_[w]; bits != 0; bits &= bits - 1)
            blocks.push_back(owner_[w * 64 + std::countr_zero(bits)]);
    }
    return blocks;
}

void
StackDistanceAnalyzer::Engine::AddCounts(const Engine& other)
{
    if (other.distance_counts.size() > distance_counts.size())
        distance_counts.resize(other.distance_counts.size(), 0);
    for (size_t d = 0; d < other.distance_counts.size(); ++d)
        distance_counts[d] += other.distance_counts[d];
}

void
StackDistanceAnalyzer::Settle()
{
    const size_t n = pending_count_;
    pending_count_ = 0;
    if (n < kSplitTouches) {
        for (size_t i = 0; i < n; ++i)
            engine_.Touch(pending_[i]);
        return;
    }

    // Slice 0 on the global engine, the others on engines of their own.
    const size_t slice = n / kPieces;
    std::vector<Engine> slices(kPieces - 1, Engine(true));
    auto run = [&](unsigned piece) {
        const uint32_t* begin = pending_.get() + piece * slice;
        const uint32_t* end =
            piece + 1 == kPieces ? pending_.get() + n : begin + slice;
        Engine& engine = piece == 0 ? engine_ : slices[piece - 1];
        for (const uint32_t* p = begin; p != end; ++p)
            engine.Touch(*p);
    };
    // Thread t runs pieces t, t + threads, ...; the caller is thread 0.
    static const unsigned threads = std::clamp(
        std::thread::hardware_concurrency(), 1u, kPieces);
    // A share's failure (an allocation) is held until every thread is
    // joined, then rethrown here.
    std::vector<std::exception_ptr> failed(threads);
    auto run_share = [&](unsigned t) {
        try {
            for (unsigned piece = t; piece < kPieces; piece += threads)
                run(piece);
        } catch (...) {
            failed[t] = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(run_share, t);
        } catch (const std::system_error&) {
            run_share(t);  // no thread to be had: run its share here
        }
    }
    run_share(0);
    for (std::thread& helper : helpers)
        helper.join();
    for (const std::exception_ptr& failure : failed) {
        if (failure)
            std::rethrow_exception(failure);
    }

    // Merge, slice by slice: the first touches get their distances on
    // the global stack, then the slice's order replaces theirs.
    for (unsigned piece = 1; piece < kPieces; ++piece) {
        const Engine& local = slices[piece - 1];
        for (uint32_t block : local.first_touches)
            engine_.Touch(block);
        for (uint32_t block : local.BlocksByRecency())
            engine_.Raise(block);
        engine_.AddCounts(local);
    }
}

uint64_t
StackDistanceAnalyzer::cold_misses()
{
    Settle();
    return engine_.cold_misses;
}

uint64_t
StackDistanceAnalyzer::distinct_blocks()
{
    Settle();
    return engine_.live;
}

uint64_t
StackDistanceAnalyzer::MissesForCapacity(uint64_t capacity_blocks)
{
    if (capacity_blocks == 0)
        Fatal("capacity must be nonzero");
    Settle();
    // Repeats are distance 0, a hit at every capacity.
    const std::vector<uint64_t>& counts = engine_.distance_counts;
    uint64_t misses = engine_.cold_misses;
    for (uint64_t d = capacity_blocks; d < counts.size(); ++d)
        misses += counts[d];
    return misses;
}

double
StackDistanceAnalyzer::MissRateForCapacity(uint64_t capacity_blocks)
{
    return time_ == 0 ? 0.0
                      : static_cast<double>(
                            MissesForCapacity(capacity_blocks)) /
                            static_cast<double>(time_);
}

uint64_t
StackDistanceAnalyzer::DistanceCount(uint64_t d)
{
    Settle();
    const std::vector<uint64_t>& counts = engine_.distance_counts;
    return (d < counts.size() ? counts[d] : 0) + (d == 0 ? repeats_ : 0);
}

}  // namespace atum::analysis
