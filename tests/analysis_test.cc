// Unit tests for the analysis library: working sets, footprints, and the
// cache sweep helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/compare.h"
#include "analysis/stack_distance.h"
#include "analysis/working_set.h"
#include "mem/physical_memory.h"
#include "trace/record.h"
#include "util/rng.h"

namespace atum::analysis {
namespace {

using trace::MakeCtxSwitch;
using trace::MakeFlags;
using trace::Record;
using trace::RecordType;

Record
Ref(uint32_t addr, bool kernel = false, RecordType type = RecordType::kRead)
{
    Record r;
    r.addr = addr;
    r.type = type;
    r.flags = MakeFlags(kernel, 4);
    return r;
}

TEST(WorkingSet, SinglePageConverges)
{
    WorkingSetAnalyzer ws({1, 10, 100});
    for (int i = 0; i < 1000; ++i)
        ws.Touch(5);
    EXPECT_EQ(ws.total_refs(), 1000u);
    EXPECT_EQ(ws.distinct_pages(), 1u);
    // One page re-touched every step: s(tau) ~= 1 for every tau.
    EXPECT_NEAR(ws.AverageWorkingSet(0), 1.0, 0.01);
    EXPECT_NEAR(ws.AverageWorkingSet(1), 1.0, 0.1);
}

TEST(WorkingSet, RoundRobinOverKPages)
{
    // Cycling over k pages: s(tau) ~= min(tau, k).
    constexpr uint32_t k = 8;
    WorkingSetAnalyzer ws({4, 8, 64});
    for (int i = 0; i < 8000; ++i)
        ws.Touch(i % k);
    EXPECT_NEAR(ws.AverageWorkingSet(0), 4.0, 0.1);
    EXPECT_NEAR(ws.AverageWorkingSet(1), 8.0, 0.1);
    EXPECT_NEAR(ws.AverageWorkingSet(2), 8.0, 0.5);
}

TEST(WorkingSet, MoreDistinctPagesGrowTheSet)
{
    WorkingSetAnalyzer narrow({100});
    WorkingSetAnalyzer wide({100});
    for (int i = 0; i < 10000; ++i) {
        narrow.Touch(i % 4);
        wide.Touch(i % 64);
    }
    EXPECT_LT(narrow.AverageWorkingSet(0), wide.AverageWorkingSet(0));
}

TEST(WorkingSet, FeedSkipsMarkersAndPte)
{
    WorkingSetAnalyzer ws({10});
    ws.Feed(Ref(0x1000));
    ws.Feed(MakeCtxSwitch(1, 0));
    ws.Feed(Ref(0x2000, true, RecordType::kPte));
    EXPECT_EQ(ws.total_refs(), 1u);
}

TEST(WorkingSetDeath, BadWindowsAreFatal)
{
    EXPECT_DEATH(WorkingSetAnalyzer({}), "at least one");
    EXPECT_DEATH(WorkingSetAnalyzer({0}), "nonzero");
}

TEST(PageOfHelper, UsesPageShift)
{
    EXPECT_EQ(PageOf(Ref(0)), 0u);
    EXPECT_EQ(PageOf(Ref(kPageBytes)), 1u);
    EXPECT_EQ(PageOf(Ref(kPageBytes - 1)), 0u);
}

TEST(Compare, SimulateCacheCountsFilteredStream)
{
    std::vector<Record> records;
    for (int i = 0; i < 10; ++i)
        records.push_back(Ref(0x100));
    cache::CacheConfig config{.size_bytes = 1024, .block_bytes = 16,
                              .assoc = 1};
    const auto stats = SimulateCache(records, config, {});
    EXPECT_EQ(stats.accesses, 10u);
    EXPECT_EQ(stats.misses, 1u);
}

/** Miss rate of `records` through `base` with one field set per value. */
std::vector<double>
MissRates(const std::vector<Record>& records, cache::CacheConfig base,
          uint32_t cache::CacheConfig::*field,
          const std::vector<uint32_t>& values)
{
    std::vector<double> rates;
    for (uint32_t value : values) {
        base.*field = value;
        rates.push_back(SimulateCache(records, base, {}).MissRate());
    }
    return rates;
}

TEST(Compare, SweepCacheSizeIsMonotoneForLoopingTrace)
{
    // A looping footprint larger than the small cache but smaller than the
    // big one: miss rate must not increase with size.
    std::vector<Record> records;
    for (int pass = 0; pass < 50; ++pass)
        for (uint32_t a = 0; a < 8192; a += 16)
            records.push_back(Ref(a));
    cache::CacheConfig base{.block_bytes = 16, .assoc = 1};
    const std::vector<double> rates =
        MissRates(records, base, &cache::CacheConfig::size_bytes,
                  {1024, 4096, 16384});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_GE(rates[0], rates[1]);
    EXPECT_GE(rates[1], rates[2]);
    // Only cold misses remain once the footprint fits: 512 blocks out of
    // 25600 accesses = 0.02.
    EXPECT_LE(rates[2], 0.02 + 1e-9);
}

TEST(Compare, SweepBlockSizeHelpsSequentialTrace)
{
    std::vector<Record> records;
    for (uint32_t a = 0; a < 65536; a += 4)
        records.push_back(Ref(a));
    cache::CacheConfig base{.size_bytes = 16384, .assoc = 1};
    const std::vector<double> rates = MissRates(
        records, base, &cache::CacheConfig::block_bytes, {4, 16, 64});
    // Sequential scan: bigger blocks mean fewer misses.
    EXPECT_GT(rates[0], rates[1]);
    EXPECT_GT(rates[1], rates[2]);
}

TEST(Compare, SweepAssociativityFixesConflicts)
{
    // Two blocks that conflict direct-mapped but coexist 2-way.
    std::vector<Record> records;
    for (int i = 0; i < 100; ++i) {
        records.push_back(Ref(0x0));
        records.push_back(Ref(0x1000));
    }
    cache::CacheConfig base{.size_bytes = 4096, .block_bytes = 16};
    const std::vector<double> rates =
        MissRates(records, base, &cache::CacheConfig::assoc, {1, 2});
    EXPECT_GT(rates[0], 0.9);
    EXPECT_LT(rates[1], 0.1);
}


TEST(StackDistance, ColdMissesOnly)
{
    StackDistanceAnalyzer sd(0);
    for (uint32_t b = 0; b < 100; ++b)
        sd.TouchBlock(b);
    EXPECT_EQ(sd.cold_misses(), 100u);
    EXPECT_EQ(sd.MissesForCapacity(1), 100u);
    EXPECT_EQ(sd.MissesForCapacity(1000), 100u);
}

TEST(StackDistance, ImmediateReuseIsDistanceZero)
{
    StackDistanceAnalyzer sd(0);
    sd.TouchBlock(7);
    sd.TouchBlock(7);
    EXPECT_EQ(sd.DistanceCount(0), 1u);
    EXPECT_EQ(sd.MissesForCapacity(1), 1u);  // only the cold miss
}

TEST(StackDistance, LoopOverKBlocks)
{
    // Cycling over k blocks: every re-access has distance k-1, so a cache
    // of capacity >= k never misses after warmup and one of capacity < k
    // always misses.
    constexpr uint32_t k = 16;
    StackDistanceAnalyzer sd(0);
    for (int i = 0; i < 1600; ++i)
        sd.TouchBlock(i % k);
    EXPECT_EQ(sd.MissesForCapacity(k), k);            // cold only
    EXPECT_EQ(sd.MissesForCapacity(k - 1), 1600u);    // every access
}

TEST(StackDistance, MatchesFullyAssociativeLruSimulation)
{
    // Cross-validation: the one-pass analyzer must agree exactly with the
    // direct fully-associative LRU cache model at every capacity.
    Rng rng(4242);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 30000; ++i) {
        // A mix of looping, clustered, and random accesses.
        uint32_t addr;
        switch (rng.Below(3)) {
          case 0:
            addr = (i % 700) * 16;
            break;
          case 1:
            addr = 0x100000 + rng.Below(256) * 16;
            break;
          default:
            addr = rng.Below(1u << 20);
        }
        addrs.push_back(addr);
    }

    StackDistanceAnalyzer sd(4);  // 16-byte blocks
    for (uint32_t a : addrs)
        sd.TouchBlock(a >> 4);

    for (uint32_t blocks : {16u, 64u, 256u, 1024u}) {
        cache::Cache c({.size_bytes = blocks * 16,
                        .block_bytes = 16,
                        .assoc = 0});
        for (uint32_t a : addrs)
            c.Access(a, false);
        EXPECT_EQ(sd.MissesForCapacity(blocks), c.stats().misses)
            << "capacity " << blocks;
    }
}

TEST(StackDistance, LoopLongerThanTheStampWindowRenumbers)
{
    // 300,000 accesses over 100,000 blocks fill the stamp space several
    // times over, so every distance below is measured across renumberings.
    constexpr uint32_t k = 100000;
    StackDistanceAnalyzer sd(0);
    for (int pass = 0; pass < 3; ++pass)
        for (uint32_t b = 0; b < k; ++b)
            sd.TouchBlock(b);
    EXPECT_EQ(sd.total_accesses(), 3u * k);
    EXPECT_EQ(sd.cold_misses(), k);
    EXPECT_EQ(sd.distinct_blocks(), k);
    EXPECT_EQ(sd.DistanceCount(k - 1), 2u * k);
    EXPECT_EQ(sd.MissesForCapacity(k), k);
    EXPECT_EQ(sd.MissesForCapacity(k - 1), 3u * k);
}

TEST(StackDistance, MillionAccessMixMatchesLruSimulation)
{
    // 1.2 M accesses over ~1,500 blocks use up the stamp space a few
    // hundred times, so the distances cross many renumberings. The block
    // count is kept small because the reference model scans every way of
    // its set on each access; long distances are the loop test's job.
    Rng rng(1986);
    std::vector<uint32_t> blocks;
    for (int i = 0; i < 1'200'000; ++i) {
        uint32_t block;
        switch (rng.Below(10)) {
          case 0:
          case 1:
          case 2:
            block = static_cast<uint32_t>(i % 8);  // hot loop
            break;
          case 3:
          case 4:
          case 5:
            block = blocks.empty() ? 0 : blocks.back();  // repeat
            break;
          case 6:
          case 7:
          case 8:
            block = 100 + static_cast<uint32_t>(i % 300);  // medium loop
            break;
          default:
            block = 10000 + rng.Below(1200);  // random reuse
        }
        blocks.push_back(block);
    }

    StackDistanceAnalyzer sd(0);
    for (uint32_t b : blocks)
        sd.TouchBlock(b);
    ASSERT_GT(sd.DistanceCount(0), 0u);
    for (uint32_t capacity : {16u, 256u, 4096u, 65536u}) {
        cache::Cache c({.size_bytes = capacity * 16,
                        .block_bytes = 16,
                        .assoc = 0});
        for (uint32_t b : blocks)
            c.Access(b * 16, false);
        EXPECT_EQ(sd.MissesForCapacity(capacity), c.stats().misses)
            << "capacity " << capacity;
    }
}

TEST(StackDistance, ExtremeBlocksAtShiftZero)
{
    // Block 0 and block 0xFFFFFFFF are ordinary keys: neither may read
    // as an empty slot or collide with the other.
    StackDistanceAnalyzer sd(0);
    for (uint32_t b : {0u, 0xFFFFFFFFu, 0u, 0xFFFFFFFFu, 0xFFFFFFFFu})
        sd.TouchBlock(b);
    EXPECT_EQ(sd.cold_misses(), 2u);
    EXPECT_EQ(sd.distinct_blocks(), 2u);
    EXPECT_EQ(sd.DistanceCount(1), 2u);
    EXPECT_EQ(sd.DistanceCount(0), 1u);
}

TEST(StackDistance, RepeatAfterColdMissIsDistanceZero)
{
    // The distance-0 path: a repeat of the latest block moves nothing, so
    // the next access to another block still sees the right distance.
    StackDistanceAnalyzer sd(0);
    sd.TouchBlock(5);
    sd.TouchBlock(5);
    sd.TouchBlock(5);
    sd.TouchBlock(9);
    sd.TouchBlock(5);
    EXPECT_EQ(sd.total_accesses(), 5u);
    EXPECT_EQ(sd.cold_misses(), 2u);
    EXPECT_EQ(sd.DistanceCount(0), 2u);
    EXPECT_EQ(sd.DistanceCount(1), 1u);
    EXPECT_EQ(sd.MissesForCapacity(1), 3u);
    EXPECT_EQ(sd.MissesForCapacity(2), 2u);
}

TEST(StackDistance, MissCountMonotoneInCapacity)
{
    Rng rng(99);
    StackDistanceAnalyzer sd(4);
    for (int i = 0; i < 20000; ++i)
        sd.TouchBlock(rng.Below(5000));
    uint64_t prev = sd.MissesForCapacity(1);
    for (uint64_t c = 2; c < 4096; c *= 2) {
        const uint64_t m = sd.MissesForCapacity(c);
        EXPECT_LE(m, prev);
        prev = m;
    }
    EXPECT_EQ(sd.MissesForCapacity(1u << 20), sd.cold_misses());
}

/** Stack distances by brute force: an LRU stack, most recent first. */
class LruStackOracle
{
  public:
    void Touch(uint32_t block)
    {
        const auto it = std::find(stack_.begin(), stack_.end(), block);
        if (it == stack_.end()) {
            ++cold_;
        } else {
            const size_t d = static_cast<size_t>(it - stack_.begin());
            if (d >= counts_.size())
                counts_.resize(d + 1, 0);
            ++counts_[d];
            stack_.erase(it);
        }
        stack_.insert(stack_.begin(), block);
    }

    uint64_t cold() const { return cold_; }
    uint64_t distinct() const { return stack_.size(); }
    uint64_t Count(size_t d) const
    {
        return d < counts_.size() ? counts_[d] : 0;
    }

  private:
    std::vector<uint32_t> stack_;
    std::vector<uint64_t> counts_;
    uint64_t cold_ = 0;
};

/**
 * `length` accesses over at most `distinct` blocks `top - i` (i <
 * distinct): a full loop, random picks, repeats and a short hot loop,
 * so the live stamps pass every word boundary and many renumberings.
 */
std::vector<uint32_t>
OracleStream(uint32_t distinct, size_t length, uint32_t top, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint32_t> blocks;
    for (size_t i = 0; i < length; ++i) {
        uint32_t index;
        switch (rng.Below(6)) {
          case 0:
          case 1:
            index = static_cast<uint32_t>(i % distinct);
            break;
          case 2:
            index = rng.Below(distinct);
            break;
          case 3:
            index = rng.Below(std::min(distinct, 8u));
            break;
          default:
            blocks.push_back(blocks.empty() ? top : blocks.back());
            continue;
        }
        blocks.push_back(top - index);
    }
    return blocks;
}

void
ExpectMatchesOracle(StackDistanceAnalyzer& sd,
                    const LruStackOracle& oracle, uint32_t distinct)
{
    EXPECT_EQ(sd.cold_misses(), oracle.cold()) << distinct;
    EXPECT_EQ(sd.distinct_blocks(), oracle.distinct()) << distinct;
    for (size_t d = 0; d <= distinct + 1; ++d)
        ASSERT_EQ(sd.DistanceCount(d), oracle.Count(d))
            << "distinct " << distinct << " d " << d;
}

TEST(StackDistance, MatchesBruteForceLruStack)
{
    // Live-stamp counts around the 64-stamp word edges (the first
    // capacity is one word), and 40 accesses per block so every stream
    // crosses renumberings.
    for (uint32_t distinct : {63u, 64u, 65u, 127u, 128u, 129u, 700u}) {
        const std::vector<uint32_t> blocks =
            OracleStream(distinct, 40 * size_t{distinct}, 5000, distinct);
        StackDistanceAnalyzer sd(4);
        LruStackOracle oracle;
        for (uint32_t block : blocks) {
            sd.TouchBlock(block);
            oracle.Touch(block);
        }
        EXPECT_EQ(sd.total_accesses(), blocks.size());
        ExpectMatchesOracle(sd, oracle, distinct);
    }
}

TEST(StackDistance, MatchesBruteForceLruStackAtTheTopOfMemory)
{
    // block_shift 0 through Feed: addresses are blocks, up to 0xffffffff.
    for (uint32_t distinct : {64u, 65u, 128u}) {
        const std::vector<uint32_t> blocks = OracleStream(
            distinct, 40 * size_t{distinct}, 0xffffffffu, 7 * distinct);
        StackDistanceAnalyzer sd(0);
        LruStackOracle oracle;
        for (uint32_t block : blocks) {
            sd.Feed(Ref(block));
            oracle.Touch(block);
        }
        EXPECT_EQ(sd.total_accesses(), blocks.size());
        ExpectMatchesOracle(sd, oracle, distinct);
    }
}

TEST(StackDistance, MergeAcrossPiecesMatchesOracle)
{
    // A settle of n >= kSplitTouches buffered touches cuts them into
    // kPieces slices of n / kPieces. The stream below buffers exactly
    // kPieces * kSlice touches (repeats are counted, not buffered), so
    // the slice edges sit at multiples of kSlice. At each edge a block
    // touched just before it is touched again just after, and a repeat
    // run starts on the edge's last buffered touch and runs past it.
    constexpr size_t kPieces = StackDistanceAnalyzer::kPieces;
    constexpr size_t kSlice = StackDistanceAnalyzer::kSplitTouches / 2;
    Rng rng(7);
    std::vector<uint32_t> buffered;  // no two neighbours equal
    auto push = [&buffered](uint32_t block) {
        if (buffered.empty() || buffered.back() != block)
            buffered.push_back(block);
    };
    while (buffered.size() < kPieces * kSlice) {
        const size_t edge = buffered.size() % kSlice;
        if (buffered.size() >= kSlice && edge == 2) {
            // Re-touch the block buffered four touches back, across the
            // edge two touches back.
            push(buffered[buffered.size() - 4]);
        } else {
            push(rng.Below(3) == 0 ? rng.Below(20000) : rng.Below(600));
        }
    }
    buffered.resize(kPieces * kSlice);

    std::vector<uint32_t> stream;
    for (size_t i = 0; i < buffered.size(); ++i) {
        stream.push_back(buffered[i]);
        if ((i + 1) % kSlice == 0)
            stream.insert(stream.end(), 5, buffered[i]);  // straddles
    }
    StackDistanceAnalyzer sd(0);
    LruStackOracle oracle;
    for (uint32_t block : stream) {
        sd.TouchBlock(block);
        oracle.Touch(block);
    }
    EXPECT_EQ(sd.total_accesses(), stream.size());
    EXPECT_EQ(sd.DistanceCount(0), oracle.Count(0));
    ExpectMatchesOracle(sd, oracle, 20000);
}

TEST(StackDistance, SettlesMidStreamChangeNothing)
{
    // Each accessor settles what is pending, so calling them while the
    // stream is fed cuts it into other batches and slices. The counts
    // must not move. 2.4 M touches also fill whole batches.
    Rng rng(1986);
    StackDistanceAnalyzer plain(0);
    StackDistanceAnalyzer polled(0);
    uint32_t block = 0;
    for (int i = 0; i < 2'400'000; ++i) {
        switch (rng.Below(8)) {
          case 0:
          case 1:
            break;  // a repeat
          case 2:
            block = rng.Below(50000);
            break;
          default:
            block = static_cast<uint32_t>(i % 3000) + rng.Below(4);
        }
        plain.TouchBlock(block);
        polled.TouchBlock(block);
        // Irregular gaps: some settles split, some run serially.
        if (rng.Below(40000) == 0 || i % 100003 == 77)
            polled.DistanceCount(rng.Below(64));
        if (i % 250007 == 5)
            polled.distinct_blocks();
    }
    EXPECT_EQ(polled.total_accesses(), plain.total_accesses());
    EXPECT_EQ(polled.cold_misses(), plain.cold_misses());
    EXPECT_EQ(polled.distinct_blocks(), plain.distinct_blocks());
    uint64_t counted = polled.cold_misses();
    for (uint64_t d = 0; d <= 50000; ++d) {
        ASSERT_EQ(polled.DistanceCount(d), plain.DistanceCount(d)) << d;
        counted += plain.DistanceCount(d);
    }
    EXPECT_EQ(counted, plain.total_accesses());
    for (uint64_t capacity : {1u, 64u, 3000u, 4096u, 65536u})
        EXPECT_EQ(polled.MissesForCapacity(capacity),
                  plain.MissesForCapacity(capacity));
}

TEST(StackDistanceDeath, ZeroCapacityIsFatal)
{
    StackDistanceAnalyzer sd(4);
    sd.TouchBlock(1);
    EXPECT_DEATH(sd.MissesForCapacity(0), "nonzero");
}


TEST(SetSampling, UniformTrafficGivesAccurateEstimates)
{
    // Uniform random addresses spread traffic evenly over sets, the
    // regime where set sampling is trustworthy.
    Rng rng(2024);
    std::vector<Record> records;
    for (int i = 0; i < 200000; ++i)
        records.push_back(Ref(rng.Below(1u << 18) & ~3u));
    cache::CacheConfig config{.size_bytes = 16u << 10, .block_bytes = 16,
                              .assoc = 1};
    const auto full = SimulateCache(records, config, {});
    const auto sampled = SetSampledMissRate(records, config, {}, 2);
    EXPECT_NEAR(sampled.MissRate(), full.MissRate(),
                0.05 * full.MissRate());
    // Roughly a quarter of the accesses land in the sampled sets.
    EXPECT_NEAR(static_cast<double>(sampled.sampled_accesses),
                static_cast<double>(full.accesses) / 4.0,
                0.05 * static_cast<double>(full.accesses));
}

TEST(SetSampling, SampledSubsetIsExactPerSet)
{
    // Sets are independent, so the sampled simulation must agree exactly
    // with per-set accounting inside a full simulation.
    Rng rng(7);
    std::vector<Record> records;
    for (int i = 0; i < 50000; ++i) {
        // Skewed: half the traffic in one hot block.
        const uint32_t addr =
            rng.Below(2) == 0 ? 0x5550 : rng.Below(1u << 16) & ~3u;
        records.push_back(Ref(addr));
    }
    cache::CacheConfig config{.size_bytes = 4096, .block_bytes = 16,
                              .assoc = 1};
    cache::Cache full(config);
    const uint32_t sets = full.num_sets();
    std::vector<uint64_t> acc(sets, 0), mis(sets, 0);
    for (const Record& r : records) {
        const uint32_t set = (r.addr >> 4) & (sets - 1);
        const bool hit = full.Access(r.addr, false);
        ++acc[set];
        if (!hit)
            ++mis[set];
    }
    uint64_t want_acc = 0, want_mis = 0;
    for (uint32_t set = 0; set < sets; ++set) {
        if ((((set * 2654435761u) >> 16) & 3) == 0) {
            want_acc += acc[set];
            want_mis += mis[set];
        }
    }
    const auto sampled = SetSampledMissRate(records, config, {}, 2);
    EXPECT_EQ(sampled.sampled_accesses, want_acc);
    EXPECT_EQ(sampled.sampled_misses, want_mis);
}

TEST(SetSampling, ShiftZeroAgreesWithSimulateCache)
{
    // Sampling every set is a plain simulation: the same filter options
    // must select the same references as SimulateCache, the PTE rule and
    // the kernel and pid filters included.
    Rng rng(11);
    std::vector<Record> records;
    for (int i = 0; i < 40000; ++i) {
        if (i % 700 == 0)
            records.push_back(
                MakeCtxSwitch(static_cast<uint16_t>(1 + rng.Below(3)), 0));
        const RecordType type = static_cast<RecordType>(rng.Below(4));
        const bool kernel = type != RecordType::kPte && rng.Below(5) == 0;
        records.push_back(
            Ref((kernel ? 0x80000000u : 0u) | (rng.Below(1u << 15) & ~3u),
                kernel, type));
    }
    const cache::CacheConfig config{.size_bytes = 4096, .block_bytes = 16,
                                    .assoc = 2, .pid_tags = true};
    for (const cache::DriverOptions& options :
         {cache::DriverOptions{},
          cache::DriverOptions{.include_kernel = false},
          cache::DriverOptions{.only_pid = 2}}) {
        const auto full = SimulateCache(records, config, options);
        const auto sampled = SetSampledMissRate(records, config, options, 0);
        EXPECT_EQ(sampled.sampled_accesses, full.accesses);
        EXPECT_EQ(sampled.sampled_misses, full.misses);
    }
}

}  // namespace
}  // namespace atum::analysis
