// Unit tests for the cache model and the trace driver: hit/miss mechanics,
// replacement, write policies, PID tags vs flush-on-switch, and filters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/write_buffer.h"
#include "cache/trace_driver.h"
#include "trace/record.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace atum::cache {
namespace {

using trace::MakeCtxSwitch;
using trace::MakeFlags;
using trace::Record;
using trace::RecordType;

Record
MemRecord(uint32_t addr, RecordType type, bool kernel = false)
{
    Record r;
    r.addr = addr;
    r.type = type;
    r.flags = MakeFlags(kernel, 4);
    return r;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    EXPECT_FALSE(c.Access(0x100, false));
    EXPECT_TRUE(c.Access(0x100, false));
    EXPECT_TRUE(c.Access(0x10c, false));  // same block
    EXPECT_FALSE(c.Access(0x110, false));  // next block
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    EXPECT_FALSE(c.Access(0x0, false));
    EXPECT_FALSE(c.Access(0x400, false));  // same set, evicts
    EXPECT_FALSE(c.Access(0x0, false));    // miss again
}

TEST(Cache, TwoWayAvoidsThatConflict)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 2});
    EXPECT_FALSE(c.Access(0x0, false));
    EXPECT_FALSE(c.Access(0x400, false));
    EXPECT_TRUE(c.Access(0x0, false));
    EXPECT_TRUE(c.Access(0x400, false));
}

TEST(Cache, LruReplacement)
{
    Cache c({.size_bytes = 64, .block_bytes = 16, .assoc = 2});
    // Set 0 blocks: 0x00, 0x40, 0x80 (two sets of two ways).
    c.Access(0x00, false);
    c.Access(0x40, false);
    c.Access(0x00, false);  // touch: 0x40 is now LRU
    c.Access(0x80, false);  // evicts 0x40
    EXPECT_TRUE(c.Access(0x00, false));
    EXPECT_FALSE(c.Access(0x40, false));
}

TEST(Cache, FullyAssociative)
{
    Cache c({.size_bytes = 64, .block_bytes = 16, .assoc = 0});
    EXPECT_EQ(c.num_sets(), 1u);
    c.Access(0x000, false);
    c.Access(0x400, false);
    c.Access(0x800, false);
    c.Access(0xc00, false);
    EXPECT_TRUE(c.Access(0x000, false));
    EXPECT_TRUE(c.Access(0xc00, false));
}

TEST(Cache, WriteBackCountsWritebacksOnEviction)
{
    Cache c({.size_bytes = 32, .block_bytes = 16, .assoc = 1});
    c.Access(0x00, true);   // dirty fill
    c.Access(0x40, false);  // evicts dirty block
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteThroughNeverWritesBack)
{
    Cache c({.size_bytes = 32,
             .block_bytes = 16,
             .assoc = 1,
             .write_back = false});
    c.Access(0x00, true);
    c.Access(0x40, false);
    c.Access(0x00, true);
    c.Access(0x40, false);
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, PidTagsSeparateProcesses)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 2,
             .pid_tags = true});
    EXPECT_FALSE(c.Access(0x100, false, 1));
    EXPECT_FALSE(c.Access(0x100, false, 2));  // same address, other pid
    EXPECT_TRUE(c.Access(0x100, false, 1));
    EXPECT_TRUE(c.Access(0x100, false, 2));
}

TEST(Cache, FlushInvalidatesAndCountsDirty)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    c.Access(0x100, true);
    c.Access(0x200, false);
    c.Flush();
    EXPECT_EQ(c.stats().flushes, 1u);
    EXPECT_EQ(c.stats().flushed_blocks, 2u);
    EXPECT_EQ(c.stats().writebacks, 1u);
    EXPECT_FALSE(c.Access(0x100, false));
}

TEST(Cache, MissRateComputation)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    c.Access(0x0, false);
    c.Access(0x0, false);
    c.Access(0x0, false);
    c.Access(0x0, false);
    EXPECT_DOUBLE_EQ(c.stats().MissRate(), 0.25);
}

TEST(CacheDeath, BadConfigIsFatal)
{
    EXPECT_DEATH(Cache({.size_bytes = 1000, .block_bytes = 16}),
                 "powers of two");
    EXPECT_DEATH(Cache({.size_bytes = 1024, .block_bytes = 2048}),
                 "block size");
    EXPECT_DEATH(Cache({.size_bytes = 64, .block_bytes = 16, .assoc = 8}),
                 "associativity");
}

TEST(Cache, ConfigToString)
{
    EXPECT_EQ(Cache({.size_bytes = 64u << 10,
                     .block_bytes = 16,
                     .assoc = 2})
                  .config()
                  .ToString(),
              "64K/16B/2w/wb");
}

// --- driver -------------------------------------------------------------

TEST(TraceCacheDriver, FiltersKernel)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    DriverOptions opts;
    opts.include_kernel = false;
    TraceCacheDriver driver(c, opts);
    driver.Feed(MemRecord(0x100, RecordType::kRead, /*kernel=*/true));
    driver.Feed(MemRecord(0x200, RecordType::kRead, /*kernel=*/false));
    EXPECT_EQ(driver.fed(), 1u);
    EXPECT_EQ(driver.filtered(), 1u);
    EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(TraceCacheDriver, PteFilteredByDefault)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    TraceCacheDriver driver(c, DriverOptions{});
    driver.Feed(MemRecord(0x100, RecordType::kPte, true));
    EXPECT_EQ(driver.fed(), 0u);
    EXPECT_EQ(driver.filtered(), 1u);
}

TEST(TraceCacheDriver, FlushOnSwitch)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    DriverOptions opts;
    opts.flush_on_switch = true;
    TraceCacheDriver driver(c, opts);
    driver.Feed(MemRecord(0x100, RecordType::kRead));
    driver.Feed(MakeCtxSwitch(2, 0));
    driver.Feed(MemRecord(0x100, RecordType::kRead));  // miss again
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().flushes, 1u);
}

TEST(TraceCacheDriver, PidTagsFromSwitchMarkers)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 2,
             .pid_tags = true});
    TraceCacheDriver driver(c, DriverOptions{});
    driver.Feed(MakeCtxSwitch(1, 0));
    driver.Feed(MemRecord(0x100, RecordType::kRead));
    driver.Feed(MakeCtxSwitch(2, 0));
    driver.Feed(MemRecord(0x100, RecordType::kRead));  // other pid: miss
    driver.Feed(MakeCtxSwitch(1, 0));
    driver.Feed(MemRecord(0x100, RecordType::kRead));  // pid 1 again: hit
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().accesses - c.stats().misses, 1u);
}

TEST(TraceCacheDriver, KernelRefsShareTagZero)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 2,
             .pid_tags = true});
    TraceCacheDriver driver(c, DriverOptions{});
    driver.Feed(MakeCtxSwitch(1, 0));
    driver.Feed(MemRecord(0x80000100, RecordType::kRead, true));
    driver.Feed(MakeCtxSwitch(2, 0));
    // The same kernel block from another process context still hits.
    driver.Feed(MemRecord(0x80000100, RecordType::kRead, true));
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(TraceCacheDriver, SplitICache)
{
    Cache d({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    Cache i({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    TraceCacheDriver driver(d, DriverOptions{}, &i);
    driver.Feed(MemRecord(0x100, RecordType::kIFetch));
    driver.Feed(MemRecord(0x200, RecordType::kRead));
    driver.Feed(MemRecord(0x300, RecordType::kWrite));
    EXPECT_EQ(i.stats().accesses, 1u);
    EXPECT_EQ(d.stats().accesses, 2u);
}

TEST(TraceCacheDriver, OnlyPidFilter)
{
    Cache c({.size_bytes = 1024, .block_bytes = 16, .assoc = 1});
    DriverOptions opts;
    opts.only_pid = 1;
    opts.include_kernel = false;
    TraceCacheDriver driver(c, opts);
    driver.Feed(MakeCtxSwitch(1, 0));
    driver.Feed(MemRecord(0x100, RecordType::kRead));
    driver.Feed(MakeCtxSwitch(2, 0));
    driver.Feed(MemRecord(0x200, RecordType::kRead));  // filtered
    EXPECT_EQ(driver.fed(), 1u);
    EXPECT_EQ(driver.filtered(), 1u);
}


// --- hierarchy ----------------------------------------------------------

TEST(Hierarchy, L1HitNeverReachesL2)
{
    cache::CacheHierarchy h({});
    h.Access(0x100, false, false);
    h.Access(0x100, false, false);  // L1D hit
    EXPECT_EQ(h.l2().stats().accesses, 1u);  // only the first miss
    EXPECT_EQ(h.accesses(), 2u);
}

TEST(Hierarchy, SplitRouting)
{
    cache::CacheHierarchy h({});
    h.Access(0x100, false, /*is_ifetch=*/true);
    h.Access(0x200, false, /*is_ifetch=*/false);
    h.Access(0x300, true, /*is_ifetch=*/false);
    EXPECT_EQ(h.l1i().stats().accesses, 1u);
    EXPECT_EQ(h.l1d().stats().accesses, 2u);
}

TEST(Hierarchy, L2CatchesL1ConflictMisses)
{
    // Two blocks that conflict in a 4K direct-mapped L1 coexist in a
    // larger 2-way L2, so repeated alternation hits L2 after warmup.
    cache::HierarchyConfig config;
    cache::CacheHierarchy h(config);
    for (int i = 0; i < 100; ++i) {
        h.Access(0x0000, false, false);
        h.Access(0x1000, false, false);  // conflicts with 0x0 in L1D
    }
    EXPECT_GT(h.l1d().stats().misses, 150u);   // L1 thrashes
    EXPECT_LE(h.memory_accesses(), 4u);        // but L2 absorbs it
    EXPECT_LT(h.GlobalMissRate(), 0.05);
}

TEST(Hierarchy, DirtyVictimWrittenThroughToL2)
{
    cache::HierarchyConfig config;
    cache::CacheHierarchy h(config);
    h.Access(0x0000, true, false);   // dirty in L1D
    h.Access(0x1000, false, false);  // evicts the dirty block
    // L2 saw: refill 0x0, refill 0x1000, writeback of 0x0.
    EXPECT_EQ(h.l2().stats().accesses, 3u);
    EXPECT_EQ(h.l2().stats().writes, 1u);
}

TEST(Hierarchy, AmatBetweenL1AndMemoryLatency)
{
    cache::HierarchyConfig config;
    cache::CacheHierarchy h(config);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        h.Access(rng.Below(1u << 16), rng.Below(4) == 0, rng.Below(4) == 0);
    EXPECT_GE(h.Amat(), 1.0);             // every reference hits L1
    EXPECT_LE(h.Amat(), 1.0 + 8.0 + 40.0);  // every reference goes to memory
    EXPECT_GT(h.Amat(), 1.0);
}

TEST(Hierarchy, FeedHandlesSwitchFlush)
{
    cache::HierarchyConfig config;
    config.flush_on_switch = true;
    cache::CacheHierarchy h(config);
    h.Feed(MemRecord(0x100, RecordType::kRead));
    h.Feed(MakeCtxSwitch(2, 0));
    h.Feed(MemRecord(0x100, RecordType::kRead));
    EXPECT_EQ(h.l1d().stats().misses, 2u);
    EXPECT_EQ(h.l2().stats().flushes, 1u);
}

TEST(Hierarchy, PteRecordsIgnored)
{
    cache::CacheHierarchy h({});
    h.Feed(MemRecord(0x100, RecordType::kPte, true));
    EXPECT_EQ(h.accesses(), 0u);
}


// --- write buffer --------------------------------------------------------

TEST(WriteBuffer, NoStallWhileSlotsFree)
{
    cache::WriteBuffer wb({.depth = 4});
    EXPECT_EQ(wb.Write(0x100), 0u);
    EXPECT_EQ(wb.Write(0x200), 0u);
    EXPECT_EQ(wb.Write(0x300), 0u);
    EXPECT_EQ(wb.Write(0x400), 0u);
    EXPECT_EQ(wb.stall_cycles(), 0u);
}

TEST(WriteBuffer, BackToBackBurstStalls)
{
    cache::WriteBuffer wb({.depth = 2});
    wb.Write(0x100);
    wb.Write(0x200);
    // Buffer full; the third store must wait for the first to retire.
    EXPECT_GT(wb.Write(0x300), 0u);
    EXPECT_GT(wb.stall_cycles(), 0u);
}

TEST(WriteBuffer, SpacedStoresNeverStall)
{
    cache::WriteBuffer wb({.depth = 1});
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(wb.Write(0x100 + 0x40 * i), 0u);
        for (uint32_t j = 0; j < cache::WriteBuffer::kRetireCycles; ++j)
            wb.OnReference();  // enough gap for the bus to retire
    }
    EXPECT_EQ(wb.stall_cycles(), 0u);
}

TEST(WriteBuffer, CoalescingAbsorbsSameBlockStores)
{
    cache::WriteBuffer wb({.depth = 1});
    wb.Write(0x100);
    EXPECT_EQ(wb.Write(0x102), 0u);  // same 4B block: coalesces
    EXPECT_EQ(wb.coalesced(), 1u);
    EXPECT_EQ(wb.stall_cycles(), 0u);
}

TEST(WriteBuffer, DeeperBufferStallsLess)
{
    auto stalls_with_depth = [](uint32_t depth) {
        cache::WriteBuffer wb({.depth = depth});
        Rng rng(77);
        for (int i = 0; i < 5000; ++i) {
            if (rng.Below(3) == 0)
                wb.Write(rng.Next32());
            else
                wb.OnReference();
        }
        return wb.stall_cycles();
    };
    const uint64_t d1 = stalls_with_depth(1);
    const uint64_t d4 = stalls_with_depth(4);
    const uint64_t d16 = stalls_with_depth(16);
    EXPECT_GT(d1, d4);
    EXPECT_GE(d4, d16);
}

TEST(WriteBufferDeath, BadConfigIsFatal)
{
    EXPECT_DEATH(cache::WriteBuffer({.depth = 0}), "depth");
}


// --- one-block lookahead --------------------------------------------------

TEST(Prefetch, SequentialScanMissesHalve)
{
    Cache plain({.size_bytes = 4096, .block_bytes = 16, .assoc = 1});
    Cache obl({.size_bytes = 4096, .block_bytes = 16, .assoc = 1,
               .prefetch_next_on_miss = true});
    for (uint32_t a = 0; a < 64 * 1024; a += 4) {
        plain.Access(a, false);
        obl.Access(a, false);
    }
    // Lookahead converts every other sequential miss into a hit.
    EXPECT_LT(obl.stats().misses, plain.stats().misses / 2 + 64);
    EXPECT_GT(obl.stats().prefetch_fills, 0u);
}

TEST(Prefetch, ResidentNextBlockNotRefetched)
{
    Cache c({.size_bytes = 4096, .block_bytes = 16, .assoc = 2,
             .prefetch_next_on_miss = true});
    c.Access(0x110, false);  // fills 0x110 block (and prefetches 0x120)
    const uint64_t fills = c.stats().prefetch_fills;
    c.Access(0x100, false);  // miss; next block 0x110 already resident
    EXPECT_EQ(c.stats().prefetch_fills, fills + 0u);
}

TEST(Prefetch, ConfigStringMentionsObl)
{
    Cache c({.size_bytes = 4096, .block_bytes = 16, .assoc = 1,
             .prefetch_next_on_miss = true});
    EXPECT_NE(c.config().ToString().find("obl"), std::string::npos);
}


// --- differential test against the reference model -------------------------

/**
 * The reference model: the straightforward cache the packed-line Cache
 * replaced (one struct per line with separate valid and dirty flags, the
 * set count's log taken per access). Cache must match it access for
 * access.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig& config)
        : config_(config), rng_(0x1badcafe)
    {
        const uint32_t blocks = config.size_bytes / config.block_bytes;
        const uint32_t assoc = config.assoc == 0 ? blocks : config.assoc;
        sets_ = blocks / assoc;
        config_.assoc = assoc;
        block_shift_ = Log2Floor(config.block_bytes);
        lines_.resize(blocks);
    }

    bool Access(uint32_t addr, bool is_write, uint16_t pid,
                uint32_t* writeback_addr)
    {
        ++stats_.accesses;
        if (is_write)
            ++stats_.writes;
        else
            ++stats_.reads;

        const uint32_t block = addr >> block_shift_;
        const uint32_t set = block & (sets_ - 1);
        uint64_t tag = block >> Log2Floor(sets_);
        if (config_.pid_tags)
            tag |= static_cast<uint64_t>(pid) << 32;

        Line* base = &lines_[static_cast<size_t>(set) * config_.assoc];
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            Line& line = base[w];
            if (line.valid && line.tag == tag) {
                if (config_.replacement == Replacement::kLru)
                    line.stamp = ++tick_;
                if (is_write && config_.write_back)
                    line.dirty = true;
                return true;
            }
        }

        ++stats_.misses;
        if (is_write)
            ++stats_.write_misses;
        else
            ++stats_.read_misses;

        Line& victim = Victim(set);
        if (victim.valid && victim.dirty) {
            ++stats_.writebacks;
            if (writeback_addr != nullptr) {
                const uint32_t victim_block =
                    (static_cast<uint32_t>(victim.tag) << Log2Floor(sets_)) |
                    set;
                *writeback_addr = victim_block << block_shift_;
            }
        }
        victim.valid = true;
        victim.dirty = is_write && config_.write_back;
        victim.tag = tag;
        victim.stamp = ++tick_;

        if (config_.prefetch_next_on_miss)
            Fill(block + 1, tag & ~0xffffffffull);
        return false;
    }

    void Flush()
    {
        ++stats_.flushes;
        for (Line& line : lines_) {
            if (line.valid) {
                ++stats_.flushed_blocks;
                if (line.dirty)
                    ++stats_.writebacks;
                line.valid = false;
                line.dirty = false;
            }
        }
    }

    const CacheStats& stats() const { return stats_; }

  private:
    struct Line {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t stamp = 0;
    };

    void Fill(uint32_t block, uint64_t tag_extra)
    {
        const uint32_t set = block & (sets_ - 1);
        uint64_t tag = (block >> Log2Floor(sets_)) | tag_extra;
        Line* base = &lines_[static_cast<size_t>(set) * config_.assoc];
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag)
                return;
        }
        Line& victim = Victim(set);
        if (victim.valid && victim.dirty)
            ++stats_.writebacks;
        victim.valid = true;
        victim.dirty = false;
        victim.tag = tag;
        victim.stamp = ++tick_;
        ++stats_.prefetch_fills;
    }

    Line& Victim(uint32_t set)
    {
        Line* base = &lines_[static_cast<size_t>(set) * config_.assoc];
        for (uint32_t w = 0; w < config_.assoc; ++w)
            if (!base[w].valid)
                return base[w];
        switch (config_.replacement) {
          case Replacement::kLru: {
            Line* victim = base;
            for (uint32_t w = 1; w < config_.assoc; ++w)
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
            return *victim;
          }
          case Replacement::kRandom:
            return base[rng_.Below(config_.assoc)];
        }
        Panic("bad replacement policy");
    }

    CacheConfig config_;
    uint32_t sets_;
    unsigned block_shift_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    Rng rng_;
    CacheStats stats_;
};

/** Every CacheStats field, for one-line comparison. */
std::vector<uint64_t>
StatFields(const CacheStats& s)
{
    return {s.accesses,   s.misses,     s.reads,          s.read_misses,
            s.writes,     s.write_misses, s.writebacks,   s.flushes,
            s.flushed_blocks, s.prefetch_fills};
}

/** The next address of a stream that revisits a hot region, aliases
 *  across sets, wanders at random, and runs into the top of memory. */
uint32_t
NextAddr(Rng& rng)
{
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2:
        return rng.Below(1024);                     // hot, fits the cache
      case 3:
      case 4:
        return rng.Below(16) * 4096 + rng.Below(64);  // aliases a set
      case 5:
        return 0xffffffffu - rng.Below(256);        // OBL runs off the top
      default:
        return rng.Next32();
    }
}

TEST(Cache, MatchesReferenceModel)
{
    // The grid: assoc 1/2/4/full x LRU/random x write-back/through x pid
    // tags x OBL prefetch, one seeded stream each, with flushes mixed in.
    static constexpr uint32_t kAssocs[] = {1, 2, 4, 0};
    static constexpr Replacement kPolicies[] = {Replacement::kLru,
                                                Replacement::kRandom};
    static constexpr uint16_t kPids[] = {0, 1, 2, 7, 0xffff};
    for (uint32_t i = 0; i < 4 * 2 * 2 * 2 * 2; ++i) {
        const CacheConfig config{.size_bytes = 512,
                                 .block_bytes = 16,
                                 .assoc = kAssocs[i % 4],
                                 .replacement = kPolicies[i / 4 % 2],
                                 .write_back = (i / 8 & 1) != 0,
                                 .pid_tags = (i / 16 & 1) != 0,
                                 .prefetch_next_on_miss = (i / 32 & 1) != 0};
        const std::string label =
            config.ToString() + " policy " +
            std::to_string(static_cast<int>(config.replacement));
        Cache cache(config);
        ReferenceCache reference(config);
        Rng rng(1000 + i);
        for (int step = 0; step < 4000; ++step) {
            if (rng.Below(250) == 0) {
                cache.Flush();
                reference.Flush();
            } else {
                const uint32_t addr = NextAddr(rng);
                const bool is_write = rng.Below(5) < 2;
                const uint16_t pid = kPids[rng.Below(5)];
                const bool ask_writeback = rng.Below(2) == 0;
                uint32_t got_wb = 0xdeadbeef;
                uint32_t want_wb = 0xdeadbeef;
                const bool hit = cache.Access(
                    addr, is_write, pid, ask_writeback ? &got_wb : nullptr);
                const bool want_hit = reference.Access(
                    addr, is_write, pid, ask_writeback ? &want_wb : nullptr);
                ASSERT_EQ(hit, want_hit) << label << " step " << step;
                ASSERT_EQ(got_wb, want_wb) << label << " step " << step;
            }
            ASSERT_EQ(StatFields(cache.stats()),
                      StatFields(reference.stats()))
                << label << " step " << step;
        }
    }
}

}  // namespace
}  // namespace atum::cache
