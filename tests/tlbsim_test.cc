// Unit tests for the trace-driven TLB simulator.

#include <gtest/gtest.h>

#include "mem/physical_memory.h"
#include "tlbsim/tlb_sim.h"
#include "trace/record.h"

namespace atum::tlbsim {
namespace {

using trace::MakeCtxSwitch;
using trace::MakeFlags;
using trace::Record;
using trace::RecordType;

Record
Ref(uint32_t addr, bool kernel = false)
{
    Record r;
    r.addr = addr;
    r.type = RecordType::kRead;
    r.flags = MakeFlags(kernel, 4);
    return r;
}

TEST(TlbSim, SamePageHits)
{
    TlbSim sim({.entries = 8});
    sim.Feed(Ref(0x1000));
    sim.Feed(Ref(0x1004));
    sim.Feed(Ref(0x11ff));
    EXPECT_EQ(sim.stats().accesses, 3u);
    EXPECT_EQ(sim.stats().misses, 1u);
}

TEST(TlbSim, DistinctPagesMiss)
{
    TlbSim sim({.entries = 8});
    for (uint32_t p = 0; p < 8; ++p)
        sim.Feed(Ref(p * kPageBytes));
    EXPECT_EQ(sim.stats().misses, 8u);
    for (uint32_t p = 0; p < 8; ++p)
        sim.Feed(Ref(p * kPageBytes));
    EXPECT_EQ(sim.stats().misses, 8u);  // all resident now
}

TEST(TlbSim, CapacityEvictionLru)
{
    TlbSim sim({.entries = 4});  // fully associative
    for (uint32_t p = 0; p < 5; ++p)
        sim.Feed(Ref(p * kPageBytes));
    // Page 0 was LRU and got evicted by page 4.
    sim.Feed(Ref(0));
    EXPECT_EQ(sim.stats().misses, 6u);
    sim.Feed(Ref(4 * kPageBytes));  // wait: page 1 was evicted by page 0
    EXPECT_EQ(sim.stats().misses, 6u);
}

TEST(TlbSim, ContextSwitchFlushesProcessPages)
{
    TlbSim sim({.entries = 16});
    sim.Feed(Ref(0x1000));                    // user page
    sim.Feed(Ref(0x80001000, /*kernel=*/true));  // system page
    sim.Feed(MakeCtxSwitch(2, 0));
    sim.Feed(Ref(0x1000));        // flushed: miss
    sim.Feed(Ref(0x80001000, true));  // retained: hit
    EXPECT_EQ(sim.stats().misses, 3u);
    EXPECT_EQ(sim.stats().flushes, 1u);
}

TEST(TlbSim, PteRecordsMakeNoLookup)
{
    // A PTE reference carries a physical address: it never reaches the TB.
    TlbSim sim({.entries = 16});
    for (bool kernel : {false, true}) {
        Record pte = Ref(0x2000, kernel);
        pte.type = RecordType::kPte;
        sim.Feed(pte);
    }
    EXPECT_EQ(sim.stats().accesses, 0u);
    EXPECT_EQ(sim.stats().misses, 0u);
    sim.Feed(Ref(0x2000));  // the same page as a virtual reference: a miss
    EXPECT_EQ(sim.stats().accesses, 1u);
    EXPECT_EQ(sim.stats().misses, 1u);
}

TEST(TlbSim, NoFlushOption)
{
    TlbSim sim({.entries = 16, .flush_on_switch = false});
    sim.Feed(Ref(0x1000));
    sim.Feed(MakeCtxSwitch(2, 0));
    sim.Feed(Ref(0x1000));
    EXPECT_EQ(sim.stats().misses, 1u);
    EXPECT_EQ(sim.stats().flushes, 0u);
}

TEST(TlbSim, KernelFilter)
{
    TlbSim sim({.entries = 16, .include_kernel = false});
    sim.Feed(Ref(0x80001000, true));
    EXPECT_EQ(sim.stats().accesses, 0u);
    sim.Feed(Ref(0x1000, false));
    EXPECT_EQ(sim.stats().accesses, 1u);
}

TEST(TlbSim, SetAssociativeGeometry)
{
    TlbSim sim({.entries = 8, .ways = 2});  // 4 sets x 2 ways
    // Pages 0, 4, 8 map to set 0; with 2 ways the third evicts.
    sim.Feed(Ref(0 * kPageBytes));
    sim.Feed(Ref(4 * kPageBytes));
    sim.Feed(Ref(8 * kPageBytes));
    sim.Feed(Ref(0 * kPageBytes));  // evicted: miss
    EXPECT_EQ(sim.stats().misses, 4u);
}

TEST(TlbSimDeath, BadGeometryIsFatal)
{
    EXPECT_DEATH(TlbSim({.entries = 0}), "power of two");
    EXPECT_DEATH(TlbSim({.entries = 12}), "power of two");
    EXPECT_DEATH(TlbSim({.entries = 8, .ways = 3}), "geometry");
}

}  // namespace
}  // namespace atum::tlbsim
