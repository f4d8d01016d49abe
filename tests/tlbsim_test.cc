// Unit tests for the trace-driven TLB simulator.

#include <gtest/gtest.h>

#include <vector>

#include "mem/physical_memory.h"
#include "mmu/tlb.h"
#include "tlbsim/tlb_sim.h"
#include "trace/record.h"
#include "util/rng.h"
#include "util/serialize.h"

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

/** The Save bytes of `tlb`: its entries, LRU stamps and counters. */
std::vector<uint8_t>
SaveBytes(const mmu::Tlb& tlb)
{
    util::StateWriter w;
    EXPECT_TRUE(tlb.Save(w).ok());
    return w.bytes();
}

TEST(TlbSim, RememberedEntriesLeaveTheMachinesTbState)
{
    // TlbSim skips Lookup's scan for a vpn it remembers. The TB it leaves
    // must be byte-for-byte the one a plain Lookup/Insert loop leaves:
    // the same entries, LRU stamps, lookups and misses.
    struct Geometry {
        uint32_t entries, ways;
    };
    for (const Geometry g : {Geometry{64, 0}, Geometry{64, 2},
                             Geometry{8, 0}}) {
        const uint32_t ways = g.ways == 0 ? g.entries : g.ways;
        TlbSim sim({.entries = g.entries, .ways = g.ways});
        mmu::Tlb plain(g.entries / ways, ways);
        Rng rng(g.entries * 31 + ways);
        uint32_t hot = 0;
        for (int i = 0; i < 200000; ++i) {
            Record r;
            if (i % 5000 == 0) {  // a switch flushes the process pages
                r = MakeCtxSwitch(static_cast<uint16_t>(1 + i / 5000 % 3),
                                  0);
                plain.FlushProcessEntries();
            } else {
                // A hot page, a warm set larger than the TB, and kernel
                // pages, so entries are rehit, evicted and flushed.
                const uint32_t roll = rng.Below(10);
                if (roll < 6)
                    hot = roll == 0 ? rng.Below(96) : hot;
                const bool kernel = roll == 9;
                const uint32_t page =
                    roll < 6 ? hot : roll < 9 ? rng.Below(96) : rng.Below(40);
                r = Ref((kernel ? 0x80000000u : 0) + page * kPageBytes +
                            rng.Below(kPageBytes),
                        kernel);
                const uint32_t vpn = r.addr >> kPageShift;
                if (plain.Lookup(vpn) == nullptr)
                    plain.Insert({.vpn = vpn});
            }
            sim.Feed(r);
        }
        EXPECT_GT(sim.stats().misses, 1000u) << g.entries << "x" << ways;
        EXPECT_EQ(SaveBytes(sim.tlb()), SaveBytes(plain))
            << g.entries << "x" << ways;
    }
}

TEST(TlbSimDeath, BadGeometryIsFatal)
{
    EXPECT_DEATH(TlbSim({.entries = 0}), "power of two");
    EXPECT_DEATH(TlbSim({.entries = 12}), "power of two");
    EXPECT_DEATH(TlbSim({.entries = 8, .ways = 3}), "geometry");
}

}  // namespace
}  // namespace atum::tlbsim
