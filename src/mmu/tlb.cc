#include "mmu/tlb.h"

#include "mem/physical_memory.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace atum::mmu {

namespace {
/** First virtual page number of the S0 (system) region. */
constexpr uint32_t kS0BaseVpn = 0x80000000u >> kPageShift;
}  // namespace

Tlb::Tlb(unsigned sets, unsigned ways) : sets_(sets), ways_(ways)
{
    if (sets == 0 || ways == 0 || !IsPowerOfTwo(sets))
        Fatal("TB geometry must be power-of-two sets x (>=1) ways, got ",
              sets, "x", ways);
    entries_.resize(static_cast<size_t>(sets) * ways);
}

TlbEntry&
Tlb::VictimIn(unsigned set)
{
    TlbEntry* victim = &entries_[static_cast<size_t>(set) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        TlbEntry& e = entries_[static_cast<size_t>(set) * ways_ + w];
        if (!e.valid)
            return e;
        if (e.lru < victim->lru)
            victim = &e;
    }
    return *victim;
}

TlbEntry*
Tlb::Insert(const TlbEntry& entry)
{
    const unsigned set = entry.vpn & (sets_ - 1);
    TlbEntry& slot = VictimIn(set);
    slot = entry;
    slot.valid = true;
    slot.lru = ++stamp_;
    return &slot;
}

void
Tlb::InvalidateAll()
{
    for (auto& e : entries_)
        e.valid = false;
}

void
Tlb::InvalidateVa(uint32_t vaddr)
{
    const uint32_t vpn = vaddr >> kPageShift;
    const unsigned set = vpn & (sets_ - 1);
    for (unsigned w = 0; w < ways_; ++w) {
        TlbEntry& e = entries_[static_cast<size_t>(set) * ways_ + w];
        if (e.valid && e.vpn == vpn)
            e.valid = false;
    }
}

unsigned
Tlb::FlushProcessEntries()
{
    unsigned flushed = 0;
    for (auto& e : entries_) {
        if (e.valid && e.vpn < kS0BaseVpn) {
            e.valid = false;
            ++flushed;
        }
    }
    return flushed;
}

util::Status
Tlb::Save(util::StateWriter& w) const
{
    w.U32(sets_);
    w.U32(ways_);
    w.U64(stamp_);
    w.U64(lookups_);
    w.U64(misses_);
    for (const TlbEntry& e : entries_) {
        w.Bool(e.valid);
        w.U32(e.vpn);
        w.U32(e.pfn);
        w.U8(static_cast<uint8_t>((e.user ? 1 : 0) | (e.writable ? 2 : 0) |
                                  (e.modified ? 4 : 0)));
        w.U64(e.lru);
    }
    return util::OkStatus();
}

util::Status
Tlb::Restore(util::StateReader& r)
{
    const uint32_t saved_sets = r.U32();
    const uint32_t saved_ways = r.U32();
    if (!r.ok())
        return r.status();
    if (saved_sets != sets_ || saved_ways != ways_) {
        return util::DataLoss("checkpoint TB geometry ", saved_sets, "x",
                              saved_ways, " does not match machine TB ",
                              sets_, "x", ways_);
    }
    stamp_ = r.U64();
    lookups_ = r.U64();
    misses_ = r.U64();
    for (TlbEntry& e : entries_) {
        e.valid = r.Bool();
        e.vpn = r.U32();
        e.pfn = r.U32();
        const uint8_t flags = r.U8();
        e.user = flags & 1;
        e.writable = flags & 2;
        e.modified = flags & 4;
        e.lru = r.U64();
    }
    return r.status();
}

}  // namespace atum::mmu
