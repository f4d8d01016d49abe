#ifndef ATUM_MMU_TLB_H_
#define ATUM_MMU_TLB_H_

/**
 * @file
 * The hardware translation buffer (TB).
 *
 * Set-associative, LRU-replaced, VAX-style: entries are tagged by virtual
 * page number only — there are no address-space identifiers, so a context
 * switch must flush all process-space (P0/P1) entries. That flush is what
 * makes multiprogramming visible in TB miss traffic, one of the effects
 * ATUM's full-system traces exposed.
 */

#include <cstdint>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace atum::mmu {

/** One cached translation. */
struct TlbEntry {
    bool valid = false;
    uint32_t vpn = 0;  ///< global virtual page number (vaddr >> 9)
    uint32_t pfn = 0;
    bool user = false;      ///< user mode may access
    bool writable = false;  ///< writes permitted
    bool modified = false;  ///< a write has been performed via this entry
    uint64_t lru = 0;       ///< last-use stamp
};

class Tlb
{
  public:
    /** Creates a TB with `sets` x `ways` entries; both must be >= 1 and
     *  `sets` a power of two. Default geometry mimics a small-mini TB. */
    explicit Tlb(unsigned sets = 32, unsigned ways = 2);

    /**
     * Returns the matching valid entry or nullptr. Updates LRU on hit.
     *
     * Inline, because every translated reference makes one lookup. Its
     * updates are machine state, not statistics: lookups, misses, the
     * stamp and each entry's LRU are checkpointed, and the stamps decide
     * which entry a later miss evicts, so they shape the TB-miss records
     * in the trace. Any rewrite must keep this order: ++lookups_ first,
     * then on a hit `e.lru = ++stamp_`, or on a miss ++misses_.
     * Forced inline with Mmu::Translate's TB-hit path.
     */
    [[gnu::always_inline]] TlbEntry* Lookup(uint32_t vpn)
    {
        ++lookups_;
        const unsigned set = vpn & (sets_ - 1);
        TlbEntry* row = entries_.data() + static_cast<size_t>(set) * ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            TlbEntry& e = row[w];
            if (e.valid && e.vpn == vpn) {
                e.lru = ++stamp_;
                return &e;
            }
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Counts a hit on `e`, an entry of this TB that holds the vpn looked
     * up: exactly what Lookup does on that hit, without the scan. A
     * caller that remembers where a vpn lives (tlbsim::TlbSim) checks
     * the entry is still valid with that vpn first.
     */
    void Rehit(TlbEntry& e)
    {
        ++lookups_;
        e.lru = ++stamp_;
    }

    /** Installs a translation, evicting the set's LRU entry if needed.
     *  Returns the slot it filled. */
    TlbEntry* Insert(const TlbEntry& entry);

    /** Invalidates everything (MTPR TBIA). */
    void InvalidateAll();

    /** Invalidates the entry mapping `vaddr`, if present (MTPR TBIS). */
    void InvalidateVa(uint32_t vaddr);

    /**
     * Invalidates all process-space entries (vpn below the S0 region),
     * as LDPCTX does on a context switch. Returns the number flushed.
     */
    unsigned FlushProcessEntries();

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /**
     * Serializes the full TB — entries, LRU stamps and statistics
     * (checkpoint hook). The TB must be restored exactly, not flushed:
     * a resumed capture replays the same miss stream, and TB-miss
     * records are part of the trace the resume must reproduce
     * byte-for-byte.
     */
    util::Status Save(util::StateWriter& w) const;
    /** Restores state saved by Save; geometry must match. */
    util::Status Restore(util::StateReader& r);

    uint64_t lookups() const { return lookups_; }
    uint64_t misses() const { return misses_; }

  private:
    TlbEntry& VictimIn(unsigned set);

    unsigned sets_;
    unsigned ways_;
    std::vector<TlbEntry> entries_;  ///< sets_ x ways_, row-major
    uint64_t stamp_ = 0;
    uint64_t lookups_ = 0;
    uint64_t misses_ = 0;
};

}  // namespace atum::mmu

#endif  // ATUM_MMU_TLB_H_
