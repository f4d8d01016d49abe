#ifndef ATUM_TLBSIM_TLB_SIM_H_
#define ATUM_TLBSIM_TLB_SIM_H_

/**
 * @file
 * Trace-driven TLB simulation (experiment T4): how big a translation
 * buffer must be once operating-system references and context-switch
 * flushes are accounted for — one of the questions ATUM's full-system
 * traces made answerable.
 *
 * PTE references carry physical addresses, so they never reach the
 * virtually addressed TB. A context switch flushes the process entries
 * and keeps the system (S0) ones, as the machine's LDPCTX does.
 */

#include <array>
#include <cstdint>

#include "mem/physical_memory.h"
#include "mmu/tlb.h"
#include "trace/record.h"
#include "trace/ref_filter.h"
#include "util/status.h"

namespace atum::tlbsim {

struct TlbSimConfig {
    uint32_t entries = 64;
    uint32_t ways = 0;  ///< 0 = fully associative
    bool include_kernel = true;
    bool flush_on_switch = true;  ///< no ASIDs, VAX-style
};

/**
 * Checks a TLB geometry without constructing; TlbSim's constructor
 * Fatals on the same conditions. Sweep workers validate first so a bad
 * row errors out instead of killing the whole sweep.
 */
util::Status ValidateConfig(const TlbSimConfig& config);

struct TlbSimStats {
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t flushes = 0;

    double MissRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/**
 * The machine's TB (mmu::Tlb) driven by a trace instead of the MMU: a hit
 * is a Lookup, a miss a Lookup then an Insert, so replacement and LRU
 * order are the machine's own.
 *
 * Most references hit the page the same vpn hit last time, so a small
 * table indexed by vpn remembers the entry each vpn was last found or
 * put in. An entry still valid with that vpn is the one a Lookup would
 * scan to, since a vpn lives in at most one entry (it is inserted only
 * after a Lookup misses it); Rehit then counts the hit as Lookup would.
 * Anything else falls back to Lookup. The table points into this
 * object's TB, so a TlbSim is neither copied nor moved.
 */
class TlbSim
{
  public:
    explicit TlbSim(const TlbSimConfig& config);
    TlbSim(const TlbSim&) = delete;
    TlbSim& operator=(const TlbSim&) = delete;

    /** Feeds one trace record, in order. */
    void Feed(const trace::Record& record)
    {
        switch (refs_.Classify(record)) {
          case trace::RefFilter::kSwitch:
            Switch();
            return;
          case trace::RefFilter::kRef: {
            const uint32_t vpn = record.addr >> kPageShift;
            mmu::TlbEntry*& known = memo_[MemoSlot(vpn)];
            if (known != nullptr && known->valid && known->vpn == vpn)
                tlb_.Rehit(*known);
            else
                known = LookupOrInsert(vpn);
            return;
          }
          default:
            return;
        }
    }

    TlbSimStats stats() const
    {
        return {.accesses = tlb_.lookups(), .misses = tlb_.misses(),
                .flushes = flushes_};
    }

    /** The simulated TB, for its Save bytes. */
    const mmu::Tlb& tlb() const { return tlb_; }

  private:
    /** Entries of the vpn-indexed table (a power of two). */
    static constexpr size_t kMemoSlots = 1024;

    static size_t MemoSlot(uint32_t vpn)
    {
        // Fold the region bits down, so system and process pages with
        // equal low bits take different slots.
        return (vpn ^ vpn >> 13) & (kMemoSlots - 1);
    }

    void Switch();
    /** A Lookup of `vpn`, then an Insert if it missed: the entry that
     *  holds it now. */
    mmu::TlbEntry* LookupOrInsert(uint32_t vpn);

    TlbSimConfig config_;
    mmu::Tlb tlb_;
    trace::RefFilter refs_;
    uint64_t flushes_ = 0;
    std::array<mmu::TlbEntry*, kMemoSlots> memo_{};
};

}  // namespace atum::tlbsim

#endif  // ATUM_TLBSIM_TLB_SIM_H_
