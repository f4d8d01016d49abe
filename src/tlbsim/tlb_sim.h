#ifndef ATUM_TLBSIM_TLB_SIM_H_
#define ATUM_TLBSIM_TLB_SIM_H_

/**
 * @file
 * Trace-driven TLB simulation (experiment T4): how big a translation
 * buffer must be once operating-system references and context-switch
 * flushes are accounted for — one of the questions ATUM's full-system
 * traces made answerable.
 */

#include <cstdint>

#include "mmu/tlb.h"
#include "trace/record.h"
#include "trace/ref_filter.h"
#include "util/status.h"

namespace atum::tlbsim {

struct TlbSimConfig {
    uint32_t entries = 64;
    uint32_t ways = 0;  ///< 0 = fully associative
    bool include_kernel = true;
    bool include_pte = false;        ///< PTE refs are physical; usually skip
    bool flush_on_switch = true;     ///< no ASIDs, VAX-style
    bool flush_system_too = false;   ///< flush S0 entries as well
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
 */
class TlbSim
{
  public:
    explicit TlbSim(const TlbSimConfig& config);

    /** Feeds one trace record, in order. */
    void Feed(const trace::Record& record);

    TlbSimStats stats() const
    {
        return {.accesses = tlb_.lookups(), .misses = tlb_.misses(),
                .flushes = flushes_};
    }

  private:
    TlbSimConfig config_;
    mmu::Tlb tlb_;
    trace::RefFilter refs_;
    uint64_t flushes_ = 0;
};

}  // namespace atum::tlbsim

#endif  // ATUM_TLBSIM_TLB_SIM_H_
