#ifndef ATUM_TRACE_STATS_H_
#define ATUM_TRACE_STATS_H_

/**
 * @file
 * Trace characterization: the per-trace summary statistics the ATUM paper
 * tabulated for each captured workload (reference counts by type, the
 * system/user split, write fraction, context-switch behaviour).
 */

#include <cstdint>
#include <map>
#include <string>

#include "trace/record.h"
#include "util/stats.h"

namespace atum::trace {

class TraceStats
{
  public:
    /** Feeds one record, in trace order (context tracking is stateful). */
    void Accumulate(const Record& record);

    uint64_t total() const { return total_; }
    uint64_t CountOf(RecordType type) const;
    /** Memory references only (ifetch + read + write + pte). */
    uint64_t mem_refs() const { return mem_refs_; }
    uint64_t kernel_refs() const { return kernel_refs_; }
    uint64_t user_refs() const { return mem_refs_ - kernel_refs_; }
    uint64_t context_switches() const;

    /** Fraction of memory references made in kernel mode, in [0,1]. */
    double KernelFraction() const;
    /** Fraction of data references (read+write) that are writes. */
    double WriteFraction() const;

    /** Memory references attributed to each pid (kernel refs under the
     *  pid that was running; pid 0 = before the first switch / kernel). */
    std::map<uint16_t, uint64_t> refs_by_pid() const;

    /** Histogram of memory references between context switches. */
    const Log2Histogram& switch_interval_refs() const
    {
        return switch_interval_refs_;
    }

    /** Multi-line human-readable summary. */
    std::string ToString() const;

  private:
    uint64_t total_ = 0;
    uint64_t by_type_[static_cast<size_t>(RecordType::kNumTypes)] = {};
    uint64_t mem_refs_ = 0;
    uint64_t kernel_refs_ = 0;
    /** Per-pid counts up to the latest switch; the running pid's refs
     *  since then are refs_since_switch_, folded in at the next switch. */
    std::map<uint16_t, uint64_t> refs_by_pid_;
    uint16_t current_pid_ = 0;
    uint64_t refs_since_switch_ = 0;
    Log2Histogram switch_interval_refs_;
};

}  // namespace atum::trace

#endif  // ATUM_TRACE_STATS_H_
