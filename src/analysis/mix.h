#ifndef ATUM_ANALYSIS_MIX_H_
#define ATUM_ANALYSIS_MIX_H_

/**
 * @file
 * Footprint analysis: distinct pages touched, split by mode and process —
 * the "how much memory does a full-system workload really cover" numbers
 * that user-only traces understated.
 */

#include <cstdint>
#include <map>
#include <set>

#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

class FootprintAnalyzer
{
  public:
    void Feed(const trace::Record& record);

    uint64_t total_pages() const { return all_pages_.size(); }
    uint64_t kernel_pages() const { return kernel_pages_.size(); }
    uint64_t user_pages() const { return user_pages_.size(); }
    /** Distinct user pages per pid (kernel references excluded). */
    const std::map<uint16_t, std::set<uint32_t>>& per_pid() const
    {
        return per_pid_pages_;
    }

  private:
    std::set<uint32_t> all_pages_;
    std::set<uint32_t> kernel_pages_;
    std::set<uint32_t> user_pages_;
    std::map<uint16_t, std::set<uint32_t>> per_pid_pages_;
    trace::RefFilter refs_;
};

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_MIX_H_
