#ifndef ATUM_ANALYSIS_WORKING_SET_H_
#define ATUM_ANALYSIS_WORKING_SET_H_

/**
 * @file
 * Denning working-set analysis over ATUM traces (experiment F5): average
 * working-set size s(tau) = (1/T) * sum_t |W(t, tau)|, where W(t, tau) is
 * the set of pages referenced in the last tau references.
 *
 * Computed incrementally from inter-reference gaps: a page whose accesses
 * are g references apart is resident in the window for min(g, tau) of
 * those g steps, so s(tau) = sum over accesses of min(gap, tau) / T (the
 * first access of each page counts as a full-tau gap; the end-of-trace
 * truncation is negligible for T >> tau).
 */

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

class WorkingSetAnalyzer
{
  public:
    /** `windows` are the tau values (in references) to evaluate. */
    explicit WorkingSetAnalyzer(std::vector<uint64_t> windows);

    /** Feeds one memory reference's page; markers and PTE refs are
     *  skipped by the Feed(Record) overload. */
    void Touch(uint32_t page);
    void Feed(const trace::Record& record);

    /** Total references seen. */
    uint64_t total_refs() const { return time_; }
    /** Distinct pages seen. */
    uint64_t distinct_pages() const { return last_access_.size(); }

    const std::vector<uint64_t>& windows() const { return windows_; }
    /** Average working-set size (pages) for windows()[i]. */
    double AverageWorkingSet(size_t i) const;

  private:
    std::vector<uint64_t> windows_;
    std::vector<uint64_t> min_sums_;
    std::unordered_map<uint32_t, uint64_t> last_access_;
    uint64_t time_ = 0;
    trace::RefFilter refs_;
};

/** Extracts the page number of a memory record (512-byte pages). */
uint32_t PageOf(const trace::Record& record);

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_WORKING_SET_H_
