#include "analysis/working_set.h"

#include <algorithm>

#include "mem/physical_memory.h"
#include "util/logging.h"

namespace atum::analysis {

uint32_t
PageOf(const trace::Record& record)
{
    return record.addr >> kPageShift;
}

WorkingSetAnalyzer::WorkingSetAnalyzer(std::vector<uint64_t> windows)
    : windows_(std::move(windows)), min_sums_(windows_.size(), 0)
{
    if (windows_.empty())
        Fatal("WorkingSetAnalyzer needs at least one window");
    for (uint64_t w : windows_)
        if (w == 0)
            Fatal("working-set windows must be nonzero");
}

void
WorkingSetAnalyzer::Touch(uint32_t page)
{
    ++time_;
    auto [it, inserted] = last_access_.try_emplace(page, time_);
    if (inserted) {
        // First access: the page was absent for arbitrarily long before.
        for (size_t i = 0; i < windows_.size(); ++i)
            min_sums_[i] += windows_[i];
    } else {
        const uint64_t gap = time_ - it->second;
        for (size_t i = 0; i < windows_.size(); ++i)
            min_sums_[i] += std::min(gap, windows_[i]);
        it->second = time_;
    }
}

void
WorkingSetAnalyzer::Feed(const trace::Record& record)
{
    if (refs_.Classify(record) == trace::RefFilter::kRef)
        Touch(PageOf(record));
}

double
WorkingSetAnalyzer::AverageWorkingSet(size_t i) const
{
    if (i >= windows_.size())
        Panic("window index out of range");
    if (time_ == 0)
        return 0.0;
    return static_cast<double>(min_sums_[i]) / static_cast<double>(time_);
}

}  // namespace atum::analysis
