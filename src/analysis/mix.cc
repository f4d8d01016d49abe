#include "analysis/mix.h"

#include "analysis/working_set.h"

namespace atum::analysis {

void
FootprintAnalyzer::Feed(const trace::Record& record)
{
    if (refs_.Classify(record) != trace::RefFilter::kRef)
        return;
    const uint32_t page = PageOf(record);
    all_pages_.insert(page);
    if (record.kernel()) {
        kernel_pages_.insert(page);
    } else {
        user_pages_.insert(page);
        per_pid_pages_[refs_.PidOf(record)].insert(page);
    }
}

}  // namespace atum::analysis
