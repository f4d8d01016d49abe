#include "analysis/parallel_profiles.h"

#include "analysis/stack_distance.h"
#include "replay/thread_pool.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

using trace::Record;

std::vector<ProcessProfile>
PerProcessStackProfiles(const std::vector<Record>& records,
                        const ProcessProfileOptions& options, unsigned jobs)
{
    const trace::RefFilter::Options filter{.include_kernel =
                                               options.include_kernel};
    // Serial pass: which pids have references at all.
    std::vector<bool> seen(size_t{1} << 16);
    trace::RefFilter refs(filter);
    for (const Record& r : records) {
        if (refs.Classify(r) == trace::RefFilter::kRef)
            seen[refs.PidOf(r)] = true;
    }
    std::vector<ProcessProfile> profiles;
    for (size_t pid = 0; pid < seen.size(); ++pid) {
        if (seen[pid])
            profiles.emplace_back().pid = static_cast<uint16_t>(pid);
    }

    // One task per pid, each scanning the shared records for its own.
    replay::ThreadPool pool(jobs);
    for (ProcessProfile& profile : profiles) {
        ProcessProfile* out = &profile;
        pool.Submit([out, &records, &options, filter] {
            trace::RefFilter mine(filter);
            StackDistanceAnalyzer sd(0);  // fed blocks, not addresses
            for (const Record& r : records) {
                if (mine.Classify(r) == trace::RefFilter::kRef &&
                    mine.PidOf(r) == out->pid)
                    sd.TouchBlock(r.addr >> options.block_shift);
            }
            out->accesses = sd.total_accesses();
            out->cold_misses = sd.cold_misses();
            out->distinct_blocks = sd.distinct_blocks();
            out->misses_at_capacity.reserve(options.capacities.size());
            for (uint64_t capacity : options.capacities)
                out->misses_at_capacity.push_back(
                    sd.MissesForCapacity(capacity));
        });
    }
    pool.Wait();
    return profiles;
}

}  // namespace atum::analysis
