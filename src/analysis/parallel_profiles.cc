#include "analysis/parallel_profiles.h"

#include <map>

#include "analysis/stack_distance.h"
#include "replay/thread_pool.h"
#include "trace/ref_filter.h"

namespace atum::analysis {

using trace::Record;

std::vector<ProcessProfile>
PerProcessStackProfiles(const std::vector<Record>& records,
                        const ProcessProfileOptions& options, unsigned jobs)
{
    // Serial split: per-pid block substreams, in trace order.
    std::map<uint16_t, std::vector<uint32_t>> substreams;
    trace::RefFilter refs({.include_kernel = options.include_kernel});
    for (const Record& r : records) {
        if (refs.Classify(r) == trace::RefFilter::kRef)
            substreams[refs.PidOf(r)].push_back(r.addr >>
                                                options.block_shift);
    }

    std::vector<ProcessProfile> profiles(substreams.size());
    replay::ThreadPool pool(jobs);
    std::size_t slot = 0;
    for (const auto& [pid, blocks] : substreams) {
        ProcessProfile* out = &profiles[slot++];
        out->pid = pid;
        const std::vector<uint32_t>* stream = &blocks;
        pool.Submit([out, stream, &options] {
            StackDistanceAnalyzer sd(0);  // stream is already blocks
            for (uint32_t block : *stream)
                sd.TouchBlock(block);
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
