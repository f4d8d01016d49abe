#ifndef ATUM_ANALYSIS_PARALLEL_PROFILES_H_
#define ATUM_ANALYSIS_PARALLEL_PROFILES_H_

/**
 * @file
 * Per-process stack-distance profiles, computed in parallel. A cheap
 * serial pass finds the processes with references (kernel references
 * group under pid 0, the shared system space); then one worker task per
 * process scans the shared, read-only records with its own RefFilter and
 * feeds that process's references to its own StackDistanceAnalyzer, so
 * no substream is copied out. Processes are independent streams, so the
 * parallel result is bit-identical to profiling each one serially.
 */

#include <cstdint>
#include <vector>

#include "trace/record.h"

namespace atum::analysis {

/** The fully-associative LRU capacities, in 16-byte blocks (1 KB and
 *  16 KB), that a profile reports misses for. */
inline constexpr uint64_t kProfileCapacities[] = {64, 1024};

/** One process's locality profile. */
struct ProcessProfile {
    uint16_t pid = 0;
    uint64_t accesses = 0;
    uint64_t cold_misses = 0;
    uint64_t distinct_blocks = 0;
    /** Miss counts parallel to kProfileCapacities. */
    std::vector<uint64_t> misses_at_capacity;

    double MissRateAt(std::size_t i) const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses_at_capacity[i]) /
                                   static_cast<double>(accesses);
    }
};

/**
 * Profiles every process seen in `records`, one worker task per process
 * substream; kernel references profile as pid 0 when `include_kernel`.
 * Results are sorted by pid. `jobs` = 0 means one worker per hardware
 * thread.
 */
std::vector<ProcessProfile> PerProcessStackProfiles(
    const std::vector<trace::Record>& records, bool include_kernel,
    unsigned jobs);

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_PARALLEL_PROFILES_H_
