#ifndef ATUM_ANALYSIS_COMPARE_H_
#define ATUM_ANALYSIS_COMPARE_H_

/**
 * @file
 * Shared experiment plumbing: run a captured record stream through cache
 * configurations and report miss rates. Used by the benchmark harnesses
 * for the full-system vs user-only comparisons.
 */

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "cache/trace_driver.h"
#include "trace/record.h"

namespace atum::analysis {

/** Simulates `records` through one cache; returns the final statistics. */
cache::CacheStats SimulateCache(const std::vector<trace::Record>& records,
                                const cache::CacheConfig& config,
                                const cache::DriverOptions& options);

/** Result of a set-sampled simulation (see SetSampledMissRate). */
struct SampledStats {
    uint64_t sampled_accesses = 0;
    uint64_t sampled_misses = 0;
    double MissRate() const
    {
        return sampled_accesses == 0
                   ? 0.0
                   : static_cast<double>(sampled_misses) /
                         static_cast<double>(sampled_accesses);
    }
};

/**
 * Set sampling: simulates only a 1/2^`sample_shift` subset of the cache
 * sets, the classic cost reducer for big-trace cache studies. Sets do not
 * interact, so results for the sampled sets are exact; estimate error
 * comes purely from which sets are chosen. Selection hashes the set
 * index (Fibonacci multiplier) — naive "set % 2^k == 0" selection is
 * badly skewed by page-aligned kernel structures, a pitfall the sampling
 * literature documented.
 */
SampledStats SetSampledMissRate(const std::vector<trace::Record>& records,
                                const cache::CacheConfig& config,
                                const cache::DriverOptions& options,
                                unsigned sample_shift);

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_COMPARE_H_
