#include "analysis/compare.h"

#include "util/bitops.h"

namespace atum::analysis {

using cache::Cache;
using cache::CacheConfig;
using cache::DriverOptions;
using cache::TraceCacheDriver;

cache::CacheStats
SimulateCache(const std::vector<trace::Record>& records,
              const CacheConfig& config, const DriverOptions& options)
{
    Cache c(config);
    TraceCacheDriver driver(c, options);
    for (const trace::Record& r : records)
        driver.Feed(r);
    return c.stats();
}

std::vector<SweepPoint>
SweepCacheSize(const std::vector<trace::Record>& records,
               const std::vector<uint32_t>& sizes, CacheConfig base,
               const DriverOptions& options)
{
    std::vector<SweepPoint> out;
    for (uint32_t size : sizes) {
        base.size_bytes = size;
        const auto stats = SimulateCache(records, base, options);
        out.push_back({size, stats.MissRate(), stats.accesses});
    }
    return out;
}

std::vector<SweepPoint>
SweepBlockSize(const std::vector<trace::Record>& records,
               const std::vector<uint32_t>& blocks, CacheConfig base,
               const DriverOptions& options)
{
    std::vector<SweepPoint> out;
    for (uint32_t block : blocks) {
        base.block_bytes = block;
        const auto stats = SimulateCache(records, base, options);
        out.push_back({block, stats.MissRate(), stats.accesses});
    }
    return out;
}

std::vector<SweepPoint>
SweepAssociativity(const std::vector<trace::Record>& records,
                   const std::vector<uint32_t>& assocs, CacheConfig base,
                   const DriverOptions& options)
{
    std::vector<SweepPoint> out;
    for (uint32_t assoc : assocs) {
        base.assoc = assoc;
        const auto stats = SimulateCache(records, base, options);
        out.push_back({assoc, stats.MissRate(), stats.accesses});
    }
    return out;
}

SampledStats
SetSampledMissRate(const std::vector<trace::Record>& records,
                   const CacheConfig& config, const DriverOptions& options,
                   unsigned sample_shift)
{
    Cache c(config);
    const uint32_t sets = c.num_sets();
    const uint32_t sample_mask = (1u << sample_shift) - 1;
    const unsigned block_shift = Log2Floor(config.block_bytes);

    trace::RefFilter refs = cache::RefFilterFor(options);
    SampledStats stats;
    for (const trace::Record& r : records) {
        const trace::RefFilter::Verdict verdict = refs.Classify(r);
        if (verdict == trace::RefFilter::kSwitch && options.flush_on_switch)
            c.Flush();
        if (verdict != trace::RefFilter::kRef)
            continue;
        const uint32_t set = (r.addr >> block_shift) & (sets - 1);
        // Hash-select sets: alignment-free sampling (see header).
        const uint32_t pick = (set * 2654435761u) >> 16;
        if ((pick & sample_mask) != 0)
            continue;  // not a sampled set
        ++stats.sampled_accesses;
        if (!c.Access(r.addr, r.type == trace::RecordType::kWrite,
                      refs.PidOf(r))) {
            ++stats.sampled_misses;
        }
    }
    return stats;
}

}  // namespace atum::analysis
