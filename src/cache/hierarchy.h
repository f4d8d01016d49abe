#ifndef ATUM_CACHE_HIERARCHY_H_
#define ATUM_CACHE_HIERARCHY_H_

/**
 * @file
 * A two-level cache hierarchy: split L1 I/D caches in front of a unified
 * L2. L1 misses and L1 dirty writebacks propagate into L2. Average memory
 * access time (AMAT) is computed from configurable level latencies —
 * the metric late-80s multi-level studies optimized once full-system
 * traces made realistic miss rates available.
 */

#include <cstdint>

#include "cache/cache.h"
#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::cache {

struct HierarchyConfig {
    CacheConfig l1i{.size_bytes = 4u << 10, .block_bytes = 16, .assoc = 1};
    CacheConfig l1d{.size_bytes = 4u << 10, .block_bytes = 16, .assoc = 1};
    CacheConfig l2{.size_bytes = 128u << 10, .block_bytes = 32, .assoc = 2};
    uint32_t l1_hit_cycles = 1;
    uint32_t l2_hit_cycles = 8;
    uint32_t memory_cycles = 40;
    bool flush_on_switch = false;  ///< flush all levels at context switches
};

class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig& config);

    /** One reference; `is_ifetch` routes to L1I, otherwise L1D. */
    void Access(uint32_t addr, bool is_write, bool is_ifetch,
                uint16_t pid = 0);

    /** Feeds a trace record (markers handle context switches). */
    void Feed(const trace::Record& record);

    const Cache& l1i() const { return l1i_; }
    const Cache& l1d() const { return l1d_; }
    const Cache& l2() const { return l2_; }

    uint64_t accesses() const { return accesses_; }
    /** References that missed in both levels. */
    uint64_t memory_accesses() const { return memory_accesses_; }
    /** Global miss rate: references served by memory / all references. */
    double GlobalMissRate() const;
    /** Average memory access time in cycles, per the config latencies. */
    double Amat() const;

  private:
    HierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    uint64_t accesses_ = 0;
    uint64_t l1_misses_ = 0;
    uint64_t memory_accesses_ = 0;
    trace::RefFilter refs_;
};

}  // namespace atum::cache

#endif  // ATUM_CACHE_HIERARCHY_H_
