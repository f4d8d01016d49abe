#ifndef ATUM_CACHE_TRACE_DRIVER_H_
#define ATUM_CACHE_TRACE_DRIVER_H_

/**
 * @file
 * Feeds ATUM trace records into cache models, with the filtering options
 * the paper's comparisons require (full-system vs user-only, unified vs
 * split I/D, flush-on-switch vs PID-tagged). Every instruction fetch is
 * fed; PTE references, which carry physical addresses, never are
 * (trace/ref_filter.h).
 */

#include <cstddef>
#include <cstdint>

#include "cache/cache.h"
#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::cache {

/** Record filtering and multiprogramming discipline. */
struct DriverOptions {
    bool include_kernel = true;  ///< false models user-only trace studies
    bool flush_on_switch = false;  ///< flush caches at context switches
    uint16_t only_pid = 0;         ///< nonzero: keep just this process
};

/** The reference filter `options` select (trace/ref_filter.h). */
inline trace::RefFilter
RefFilterFor(const DriverOptions& options)
{
    return trace::RefFilter({.include_kernel = options.include_kernel,
                             .only_pid = options.only_pid});
}

class TraceCacheDriver
{
  public:
    /**
     * `unified` receives all selected references. Pass a separate
     * `icache` to split the instruction stream off into it. Caches are
     * borrowed and must outlive the driver.
     */
    explicit TraceCacheDriver(Cache& unified, const DriverOptions& options,
                              Cache* icache = nullptr)
        : dcache_(unified),
          icache_(icache),
          flush_on_switch_(options.flush_on_switch),
          refs_(RefFilterFor(options))
    {
    }

    /** Feeds one record (records must arrive in trace order). */
    void Feed(const trace::Record& record);

    /**
     * Feeds `records[0, n)`, as n calls of Feed would. Without an icache
     * the loop holds the cache's counters and LRU tick, and this
     * driver's, in locals until the slice ends, and the probe is
     * unrolled for 1, 2 and 4 ways.
     */
    void FeedSlice(const trace::Record* records, size_t n);

    /** References accepted (fed into a cache). */
    uint64_t fed() const { return fed_; }
    /** References rejected by the filters. */
    uint64_t filtered() const { return filtered_; }

  private:
    template <uint32_t kWays>
    void FeedSliceIn(const trace::Record* records, size_t n);

    Cache& dcache_;
    Cache* icache_;
    bool flush_on_switch_;
    trace::RefFilter refs_;
    uint64_t fed_ = 0;
    uint64_t filtered_ = 0;
};

inline void
TraceCacheDriver::Feed(const trace::Record& record)
{
    switch (refs_.Classify(record)) {
      case trace::RefFilter::kMarker:
        return;
      case trace::RefFilter::kSwitch:
        if (flush_on_switch_) {
            dcache_.Flush();
            if (icache_ != nullptr)
                icache_->Flush();
        }
        return;
      case trace::RefFilter::kFiltered:
        ++filtered_;
        return;
      case trace::RefFilter::kRef:
        break;
    }
    const uint16_t pid = refs_.PidOf(record);
    const bool is_write = record.type == trace::RecordType::kWrite;
    if (record.type == trace::RecordType::kIFetch && icache_ != nullptr)
        icache_->Access(record.addr, false, pid);
    else
        dcache_.Access(record.addr, is_write, pid);
    ++fed_;
}

template <uint32_t kWays>
void
TraceCacheDriver::FeedSliceIn(const trace::Record* records, size_t n)
{
    Cache& cache = dcache_;
    Cache::Tally tally = cache.tally_;
    trace::RefFilter refs = refs_;
    uint64_t filtered = filtered_;
    for (size_t i = 0; i < n; ++i) {
        const trace::Record& record = records[i];
        switch (refs.Classify(record)) {
          case trace::RefFilter::kMarker:
            continue;
          case trace::RefFilter::kSwitch:
            if (flush_on_switch_)
                cache.Flush();
            continue;
          case trace::RefFilter::kFiltered:
            ++filtered;
            continue;
          case trace::RefFilter::kRef:
            break;
        }
        cache.AccessIn<kWays>(tally, record.addr,
                              record.type == trace::RecordType::kWrite,
                              refs.PidOf(record), nullptr);
    }
    // Each reference fed is one access.
    fed_ += tally.accesses - cache.tally_.accesses;
    cache.tally_ = tally;
    refs_ = refs;
    filtered_ = filtered;
}

inline void
TraceCacheDriver::FeedSlice(const trace::Record* records, size_t n)
{
    if (icache_ != nullptr) {
        for (size_t i = 0; i < n; ++i)
            Feed(records[i]);
        return;
    }
    switch (dcache_.assoc_) {
      case 1:
        return FeedSliceIn<1>(records, n);
      case 2:
        return FeedSliceIn<2>(records, n);
      case 4:
        return FeedSliceIn<4>(records, n);
      default:
        return FeedSliceIn<0>(records, n);
    }
}

}  // namespace atum::cache

#endif  // ATUM_CACHE_TRACE_DRIVER_H_
