#ifndef ATUM_CACHE_TRACE_DRIVER_H_
#define ATUM_CACHE_TRACE_DRIVER_H_

/**
 * @file
 * Feeds ATUM trace records into cache models, with the filtering options
 * the paper's comparisons require (full-system vs user-only, unified vs
 * split I/D, flush-on-switch vs PID-tagged).
 */

#include <cstdint>

#include "cache/cache.h"
#include "trace/record.h"
#include "trace/ref_filter.h"

namespace atum::cache {

/** Record filtering and multiprogramming discipline. */
struct DriverOptions {
    bool include_kernel = true;  ///< false models user-only trace studies
    bool include_ifetch = true;
    /** PTE references carry physical addresses; including them in a
     *  virtually-addressed cache is usually wrong, so default off. */
    bool include_pte = false;
    bool flush_on_switch = false;  ///< flush caches at context switches
    uint16_t only_pid = 0;         ///< nonzero: keep just this process
};

/** The reference filter `options` select (trace/ref_filter.h). */
inline trace::RefFilter
RefFilterFor(const DriverOptions& options)
{
    return trace::RefFilter({.include_kernel = options.include_kernel,
                             .include_ifetch = options.include_ifetch,
                             .include_pte = options.include_pte,
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

    /** References accepted (fed into a cache). */
    uint64_t fed() const { return fed_; }
    /** References rejected by the filters. */
    uint64_t filtered() const { return filtered_; }

  private:
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

}  // namespace atum::cache

#endif  // ATUM_CACHE_TRACE_DRIVER_H_
