#include "cache/trace_driver.h"

namespace atum::cache {

using trace::Record;
using trace::RecordType;
using trace::RefFilter;

TraceCacheDriver::TraceCacheDriver(Cache& unified,
                                   const DriverOptions& options,
                                   Cache* icache)
    : dcache_(unified),
      icache_(icache),
      flush_on_switch_(options.flush_on_switch),
      refs_(RefFilterFor(options))
{
}

void
TraceCacheDriver::Feed(const Record& record)
{
    switch (refs_.Classify(record)) {
      case RefFilter::kMarker:
        return;
      case RefFilter::kSwitch:
        if (flush_on_switch_) {
            dcache_.Flush();
            if (icache_ != nullptr)
                icache_->Flush();
        }
        return;
      case RefFilter::kFiltered:
        ++filtered_;
        return;
      case RefFilter::kRef:
        break;
    }
    const uint16_t pid = refs_.PidOf(record);
    const bool is_write = record.type == RecordType::kWrite;
    if (record.type == RecordType::kIFetch && icache_ != nullptr)
        icache_->Access(record.addr, false, pid);
    else
        dcache_.Access(record.addr, is_write, pid);
    ++fed_;
}

}  // namespace atum::cache
