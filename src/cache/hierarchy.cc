#include "cache/hierarchy.h"

namespace atum::cache {

using trace::Record;
using trace::RecordType;

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2)
{
}

void
CacheHierarchy::Access(uint32_t addr, bool is_write, bool is_ifetch,
                       uint16_t pid)
{
    ++accesses_;
    Cache& l1 = is_ifetch ? l1i_ : l1d_;
    uint32_t writeback_addr = 0;
    bool wrote_back = false;
    {
        // Track whether this access evicted a dirty L1 block.
        const uint64_t wb_before = l1.stats().writebacks;
        if (l1.Access(addr, is_write, pid, &writeback_addr)) {
            return;  // L1 hit
        }
        wrote_back = l1.stats().writebacks != wb_before;
    }
    ++l1_misses_;

    // The refill request goes to L2; a dirty victim is written to L2 too.
    if (!l2_.Access(addr, false, pid))
        ++memory_accesses_;
    if (wrote_back) {
        const uint64_t mem_before = l2_.stats().misses;
        l2_.Access(writeback_addr, true, pid);
        if (l2_.stats().misses != mem_before)
            ++memory_accesses_;  // writeback missed L2: goes to memory
    }
}

void
CacheHierarchy::Feed(const Record& record)
{
    switch (refs_.Classify(record)) {
      case trace::RefFilter::kSwitch:
        if (config_.flush_on_switch) {
            l1i_.Flush();
            l1d_.Flush();
            l2_.Flush();
        }
        return;
      case trace::RefFilter::kRef:
        Access(record.addr, record.type == RecordType::kWrite,
               record.type == RecordType::kIFetch, refs_.PidOf(record));
        return;
      default:
        return;
    }
}

double
CacheHierarchy::GlobalMissRate() const
{
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(memory_accesses_) /
                                static_cast<double>(accesses_);
}

double
CacheHierarchy::Amat() const
{
    if (accesses_ == 0)
        return 0.0;
    const double n = static_cast<double>(accesses_);
    return config_.l1_hit_cycles +
           static_cast<double>(l1_misses_) / n * config_.l2_hit_cycles +
           static_cast<double>(memory_accesses_) / n *
               config_.memory_cycles;
}

}  // namespace atum::cache
