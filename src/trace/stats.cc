#include "trace/stats.h"

#include <sstream>

#include "util/logging.h"

namespace atum::trace {

void
TraceStats::Accumulate(const Record& record)
{
    ++total_;
    const auto type_idx = static_cast<size_t>(record.type);
    if (type_idx >= static_cast<size_t>(RecordType::kNumTypes))
        Panic("bad record type ", type_idx);
    ++by_type_[type_idx];

    if (record.IsMemory()) {
        ++mem_refs_;
        if (record.kernel())
            ++kernel_refs_;
        ++refs_since_switch_;
    } else if (record.type == RecordType::kCtxSwitch) {
        if (refs_since_switch_ != 0)
            refs_by_pid_[current_pid_] += refs_since_switch_;
        switch_interval_refs_.Add(refs_since_switch_);
        refs_since_switch_ = 0;
        current_pid_ = record.info;
    }
}

std::map<uint16_t, uint64_t>
TraceStats::refs_by_pid() const
{
    std::map<uint16_t, uint64_t> refs = refs_by_pid_;
    if (refs_since_switch_ != 0)
        refs[current_pid_] += refs_since_switch_;
    return refs;
}

uint64_t
TraceStats::CountOf(RecordType type) const
{
    return by_type_[static_cast<size_t>(type)];
}

uint64_t
TraceStats::context_switches() const
{
    return CountOf(RecordType::kCtxSwitch);
}

double
TraceStats::KernelFraction() const
{
    return mem_refs_ == 0
               ? 0.0
               : static_cast<double>(kernel_refs_) /
                     static_cast<double>(mem_refs_);
}

double
TraceStats::WriteFraction() const
{
    const uint64_t reads = CountOf(RecordType::kRead);
    const uint64_t writes = CountOf(RecordType::kWrite);
    return reads + writes == 0
               ? 0.0
               : static_cast<double>(writes) /
                     static_cast<double>(reads + writes);
}

std::string
TraceStats::ToString() const
{
    std::ostringstream os;
    os << "records:        " << total_ << "\n"
       << "  ifetch:       " << CountOf(RecordType::kIFetch) << "\n"
       << "  read:         " << CountOf(RecordType::kRead) << "\n"
       << "  write:        " << CountOf(RecordType::kWrite) << "\n"
       << "  pte:          " << CountOf(RecordType::kPte) << "\n"
       << "  ctx-switch:   " << CountOf(RecordType::kCtxSwitch) << "\n"
       << "  tlb-miss:     " << CountOf(RecordType::kTlbMiss) << "\n"
       << "  exception:    " << CountOf(RecordType::kException) << "\n"
       << "  opcode:       " << CountOf(RecordType::kOpcode) << "\n"
       << "  loss:         " << CountOf(RecordType::kLoss) << "\n"
       << "  dma:          " << CountOf(RecordType::kDma) << "\n"
       << "memory refs:    " << mem_refs_ << "\n"
       << "  kernel:       " << kernel_refs_ << " ("
       << static_cast<int>(KernelFraction() * 1000) / 10.0 << "%)\n"
       << "  write frac:   " << static_cast<int>(WriteFraction() * 1000) / 10.0
       << "% of data refs\n";
    return os.str();
}

}  // namespace atum::trace
