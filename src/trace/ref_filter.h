#ifndef ATUM_TRACE_REF_FILTER_H_
#define ATUM_TRACE_REF_FILTER_H_

/**
 * @file
 * The one rule every trace-driven model reads a trace by: which records
 * are memory references, which of those a model's options keep, and which
 * process each one belongs to.
 *
 * kCtxSwitch markers set the current pid (info = new pid); a model
 * without address-space identifiers flushes there. Other markers carry no
 * reference. PTE references carry physical addresses, so a virtually
 * addressed model keeps them only on request. Kernel references tag as
 * pid 0: the system region is shared, so a PID-tagged model keeps one
 * copy, as the 8200-era studies modelled.
 */

#include <cstdint>

#include "trace/record.h"

namespace atum::trace {

class RefFilter
{
  public:
    /** Which references to keep; the defaults keep every virtual one. */
    struct Options {
        bool include_kernel = true;  ///< false models user-only studies
        bool include_ifetch = true;
        bool include_pte = false;
        uint16_t only_pid = 0;  ///< nonzero: keep just this process's
                                ///< user references (kernel refs stay)
    };

    /** What Classify made of one record. */
    enum Verdict : uint8_t {
        kMarker,    ///< not a memory reference
        kSwitch,    ///< context switch: the pid changed
        kFiltered,  ///< a memory reference the options exclude
        kRef,       ///< a reference to feed; PidOf() gives its pid
    };

    RefFilter() = default;
    explicit RefFilter(const Options& options) : options_(options) {}

    /** Classifies the next record; records must arrive in trace order. */
    Verdict Classify(const Record& r)
    {
        if (r.type == RecordType::kCtxSwitch) {
            pid_ = r.info;
            return kSwitch;
        }
        if (!r.IsMemory())
            return kMarker;
        if (r.type == RecordType::kPte && !options_.include_pte)
            return kFiltered;
        if (r.type == RecordType::kIFetch && !options_.include_ifetch)
            return kFiltered;
        if (r.kernel() ? !options_.include_kernel
                       : options_.only_pid != 0 && pid_ != options_.only_pid)
            return kFiltered;
        return kRef;
    }

    /** The pid reference `r` belongs to: 0 for kernel references. */
    uint16_t PidOf(const Record& r) const { return r.kernel() ? 0 : pid_; }

  private:
    Options options_;
    uint16_t pid_ = 0;
};

}  // namespace atum::trace

#endif  // ATUM_TRACE_REF_FILTER_H_
