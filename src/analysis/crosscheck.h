#ifndef ATUM_ANALYSIS_CROSSCHECK_H_
#define ATUM_ANALYSIS_CROSSCHECK_H_

/**
 * @file
 * Trace-vs-hardware-counter cross-validation.
 *
 * The machine maintains event counters (cpu/event_counters.h) on a code
 * path entirely separate from the microcode tracer: the counters tick at
 * the control-store patch points, the tracer serializes records through
 * its own ring buffer, compressor and container writer. If both agree at
 * the end of a run, a whole family of capture bugs (dropped records,
 * double emission, mislabeled access kinds, loss accounting errors) is
 * ruled out. This module re-derives every counter from a decoded ATF2
 * record stream and compares.
 *
 * Loss markers (RecordType::kLoss) make the derivation interval-valued:
 * a marker says "`addr` records vanished here" but not which types they
 * were, so each derived count widens from an exact value to
 * [derived, derived + total_lost]. A salvaged prefix of a torn trace
 * (CrosscheckOptions::prefix) additionally has an unbounded upper end:
 * the file simply stops, so the stream is only a lower bound.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/event_counters.h"
#include "io/vfs.h"
#include "trace/record.h"
#include "util/status.h"

namespace atum::analysis {

/** Inclusive bound on a counter derived from an imperfect stream. */
struct CounterInterval {
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool unbounded = false;  ///< prefix trace: no meaningful upper end

    bool Contains(uint64_t v) const
    {
        return v >= lo && (unbounded || v <= hi);
    }
};

struct CrosscheckOptions {
    /**
     * The record stream is a salvaged prefix (e.g. from `atum-report
     * --salvage` after a torn-final-block crash): derived counts are
     * lower bounds only.
     */
    bool prefix = false;
};

/** One counter's verdict: the machine's value vs the trace's interval. */
struct CounterCheck {
    std::string name;        ///< EventCounters field name
    uint64_t actual = 0;     ///< from the machine / run manifest
    CounterInterval derived; ///< from the record stream
    bool checked = true;     ///< false: underivable from this stream
    bool ok = true;
};

struct CrosscheckReport {
    std::vector<CounterCheck> checks;
    uint64_t records = 0;  ///< stream length, loss markers included
    uint64_t lost = 0;     ///< total records covered by loss markers

    bool passed() const
    {
        for (const CounterCheck& c : checks)
            if (!c.ok)
                return false;
        return true;
    }

    /** Per-counter table plus a PASS/FAIL verdict line. */
    std::string ToString() const;
};

/**
 * Re-derives every event counter from `records` and compares against
 * `actual`. `instructions` is only checked when the stream carries
 * opcode markers (capture with --record-opcodes); otherwise that row is
 * reported with checked=false and never fails.
 */
CrosscheckReport Crosscheck(const std::vector<trace::Record>& records,
                            const cpu::EventCounters& actual,
                            const CrosscheckOptions& options = {});

/**
 * Reads the `cpu.ev.*` final counters out of a capture's run manifest
 * (`<trace>.run.json`, schema atum-run-v1). Missing keys read as zero;
 * a manifest with no cpu.ev.* counters at all is an error.
 */
util::StatusOr<cpu::EventCounters> ReadCountersFromManifest(
    const std::string& path, io::Vfs& vfs = io::RealVfs());

}  // namespace atum::analysis

#endif  // ATUM_ANALYSIS_CROSSCHECK_H_
