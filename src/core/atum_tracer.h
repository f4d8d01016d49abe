#ifndef ATUM_CORE_ATUM_TRACER_H_
#define ATUM_CORE_ATUM_TRACER_H_

/**
 * @file
 * AtumTracer — the paper's contribution, reproduced in simulation.
 *
 * The tracer:
 *   1. reserves a region at the top of physical memory (invisible to the
 *      guest kernel's frame allocator, exactly like the 8200 setup),
 *   2. patches the control store's splice points with micro-routines that
 *      append 8-byte records to that buffer with *physical* stores,
 *      charging `cost_per_record` micro-cycles each (the tracing slowdown);
 *      the memory-reference routine, the one that runs on every
 *      reference, is a store the control store makes in line
 *      (ucode::RecordBuffer),
 *   3. when the buffer fills, "freezes" the machine (a pause charged in
 *      micro-cycles), drains the records to a host-side TraceSink, and
 *      resumes — the paper's console-extraction cycle.
 *
 * Because the patches run below the operating system, the resulting trace
 * contains *every* reference: user and kernel, all processes, interrupt
 * handlers, and page-table traffic. That completeness is what ATUM added
 * over prior user-only tracing.
 */

#include <cstdint>

#include "cpu/machine.h"
#include "obs/metrics.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/serialize.h"
#include "util/status.h"

namespace atum::core {

/** Tracer configuration. */
struct AtumConfig {
    /** Reserved trace-buffer size (page multiple). The paper used about
     *  half a megabyte of the 8200's memory. */
    uint32_t buffer_bytes = 256u << 10;
    /** Micro-cycles the patch burns per record appended. The default is
     *  calibrated so full tracing dilates execution by roughly an order
     *  of magnitude, the regime the paper reports for the 8200 (~20x);
     *  T2 sweeps this cost. */
    uint32_t cost_per_record = 64;
    /** Micro-cycles charged per buffer-full pause/extraction. */
    uint32_t drain_pause_ucycles = 100000;
    /** Record a kOpcode marker per retired instruction (off by default:
     *  it enlarges traces; enable for opcode-frequency studies, T6). The
     *  one optional record: every memory reference, TB miss, exception
     *  and context switch is always recorded, and a study that wants
     *  fewer kinds filters at replay time (trace::RefFilter). */
    bool record_opcodes = false;

    bool operator==(const AtumConfig&) const = default;
};

// -- drain failure policy ----------------------------------------------------
// A refusing sink (full disk, dead pipe) must never abort the simulated
// machine: the drain is retried with a bounded, doubling pause, and if
// the sink still refuses the tracer degrades to counting-only capture —
// records are tallied as lost, and a kLoss marker is emitted at the next
// successful append so consumers can resynchronize around the gap
// (HMTT-style). A kNoSpace failure skips the retries entirely: a full
// disk does not empty itself in a few hundred milliseconds, so the
// machine degrades immediately instead of stalling in pointless backoff.

/** Retries per failed drain before degrading. */
inline constexpr uint32_t kDrainMaxRetries = 3;
/** Micro-cycles charged for the first retry pause; doubles per retry
 *  (bounded backoff), on top of the normal drain pause. */
inline constexpr uint32_t kDrainRetryUcycles = 50000;

class AtumTracer : public ucode::Patch
{
  public:
    /**
     * Reserves the buffer in `machine`'s physical memory and remembers
     * `sink` as the drain target. Construct the tracer *before* booting a
     * kernel so the frame allocator excludes the reserved region. Both
     * references must outlive the tracer.
     */
    AtumTracer(cpu::Machine& machine, trace::TraceSink& sink,
               const AtumConfig& config = {});

    /** Detaches patches and releases the reservation. */
    ~AtumTracer();

    AtumTracer(const AtumTracer&) = delete;
    AtumTracer& operator=(const AtumTracer&) = delete;

    /** Installs the microcode patches; tracing starts immediately. */
    void Attach();

    /** Removes the patches (the buffer stays reserved until destruction). */
    void Detach();

    bool attached() const { return attached_; }

    /**
     * Drains any residual buffered records to the sink. Returns the
     * capture's drain health: OK when every record reached the sink,
     * otherwise the error that forced records to be dropped (a capture
     * that ended degraded reports the failure that degraded it, so
     * end-of-run loss is never silent).
     */
    util::Status Flush();

    // -- checkpoint hooks --------------------------------------------------
    /**
     * Serializes the tracer's capture counters and buffer cursor. The
     * buffered records themselves live in the reserved region of guest
     * physical memory and travel with PhysicalMemory::Save; this hook
     * covers everything else a resumed capture needs to continue the
     * statistics and drain exactly where they left off.
     */
    util::Status Save(util::StateWriter& w) const;

    /**
     * Restores counters saved by Save(). The tracer must have been
     * constructed with the same buffer geometry (checkpoint meta carries
     * the AtumConfig); a mismatch fails with data-loss rather than
     * continuing a capture whose buffer cursor points into the weeds.
     */
    util::Status Restore(util::StateReader& r);

    // -- capture statistics ------------------------------------------------
    uint64_t records() const { return buf_.records; }
    uint64_t buffer_fills() const { return buffer_fills_; }
    /** Micro-cycles charged to the machine by tracing (patch + drains). */
    uint64_t overhead_ucycles() const { return buf_.overhead_ucycles; }

    // -- loss accounting ---------------------------------------------------
    /** True while the sink is refusing records (counting-only capture). */
    bool degraded() const { return degraded_; }
    /** Records dropped because the sink kept failing. */
    uint64_t lost_records() const { return lost_records_; }
    /** Distinct degrade episodes (== kLoss markers owed to the stream). */
    uint32_t loss_events() const { return loss_events_; }
    /** Drain retry attempts that were needed (0 on a healthy sink). */
    uint64_t drain_retries() const { return drain_retries_; }
    /** Drain failures that were out-of-space (each degraded instantly). */
    uint32_t enospc_events() const { return enospc_events_; }
    /** The failure that triggered the most recent degrade. */
    const util::Status& last_drain_error() const { return last_drain_error_; }

    uint32_t buffer_base() const { return buf_.base; }
    uint32_t buffer_bytes() const { return buf_.bytes; }
    /** Records currently sitting in the (undrained) buffer. */
    uint32_t buffered_records() const
    {
        return buf_.head / trace::kRecordBytes;
    }

    /**
     * Publishes capture tallies into `reg` as `tracer.*` counters and
     * gauges (records, fills, overhead, retries, degrades, losses,
     * buffered records). The per-drain extraction latency histogram
     * `tracer.drain_us` is event-driven and always live in the global
     * registry regardless of publishing.
     */
    void PublishMetrics(obs::Registry& reg) const;

    /**
     * Attaches the sampling phase profiler (obs/spans.h): each drain's
     * wall time is then accounted exactly to the drain phase and excised
     * from any open sampled window. Set and cleared by RunSupervised.
     */
    void SetPhaseProfiler(obs::PhaseProfiler* profiler)
    {
        profiler_ = profiler;
    }

  private:
    // The ucode::Patch micro-routines. splices() names every point but
    // decode, which only record_opcodes adds. The memory-access routine
    // runs in line in the control store (record_buffer), which calls
    // OnMemAccess only for the record that fills the buffer. Each
    // spliced routine appends one record.
    uint8_t splices() const override;
    ucode::RecordBuffer* record_buffer() override { return &buf_; }
    uint32_t OnMemAccess(const ucode::MemAccess& access) override;
    uint32_t OnContextSwitch(uint16_t pid, uint32_t pcb_pa) override;
    uint32_t OnTlbMiss(uint32_t vaddr, bool kernel) override;
    uint32_t OnExceptionDispatch(uint8_t vector) override;
    uint32_t OnDecode(uint32_t pc, uint8_t opcode, bool kernel) override;

    uint32_t Append(const trace::Record& record);
    /** Empties the buffer (deliver or count-as-lost); returns the
     *  micro-cycle pause this drain charged. */
    uint32_t Drain();
    util::Status DeliverRange(uint32_t* delivered, uint32_t total);
    bool TryRecover();

    cpu::Machine& machine_;
    trace::TraceSink& sink_;
    AtumConfig config_;
    /** The reserved region, its head and the records/overhead tallies,
     *  shared with the control store's in-line appends. */
    ucode::RecordBuffer buf_;
    bool attached_ = false;
    uint64_t buffer_fills_ = 0;
    bool degraded_ = false;
    uint64_t lost_records_ = 0;
    uint32_t loss_events_ = 0;
    uint32_t enospc_events_ = 0;
    uint64_t drain_retries_ = 0;
    util::Status last_drain_error_;
    /** Extraction-pause wall latency, log2 buckets of microseconds. */
    obs::Histogram* drain_hist_;
    obs::PhaseProfiler* profiler_ = nullptr;
};

}  // namespace atum::core

#endif  // ATUM_CORE_ATUM_TRACER_H_
