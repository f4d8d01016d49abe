#ifndef ATUM_CORE_SESSION_H_
#define ATUM_CORE_SESSION_H_

/**
 * @file
 * Capture-session helpers: run a prepared machine under a tracer and
 * collect the capture-side statistics in one struct. There is one run
 * loop: RunSupervised, with periodic checkpoints, a deadman watchdog,
 * deadlines and graceful signal stops, all off by default. RunUntraced
 * and RunBaseline run the same loop with no ATUM tracer.
 *
 * Step unit: every instruction budget and every
 * SessionResult::instructions counts Machine::StepOne dispatches, i.e.
 * executed instructions plus interrupt deliveries. That is the unit of
 * atum-capture output, RUN.json, checkpoints and serve jobs.
 * Machine::Run and Machine::icount() count instructions only.
 *
 * Ordering note: an AtumTracer must be constructed *before* the guest
 * kernel is booted (its buffer reservation must be visible to the boot
 * loader's frame accounting), so these helpers take an already-constructed
 * tracer rather than building one internally.
 */

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>

#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "obs/spans.h"
#include "obs/stats_emitter.h"
#include "trace/sink.h"
#include "util/status.h"

namespace atum::core {

/** Why a run stopped. */
enum class StopCause {
    kHalted,     ///< guest executed HALT — normal completion
    kInstrLimit, ///< the instruction budget was exhausted
    kDeadline,   ///< wall-clock deadline reached (clean stop, resumable)
    kWatchdog,   ///< deadman fired: no clean retirement within budget
    kSignal,     ///< SIGINT/SIGTERM latched (clean stop, resumable)
};

/** Short lowercase name ("watchdog") for logs and reports. */
const char* StopCauseName(StopCause cause);

/** Outcome of one capture run. */
struct SessionResult {
    uint64_t instructions = 0;  ///< steps: instructions + interrupts
    uint64_t ucycles = 0;       ///< total micro-cycles (incl. tracing)
    bool halted = false;        ///< machine reached HALT
    uint64_t records = 0;       ///< trace records captured
    uint64_t buffer_fills = 0;  ///< full-buffer extraction pauses
    uint64_t overhead_ucycles = 0;  ///< micro-cycles charged by tracing
    uint64_t lost_records = 0;  ///< records dropped on a failing sink
    uint32_t loss_events = 0;   ///< distinct sink-failure episodes
    bool degraded = false;      ///< capture ended in counting-only mode

    // -- supervision outcome -----------------------------------------------
    StopCause stop_cause = StopCause::kInstrLimit;
    uint32_t checkpoints_written = 0;
    std::string last_checkpoint;     ///< newest checkpoint file ("" if none)
    /** End-of-run drain health (AtumTracer::Flush). */
    util::Status drain_status;
    /** First checkpoint-write failure, if any (capture continues anyway). */
    util::Status checkpoint_status;
};

/**
 * Supervision granularity: signals, deadlines and the wall clock are
 * checked every this many instructions (a safe drain boundary). Small
 * enough to stop promptly, large enough to stay off the hot path.
 */
inline constexpr uint64_t kSliceInstructions = 4096;

/** Knobs for the run loop; the defaults supervise nothing. */
struct SupervisorOptions {
    /** Step budget (instructions plus interrupt deliveries). */
    uint64_t max_instructions = UINT64_MAX;

    /**
     * Deadman watchdog: stop with kWatchdog when this many micro-cycles
     * pass without one *clean* (non-faulting) instruction retirement.
     * Faulting dispatches do advance icount, so progress is defined as
     * clean retirement — a guest wedged in an exception loop makes none.
     * 0 disables the watchdog.
     */
    uint64_t watchdog_ucycles = 0;

    /** Wall-clock budget in milliseconds; 0 = none. */
    uint64_t deadline_ms = 0;

    /**
     * Graceful-stop flag, usually latched by a SIGINT/SIGTERM handler
     * (util/signals.h). Checked at slice boundaries; a set flag stops
     * the run with kSignal after sealing state. May be null.
     */
    volatile std::sig_atomic_t* stop_flag = nullptr;

    // -- checkpointing -----------------------------------------------------
    /** Rotating checkpoint series; null disables checkpointing. */
    CheckpointRotator* checkpoints = nullptr;
    /** Take a checkpoint every N trace-buffer fills. */
    uint64_t checkpoint_every_fills = 8;
    /**
     * The trace sink being written, for recording its high-water mark in
     * each checkpoint. Null = checkpoints carry no sink state (resume
     * will not truncate/continue a trace file).
     */
    trace::FileSink* file_sink = nullptr;
    /** Template for each checkpoint's meta (configs, trace path). */
    CheckpointMeta meta{};

    /**
     * Test hook: die with _Exit(137) — no destructors, no seal, exactly
     * like SIGKILL — once this many buffer fills have happened. 0 = off.
     */
    uint64_t kill_after_fills = 0;

    // -- telemetry ---------------------------------------------------------
    /**
     * Metrics emitter ticked synchronously from the supervision loop:
     * an unconditional "start" snapshot, interval-gated snapshots at
     * slice boundaries, one after every checkpoint, and a "final" one
     * before returning. Null disables streaming; the registry is still
     * published at the end of the run either way (for RUN.json final
     * counters).
     */
    obs::StatsEmitter* emitter = nullptr;

    /**
     * Registry the loop publishes into; null = the process-wide Global().
     * A daemon running several captures concurrently gives each job its
     * own registry — publish uses Set(), so two jobs sharing one registry
     * would clobber each other's cpu.* and mmu.* tallies.
     */
    obs::Registry* registry = nullptr;

    /**
     * Called at every slice boundary (after the emitter tick, before the
     * stop-flag/deadline checks). The serve layer's per-job hook: quota
     * enforcement and cancel/drain propagation set *stop_flag from here.
     * May be null. Must not throw.
     */
    std::function<void()> on_slice{};

    /**
     * Sampling phase profiler (obs/spans.h). When set, the loop opens a
     * 1-in-N sampled window around each instruction (attributing
     * dispatch/translate/memory/tracer time), times checkpoint publishes,
     * tracer drains and emitter I/O exactly, and attaches itself to the
     * machine and tracer for the duration of the run. Null = off; the
     * hot path then pays one null test per instruction.
     */
    obs::PhaseProfiler* profiler = nullptr;
};

/**
 * Publishes the whole capture stack — machine (cpu.* / mmu.*), tracer
 * (tracer.*, when non-null) and the sink's container tallies
 * (trace.sink.*, when non-null) — into `reg`. Called at every telemetry
 * boundary by the run loop; callers can reuse it to refresh finals
 * before writing a run manifest.
 */
void PublishCaptureMetrics(obs::Registry& reg, const cpu::Machine& machine,
                           const AtumTracer* tracer,
                           const trace::FileSink* sink);

/**
 * Runs with ATUM microcode tracing attached (attaching it if needed).
 * A plain capture passes only a budget:
 * `RunSupervised(machine, tracer, {.max_instructions = n})`. The loop
 * steps the machine in slices, writing periodic checkpoints at
 * buffer-fill boundaries, stopping cleanly on signal/deadline/watchdog,
 * and sealing capture state on every exit path:
 *
 *   1. a final checkpoint is written *before* the final drain, so a
 *      resume from it replays the drain and stays byte-identical;
 *   2. the tracer is flushed (drain_status reports end-of-run loss);
 *   3. the caller seals the sink (FileSink::Close) as usual.
 *
 * Checkpoint-write failures never stop the capture (the trace is the
 * valuable artifact); the first one is reported in checkpoint_status.
 */
SessionResult RunSupervised(cpu::Machine& machine, AtumTracer& tracer,
                            const SupervisorOptions& options);

/** The same loop with no tracer (for slowdown comparisons). */
SessionResult RunUntraced(cpu::Machine& machine, uint64_t max_instructions);

/** The same loop with the user-only baseline tracer attached. */
SessionResult RunBaseline(cpu::Machine& machine, UserOnlyTracer& tracer,
                          uint64_t max_instructions);

}  // namespace atum::core

#endif  // ATUM_CORE_SESSION_H_
