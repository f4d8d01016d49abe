#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/flight.h"
#include "util/logging.h"

namespace atum::core {

void
PublishCaptureMetrics(obs::Registry& reg, const cpu::Machine& machine,
                      const AtumTracer* tracer, const trace::FileSink* sink)
{
    machine.PublishMetrics(reg);
    if (tracer)
        tracer->PublishMetrics(reg);
    if (sink)
        sink->PublishMetrics(reg);
}

const char*
StopCauseName(StopCause cause)
{
    switch (cause) {
    case StopCause::kHalted:
        return "halted";
    case StopCause::kInstrLimit:
        return "instr-limit";
    case StopCause::kDeadline:
        return "deadline";
    case StopCause::kWatchdog:
        return "watchdog";
    case StopCause::kSignal:
        return "signal";
    }
    return "?";
}

namespace {

void
FillTracerStats(SessionResult& result, AtumTracer& tracer)
{
    result.records = tracer.records();
    result.buffer_fills = tracer.buffer_fills();
    result.overhead_ucycles = tracer.overhead_ucycles();
    result.lost_records = tracer.lost_records();
    result.loss_events = tracer.loss_events();
    result.degraded = tracer.degraded();
}

/**
 * The one run loop. `tracer` is null for an untraced or baseline run,
 * which passes default options: checkpoints and the kill hook need a
 * tracer.
 */
SessionResult
RunLoop(cpu::Machine& machine, AtumTracer* tracer,
        const SupervisorOptions& options)
{
    using Clock = std::chrono::steady_clock;

    SessionResult result;
    const uint64_t ucycles_before = machine.ucycles();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::milliseconds(options.deadline_ms);

    // Watchdog anchor: the micro-cycle stamp of the last clean (i.e.
    // non-faulting) retirement. Faulting dispatches advance icount too,
    // so icount alone cannot distinguish a wedged exception loop from a
    // busy guest; LastStepFaulted can.
    uint64_t last_progress_ucycles = machine.ucycles();
    uint64_t fills_at_last_checkpoint = tracer ? tracer->buffer_fills() : 0;
    StopCause cause = StopCause::kInstrLimit;
    bool stopped = false;

    obs::Registry& registry =
        options.registry ? *options.registry : obs::Registry::Global();
    obs::Counter& checkpoint_counter =
        registry.GetCounter("supervisor.checkpoints");
    obs::Histogram& checkpoint_us =
        registry.GetHistogram("supervisor.checkpoint_us");
    obs::Gauge& watchdog_slack =
        registry.GetGauge("supervisor.watchdog_slack_ucycles");

    // Publishes every layer and, when streaming is on, hands the emitter
    // a chance to write a snapshot line. All of this runs on the machine
    // thread at drain-safe boundaries, so publishing plain members races
    // with nothing.
    const auto publish = [&] {
        PublishCaptureMetrics(registry, machine, tracer, options.file_sink);
        if (options.watchdog_ucycles != 0) {
            const uint64_t since =
                machine.ucycles() - last_progress_ucycles;
            watchdog_slack.Set(
                since >= options.watchdog_ucycles
                    ? 0
                    : static_cast<int64_t>(options.watchdog_ucycles - since));
        }
    };

    obs::PhaseProfiler* const profiler = options.profiler;

    const auto take_checkpoint = [&](uint64_t instructions_done) {
        ATUM_SPAN_NAMED(cp_span, "supervisor", "checkpoint");
        const uint64_t cp_start_ns = obs::MonotonicNowNs();
        const auto cp_start = Clock::now();
        CheckpointMeta meta = options.meta;
        meta.instructions = machine.icount();
        meta.instructions_remaining =
            options.max_instructions == UINT64_MAX
                ? UINT64_MAX
                : options.max_instructions - instructions_done;
        util::Status status;
        if (options.file_sink) {
            util::StatusOr<trace::Atf2ResumeState> sink_state =
                options.file_sink->SaveState();
            if (sink_state.ok()) {
                meta.has_sink_state = true;
                status = options.checkpoints->Write(meta, machine, *tracer,
                                                    &*sink_state);
            } else {
                status = sink_state.status();
            }
        } else {
            status =
                options.checkpoints->Write(meta, machine, *tracer, nullptr);
        }
        if (!status.ok()) {
            // The capture goes on: losing checkpoint coverage is strictly
            // better than losing the capture.
            if (result.checkpoint_status.ok())
                result.checkpoint_status = status;
            Warn("checkpoint write failed (capture continues): ",
                 status.ToString());
        }
        fills_at_last_checkpoint = tracer->buffer_fills();
        checkpoint_counter.Add(1);
        checkpoint_us.Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - cp_start)
                .count()));
        cp_span.set_arg("instructions", machine.icount());
        if (profiler != nullptr) {
            // Exact-timed and excised from any open sampled window, so
            // scaling by N cannot multiply a checkpoint publish.
            const uint64_t cp_ns = obs::MonotonicNowNs() - cp_start_ns;
            profiler->AddExact(obs::Phase::kCheckpoint, cp_ns);
            profiler->SkipTime(cp_ns);
        }
        if (options.emitter) {
            const uint64_t io_start_ns = obs::MonotonicNowNs();
            publish();
            options.emitter->Emit("checkpoint");
            if (profiler != nullptr) {
                const uint64_t io_ns =
                    obs::MonotonicNowNs() - io_start_ns;
                profiler->AddExact(obs::Phase::kIo, io_ns);
                profiler->SkipTime(io_ns);
            }
        }
    };

    if (options.emitter) {
        publish();
        options.emitter->Emit("start");
    }

    // The tracer keeps the profiler for the whole run, so every drain is
    // timed exactly. The machine gets it only while a sampled window is
    // open: then its references take the profiled path and attribute
    // translate/memory/tracer time, and the other windows run the inline
    // unprofiled path.
    if (profiler != nullptr) {
        if (tracer)
            tracer->SetPhaseProfiler(profiler);
        profiler->BeginRun();
    }

    uint64_t executed = 0;
    while (!stopped && !machine.halted() &&
           executed < options.max_instructions) {
        ATUM_SPAN_NAMED(slice_span, "supervisor", "slice");
        // One supervision slice: instruction-by-instruction so the
        // watchdog and checkpoint policy see every boundary, but all
        // host-side clock/flag checks stay out here at slice granularity.
        const uint64_t slice_end =
            executed + std::min(kSliceInstructions,
                                options.max_instructions - executed);
        while (!machine.halted() && executed < slice_end) {
            // The sampled window covers the instruction *and* its
            // supervision checks; the remainder outside nested phases is
            // the dispatch cost the rewrite PR wants to shrink.
            const bool sampled =
                profiler != nullptr && profiler->BeginSample();
            if (sampled) {
                machine.SetPhaseProfiler(profiler);
                machine.StepOne();
                machine.SetPhaseProfiler(nullptr);
            } else {
                machine.StepOne();
            }
            ++executed;
            if (!machine.LastStepFaulted())
                last_progress_ucycles = machine.ucycles();
            else if (options.watchdog_ucycles != 0 &&
                     machine.ucycles() - last_progress_ucycles >
                         options.watchdog_ucycles) {
                cause = StopCause::kWatchdog;
                stopped = true;
                Warn("watchdog: no clean instruction retirement in ",
                     machine.ucycles() - last_progress_ucycles,
                     " ucycles; stopping capture");
                // The flight dump is the post-mortem: its last event
                // names the failure the run journal will report.
                obs::flight::Note("supervisor.watchdog", nullptr,
                                  machine.ucycles() - last_progress_ucycles,
                                  machine.icount());
                obs::flight::DumpNow("watchdog");
                break;
            }
            if (options.checkpoints &&
                tracer->buffer_fills() - fills_at_last_checkpoint >=
                    options.checkpoint_every_fills)
                take_checkpoint(executed);
            if (options.kill_after_fills != 0 &&
                tracer->buffer_fills() >= options.kill_after_fills) {
                // Test hook: vanish exactly as SIGKILL would — no
                // destructors, no seal, no final checkpoint. 137 is the
                // shell's exit code for a SIGKILLed process.
                std::_Exit(137);
            }
            if (profiler != nullptr)
                profiler->EndSample();
        }
        if (profiler != nullptr)
            profiler->EndSample();  // close a window left open by `break`
        slice_span.set_arg("executed", executed);
        if (options.emitter) {
            const uint64_t io_start_ns = obs::MonotonicNowNs();
            publish();
            options.emitter->MaybeEmit("interval");
            if (profiler != nullptr)
                profiler->AddExact(obs::Phase::kIo,
                                   obs::MonotonicNowNs() - io_start_ns);
        }
        if (options.on_slice)
            options.on_slice();
        if (stopped)
            break;
        if (options.stop_flag && *options.stop_flag != 0) {
            cause = StopCause::kSignal;
            break;
        }
        if (options.deadline_ms != 0 && Clock::now() >= deadline) {
            cause = StopCause::kDeadline;
            break;
        }
    }
    if (machine.halted())
        cause = StopCause::kHalted;

    result.instructions = executed;
    result.ucycles = machine.ucycles() - ucycles_before;
    result.halted = machine.halted();
    result.stop_cause = cause;

    // Seal order matters for resumability: the final checkpoint is taken
    // *before* the final drain, so the trace bytes the drain appends are
    // past the checkpoint's high-water mark — a resume truncates them
    // away and replays the identical drain. Flushing first would leave
    // the final records un-resumable.
    if (options.checkpoints)
        take_checkpoint(executed);

    if (tracer) {
        {
            ATUM_SPAN("supervisor", "flush");
            result.drain_status = tracer->Flush();
        }
        FillTracerStats(result, *tracer);
    }
    if (options.checkpoints) {
        result.checkpoints_written = options.checkpoints->written();
        result.last_checkpoint = options.checkpoints->last_path();
    }
    // Final publish happens even without an emitter so the global
    // registry's counters are current for the caller's run manifest.
    publish();
    if (options.emitter)
        options.emitter->Emit("final");
    if (profiler != nullptr) {
        profiler->EndRun();
        if (tracer)
            tracer->SetPhaseProfiler(nullptr);
    }
    return result;
}

}  // namespace

SessionResult
RunSupervised(cpu::Machine& machine, AtumTracer& tracer,
              const SupervisorOptions& options)
{
    if (!tracer.attached())
        tracer.Attach();
    return RunLoop(machine, &tracer, options);
}

SessionResult
RunUntraced(cpu::Machine& machine, uint64_t max_instructions)
{
    SupervisorOptions options;
    options.max_instructions = max_instructions;
    return RunLoop(machine, nullptr, options);
}

SessionResult
RunBaseline(cpu::Machine& machine, UserOnlyTracer& tracer,
            uint64_t max_instructions)
{
    if (!tracer.attached())
        tracer.Attach();
    SessionResult result = RunUntraced(machine, max_instructions);
    result.records = tracer.records();
    result.lost_records = tracer.lost_records();
    return result;
}

}  // namespace atum::core
