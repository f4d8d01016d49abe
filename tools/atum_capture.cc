// atum-capture: boot a workload mix under the guest kernel, trace it with
// the ATUM microcode patches, and write the trace to a file.
//
// Usage:
//   atum-capture --out trace.atum [--workloads hash,matrix,listproc]
//                [--scale 2] [--timer 2000] [--mem-mb 4] [--buffer-kb 256]
//                [--pool-frames N] [--pipeline N] [--user-only PID]
//                [--max-instructions N] [--record-opcodes]
//                [--checkpoint BASE] [--checkpoint-every FILLS]
//                [--checkpoint-keep K] [--watchdog UCYCLES]
//                [--deadline-ms MS] [--trace-out SPANS.json]
//   atum-capture --resume CKPT [--checkpoint BASE] [... supervision flags]
//   atum-capture --version
//
// --pipeline N adds the IPC producer/consumer pair with N messages.
// --user-only PID captures with the pre-ATUM baseline probe instead.
// --record-opcodes adds a kOpcode marker per retired instruction so
// `atum-report --crosscheck` can bound the instruction counter too.
//
// Telemetry: --metrics-out FILE streams registry snapshots as JSON Lines
// (schema atum-metrics-v1; follow live with atum-top FILE) at
// --metrics-interval-ms granularity (default 1000). Every capture also
// writes a <out>.run.json manifest — tool version, config, timing, exit
// code, final counters and the sampled per-phase time breakdown —
// whether or not --metrics-out was given.
//
// Profiling: --trace-out FILE exports the capture's causal span trace as
// Chrome trace-event JSON (open in Perfetto / chrome://tracing). A
// wedge, tracer degrade or crash additionally dumps the in-memory
// flight recorder to <out>.flight.json (see docs/TRACING.md).
//
// Long captures: --checkpoint BASE writes rotating BASE.NNNNNN.atck
// snapshots every --checkpoint-every buffer fills (default 8), keeping
// the last --checkpoint-keep (default 3). SIGINT/SIGTERM stop at a safe
// drain boundary, seal the trace and write a final checkpoint. --resume
// CKPT restores a checkpoint, truncates the trace to its high-water mark
// and continues the capture byte-identically.
//
// Exit codes follow the shared contract in util/status.h:
//   0  capture ran to completion (guest halted)
//   1  guest did not halt within the instruction budget, or internal error
//   2  usage error
//   3  I/O failure (output file, checkpoint unreadable)
//   4  checkpoint/trace recognized but corrupt
//   5  stopped cleanly on SIGINT/SIGTERM or --deadline-ms (resumable)
//   6  watchdog: guest wedged (no clean retirement within --watchdog)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/stats_emitter.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/signals.h"
#include "util/status.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

volatile std::sig_atomic_t g_stop = 0;

struct Options {
    std::string out;
    std::vector<std::string> workload_names = {"hash", "matrix", "listproc"};
    uint32_t scale = 2;
    uint32_t timer = 2000;
    uint32_t mem_mb = 4;
    uint32_t buffer_kb = 256;
    uint32_t pool_frames = 0;
    uint32_t pipeline = 0;
    uint32_t user_only_pid = 0;  // 0 = full-system ATUM capture
    uint64_t max_instructions = 2'000'000'000;

    // -- supervision / checkpointing ---------------------------------------
    std::string resume;      // checkpoint file to continue from
    std::string checkpoint;  // rotating checkpoint base path
    uint64_t checkpoint_every = 8;
    uint32_t checkpoint_keep = 3;
    uint64_t watchdog_ucycles = 0;
    uint64_t deadline_ms = 0;
    uint64_t kill_after_fills = 0;  // test hook: emulate SIGKILL
    bool wedge_demo = false;        // boot a guest that can never progress
    bool record_opcodes = false;    // emit kOpcode markers (crosscheck)

    // -- telemetry ---------------------------------------------------------
    std::string metrics_out;  // JSONL snapshot stream ("" = off)
    uint64_t metrics_interval_ms = 1000;
    std::string trace_out;  // Chrome trace-event span export ("" = off)
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    cli::ArgReader args("atum-capture", argc, argv);
    while (args.Next()) {
        const std::string& arg = args.arg();
        if (arg == "--out")
            opts.out = args.Value();
        else if (arg == "--workloads")
            opts.workload_names = util::SplitCommas(args.Value());
        else if (arg == "--scale")
            opts.scale = args.Uint<uint32_t>();
        else if (arg == "--timer")
            opts.timer = args.Uint<uint32_t>();
        else if (arg == "--mem-mb")  // shifted into a 32-bit byte count
            opts.mem_mb = args.Uint<uint32_t>(UINT32_MAX >> 20);
        else if (arg == "--buffer-kb")
            opts.buffer_kb = args.Uint<uint32_t>(UINT32_MAX >> 10);
        else if (arg == "--pool-frames")
            opts.pool_frames = args.Uint<uint32_t>();
        else if (arg == "--pipeline")
            opts.pipeline = args.Uint<uint32_t>();
        else if (arg == "--user-only")  // a 16-bit guest PID
            opts.user_only_pid = args.Uint<uint32_t>(UINT16_MAX);
        else if (arg == "--max-instructions")
            opts.max_instructions = args.Uint<uint64_t>();
        else if (arg == "--resume")
            opts.resume = args.Value();
        else if (arg == "--checkpoint")
            opts.checkpoint = args.Value();
        else if (arg == "--checkpoint-every")
            opts.checkpoint_every = args.Uint<uint64_t>();
        else if (arg == "--checkpoint-keep")
            opts.checkpoint_keep = args.Uint<uint32_t>();
        else if (arg == "--watchdog")
            opts.watchdog_ucycles = args.Uint<uint64_t>();
        else if (arg == "--deadline-ms")
            opts.deadline_ms = args.Uint<uint64_t>();
        else if (arg == "--kill-after-fills")
            opts.kill_after_fills = args.Uint<uint64_t>();
        else if (arg == "--trace-out")
            opts.trace_out = args.Value();
        else if (arg == "--metrics-out")
            opts.metrics_out = args.Value();
        else if (arg == "--metrics-interval-ms")
            opts.metrics_interval_ms = args.Uint<uint64_t>();
        else if (arg == "--wedge-demo")
            opts.wedge_demo = true;
        else if (arg == "--record-opcodes")
            opts.record_opcodes = true;
        else
            args.Fail("unknown argument: ", arg,
                      " (see the header comment for usage)");
    }
    if (opts.resume.empty() && opts.out.empty())
        args.Fail("--out is required");
    if (!opts.resume.empty() && opts.user_only_pid != 0)
        args.Fail("--resume continues an ATUM capture; "
                  "--user-only has no checkpoint support");
    if (!opts.resume.empty() && opts.wedge_demo)
        args.Fail("--wedge-demo and --resume are mutually exclusive");
    if (opts.checkpoint_every == 0)
        args.Fail("--checkpoint-every must be at least 1");
    if (opts.user_only_pid != 0 &&
        (!opts.checkpoint.empty() || opts.watchdog_ucycles != 0))
        args.Fail("--user-only does not support checkpoint/watchdog "
                  "supervision");
    if (opts.user_only_pid != 0 && !opts.metrics_out.empty())
        args.Fail("--metrics-out needs the supervised ATUM capture loop; "
                  "--user-only runs unsupervised");
    return opts;
}

int
ExitCodeForStop(const core::SessionResult& result)
{
    switch (result.stop_cause) {
    case core::StopCause::kHalted:
        return util::kExitOk;
    case core::StopCause::kInstrLimit:
        return util::kExitError;  // legacy "did not halt"
    case core::StopCause::kSignal:
    case core::StopCause::kDeadline:
        return util::kExitInterrupted;
    case core::StopCause::kWatchdog:
        return util::kExitWedged;
    }
    return util::kExitError;
}

void
PrintResult(const core::SessionResult& result, const cpu::Machine& machine,
            uint64_t sink_records)
{
    std::printf("halted=%d instructions=%llu ucycles=%llu records=%llu\n",
                result.halted,
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(result.ucycles),
                static_cast<unsigned long long>(sink_records));
    if (result.lost_records > 0 || result.degraded) {
        std::printf("lost=%llu loss-events=%u degraded=%d\n",
                    static_cast<unsigned long long>(result.lost_records),
                    result.loss_events, result.degraded);
    }
    if (result.stop_cause != core::StopCause::kHalted &&
        result.stop_cause != core::StopCause::kInstrLimit)
        std::printf("stopped=%s\n",
                    core::StopCauseName(result.stop_cause));
    if (!result.last_checkpoint.empty())
        std::printf("checkpoint=%s\n", result.last_checkpoint.c_str());
    std::printf("console: \"%s\"\n", machine.console_output().c_str());
}

/**
 * A guest that can never retire an instruction cleanly: every SCB vector
 * points at a reserved opcode, so the first dispatch faults into itself
 * forever. Exercises the deadman watchdog end to end.
 */
void
BootWedge(cpu::Machine& machine)
{
    constexpr uint32_t kBadPc = 0x200;
    machine.WriteIpr(isa::Ipr::kScbb, 0x0);
    machine.WriteIpr(isa::Ipr::kKsp, 0x8000);
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cpu::ExcVector::kNumVectors); ++v)
        machine.memory().Write32(4 * v, kBadPc);
    machine.memory().Write8(kBadPc, 0xFF);  // unassigned opcode
    machine.set_pc(kBadPc);
}

/** Flat key/value capture configuration for the run manifest. */
std::vector<std::pair<std::string, std::string>>
ManifestConfig(const Options& opts)
{
    std::string workloads;
    for (const std::string& name : opts.workload_names) {
        if (!workloads.empty())
            workloads += ',';
        workloads += name;
    }
    std::vector<std::pair<std::string, std::string>> config = {
        {"workloads", workloads},
        {"scale", std::to_string(opts.scale)},
        {"timer", std::to_string(opts.timer)},
        {"mem_mb", std::to_string(opts.mem_mb)},
        {"buffer_kb", std::to_string(opts.buffer_kb)},
        {"max_instructions", std::to_string(opts.max_instructions)},
    };
    if (opts.pipeline > 0)
        config.emplace_back("pipeline", std::to_string(opts.pipeline));
    if (opts.user_only_pid != 0)
        config.emplace_back("user_only_pid",
                            std::to_string(opts.user_only_pid));
    if (!opts.resume.empty())
        config.emplace_back("resume", opts.resume);
    if (!opts.checkpoint.empty())
        config.emplace_back("checkpoint", opts.checkpoint);
    if (opts.watchdog_ucycles != 0)
        config.emplace_back("watchdog_ucycles",
                            std::to_string(opts.watchdog_ucycles));
    if (opts.deadline_ms != 0)
        config.emplace_back("deadline_ms",
                            std::to_string(opts.deadline_ms));
    if (!opts.metrics_out.empty())
        config.emplace_back("metrics_out", opts.metrics_out);
    if (!opts.trace_out.empty())
        config.emplace_back("trace_out", opts.trace_out);
    if (opts.record_opcodes)
        config.emplace_back("record_opcodes", "1");
    return config;
}

int
Finish(const Options& opts, const core::SessionResult& result,
       const cpu::Machine& machine, trace::FileSink& sink,
       const std::string& out_path, uint64_t started_ms,
       const obs::PhaseProfiler* profiler = nullptr)
{
    const util::Status close_status = sink.Close();
    PrintResult(result, machine, sink.count());
    if (!result.drain_status.ok())
        std::fprintf(stderr, "atum-capture: trace drain: %s\n",
                     result.drain_status.ToString().c_str());
    if (!result.checkpoint_status.ok())
        std::fprintf(stderr, "atum-capture: checkpointing: %s\n",
                     result.checkpoint_status.ToString().c_str());
    int exit_code = ExitCodeForStop(result);
    if (!close_status.ok()) {
        std::fprintf(stderr, "atum-capture: closing %s: %s\n",
                     out_path.c_str(), close_status.ToString().c_str());
        exit_code = util::ExitCodeFor(close_status);
    } else {
        std::printf("wrote %s\n", out_path.c_str());
    }

    // The manifest is written last, once the exit code is known, so it
    // describes the run's actual outcome. A manifest-write failure is a
    // warning only — it must never change the capture's exit code.
    obs::RunManifest manifest;
    manifest.tool = "atum-capture";
    manifest.version = util::kGitDescribe;
    manifest.build_type = util::kBuildType;
    manifest.trace_path = out_path;
    manifest.started_ms = started_ms;
    manifest.ended_ms = obs::WallClockMs();
    manifest.exit_code = exit_code;
    manifest.stop_cause = core::StopCauseName(result.stop_cause);
    manifest.config = ManifestConfig(opts);
    if (profiler != nullptr && profiler->run_ns() > 0) {
        for (const obs::PhaseProfiler::Row& row : profiler->Breakdown())
            manifest.phase_ns.emplace_back(row.name, row.ns);
        manifest.phase_coverage_pct = 100.0 * profiler->CoverageFraction();
    }
    // Refresh the machine/sink tallies so the finals are current even on
    // paths (e.g. --user-only) that bypass the supervised publish.
    machine.PublishMetrics(obs::Registry::Global());
    sink.PublishMetrics(obs::Registry::Global());
    manifest.finals = obs::Registry::Global().Snapshot();
    const util::Status manifest_status =
        obs::WriteRunManifest(out_path + ".run.json", manifest);
    if (!manifest_status.ok())
        Warn("writing run manifest: ", manifest_status.ToString());

    if (!opts.trace_out.empty()) {
        const util::Status spans_status =
            obs::WriteSpansFile(opts.trace_out, "atum-capture");
        if (spans_status.ok())
            std::printf("spans %s\n", opts.trace_out.c_str());
        else
            Warn("writing span trace: ", spans_status.ToString());
    }

    return exit_code;
}

/** Opens the JSONL metrics emitter when --metrics-out was given. */
util::StatusOr<std::unique_ptr<obs::StatsEmitter>>
OpenEmitter(const Options& opts)
{
    if (opts.metrics_out.empty())
        return std::unique_ptr<obs::StatsEmitter>();
    obs::StatsEmitterOptions eopts;
    eopts.interval_ms = opts.metrics_interval_ms;
    return obs::StatsEmitter::Open(opts.metrics_out,
                                   obs::Registry::Global(), eopts);
}

/**
 * The supervised tail shared by fresh and resumed captures: metrics
 * emitter, flight-dump path, phase profiler, the run itself and Finish.
 */
int
Supervise(const Options& opts, cpu::Machine& machine,
          core::AtumTracer& tracer, trace::FileSink& sink,
          core::CheckpointRotator* rotator, const core::CheckpointMeta& meta,
          uint64_t max_instructions, uint64_t started_ms)
{
    core::SupervisorOptions sup;
    sup.max_instructions = max_instructions;
    sup.watchdog_ucycles = opts.watchdog_ucycles;
    sup.deadline_ms = opts.deadline_ms;
    sup.stop_flag = &g_stop;
    sup.checkpoints = rotator;
    sup.checkpoint_every_fills = opts.checkpoint_every;
    sup.file_sink = rotator ? &sink : nullptr;
    sup.meta = meta;
    sup.kill_after_fills = opts.kill_after_fills;

    util::StatusOr<std::unique_ptr<obs::StatsEmitter>> emitter =
        OpenEmitter(opts);
    if (!emitter.ok()) {
        std::fprintf(stderr, "atum-capture: opening %s: %s\n",
                     opts.metrics_out.c_str(),
                     emitter.status().ToString().c_str());
        return util::ExitCodeFor(emitter.status());
    }
    sup.emitter = emitter->get();

    const std::string flight_path = meta.trace_path + ".flight.json";
    obs::flight::SetDumpPath(flight_path.c_str());
    obs::flight::InstallCrashHandler();
    obs::PhaseProfiler profiler;
    sup.profiler = &profiler;

    const core::SessionResult result =
        core::RunSupervised(machine, tracer, sup);
    return Finish(opts, result, machine, sink, meta.trace_path, started_ms,
                  &profiler);
}

int
RunResumed(const Options& opts, uint64_t started_ms)
{
    util::StatusOr<core::Checkpoint> ckpt =
        core::Checkpoint::Load(opts.resume);
    if (!ckpt.ok()) {
        std::fprintf(stderr, "atum-capture: loading %s: %s\n",
                     opts.resume.c_str(),
                     ckpt.status().ToString().c_str());
        return util::ExitCodeFor(ckpt.status());
    }
    core::CheckpointMeta meta = ckpt->meta();
    if (!opts.out.empty())
        meta.trace_path = opts.out;
    util::StatusOr<core::ResumedCapture> resumed =
        core::ResumeCapture(*ckpt, meta.trace_path);
    if (!resumed.ok()) {
        std::fprintf(stderr, "atum-capture: resuming %s: %s\n",
                     opts.resume.c_str(),
                     resumed.status().ToString().c_str());
        return util::ExitCodeFor(resumed.status());
    }

    // Continue the original rotation series; its base is recoverable
    // from --resume itself when --checkpoint is not repeated.
    const std::string base =
        !opts.checkpoint.empty()
            ? opts.checkpoint
            : core::CheckpointSeriesBase(opts.resume)
                  .value_or(meta.trace_path + ".ckpt");
    core::CheckpointRotator rotator(base, opts.checkpoint_keep,
                                    resumed->next_sequence);
    return Supervise(opts, *resumed->machine, *resumed->tracer,
                     *resumed->sink, &rotator, meta,
                     resumed->instructions_remaining, started_ms);
}

int
Run(const Options& opts)
{
    const uint64_t started_ms = obs::WallClockMs();
    if (!opts.resume.empty())
        return RunResumed(opts, started_ms);

    cpu::Machine::Config config;
    config.mem_bytes = opts.mem_mb << 20;
    config.timer_reload = opts.timer;
    cpu::Machine machine(config);

    std::vector<kernel::GuestProgram> programs;
    for (const std::string& name : opts.workload_names)
        if (!name.empty())
            programs.push_back(workloads::MakeWorkload(name, opts.scale));
    if (opts.pipeline > 0) {
        for (auto& gp : workloads::MakePipelinePair(opts.pipeline))
            programs.push_back(std::move(gp));
    }

    kernel::BootOptions boot_options;
    boot_options.max_pool_frames = opts.pool_frames;

    util::StatusOr<std::unique_ptr<trace::FileSink>> sink =
        trace::FileSink::Open(opts.out);
    if (!sink.ok()) {
        std::fprintf(stderr, "atum-capture: %s\n",
                     sink.status().ToString().c_str());
        return util::ExitCodeFor(sink.status());
    }

    if (opts.user_only_pid != 0) {
        core::UserTracerConfig tracer_config;
        tracer_config.target_pid =
            static_cast<uint16_t>(opts.user_only_pid);
        core::UserOnlyTracer tracer(machine, **sink, tracer_config);
        kernel::BootSystem(machine, programs, boot_options);
        const core::SessionResult result =
            core::RunBaseline(machine, tracer, opts.max_instructions);
        return Finish(opts, result, machine, **sink, opts.out, started_ms);
    }

    core::AtumConfig tracer_config;
    tracer_config.buffer_bytes = opts.buffer_kb << 10;
    tracer_config.record_opcodes = opts.record_opcodes;
    core::AtumTracer tracer(machine, **sink, tracer_config);
    if (opts.wedge_demo)
        BootWedge(machine);
    else
        kernel::BootSystem(machine, programs, boot_options);

    core::CheckpointMeta meta;
    meta.machine_config = config;
    meta.tracer_config = tracer_config;
    meta.trace_path = opts.out;

    std::unique_ptr<core::CheckpointRotator> rotator;
    if (!opts.checkpoint.empty())
        rotator = std::make_unique<core::CheckpointRotator>(
            opts.checkpoint, opts.checkpoint_keep);

    return Supervise(opts, machine, tracer, **sink, rotator.get(), meta,
                     opts.max_instructions, started_ms);
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::util::IgnoreSigpipe();
    atum::util::InstallStopSignalHandlers(&atum::g_stop);
    return atum::Run(atum::ParseArgs(argc, argv));
}
