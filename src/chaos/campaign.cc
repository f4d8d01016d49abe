#include "chaos/campaign.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/checkpoint.h"
#include "core/session.h"
#include "io/mem_vfs.h"
#include "io/stream.h"
#include "kernel/boot.h"
#include "obs/metrics.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads/workloads.h"

namespace atum::chaos {

namespace {

// Every drill lives in a MemVfs, so the names are fixed and flat.
constexpr char kTracePath[] = "trace.atf2";
constexpr char kCkptBase[] = "ckpt";

cpu::Machine::Config
MachineConfigFor(const CampaignSpec&)
{
    cpu::Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    return config;
}

core::AtumConfig
TracerConfigFor(const CampaignSpec& spec)
{
    core::AtumConfig config;
    config.buffer_bytes = spec.buffer_bytes;
    return config;
}

/**
 * True when the schedule physically damages stored bytes (bit-flips) or
 * tears writes mid-buffer (short writes): prefix-consistency and marker
 * checks are about *loss*, not injected rot, so they stand down.
 */
bool
ScheduleHasDamage(const io::ChaosSchedule& schedule)
{
    for (const io::ChaosOp& op : schedule.ops) {
        if (op.kind == io::ChaosOpKind::kFlipWrite ||
            op.kind == io::ChaosOpKind::kFlipRead ||
            op.kind == io::ChaosOpKind::kShortWrite)
            return true;
    }
    return false;
}

/**
 * A short write that keeps the whole buffer but reports failure makes
 * the writer retry a chunk that already landed — duplication, the one
 * case where the scan can legitimately recover MORE than was appended.
 */
bool
ScheduleHasShortWrite(const io::ChaosSchedule& schedule)
{
    for (const io::ChaosOp& op : schedule.ops) {
        if (op.kind == io::ChaosOpKind::kShortWrite)
            return true;
    }
    return false;
}

/** Everything the harness knows about the pre-crash capture process. */
struct CaptureOutcome {
    util::Status open_status;
    bool sink_opened = false;
    core::SessionResult session;
    util::Status close_status;
    uint64_t tracer_records = 0;
    uint64_t tracer_lost = 0;
    bool end_degraded = false;
    uint32_t ckpts_written = 0;
};

CaptureOutcome
RunCapture(const CampaignSpec& spec, io::ChaosVfs& vfs)
{
    CaptureOutcome out;
    const cpu::Machine::Config mconfig = MachineConfigFor(spec);
    const core::AtumConfig tconfig = TracerConfigFor(spec);

    cpu::Machine machine(mconfig);
    util::StatusOr<std::unique_ptr<trace::FileSink>> sink =
        trace::FileSink::Open(kTracePath,
                              trace::Atf2WriterOptions{spec.chunk_records},
                              vfs);
    out.open_status = sink.status();
    if (!sink.ok())
        return out;
    out.sink_opened = true;

    core::AtumTracer tracer(machine, **sink, tconfig);
    kernel::BootSystem(machine,
                       {workloads::MakeWorkload(spec.workload, spec.scale)});

    core::CheckpointRotator rotator(kCkptBase, spec.keep_checkpoints, 1, vfs);
    core::SupervisorOptions sup;
    sup.max_instructions = spec.max_instructions;
    sup.stop_flag = vfs.cut_flag();
    sup.checkpoints = &rotator;
    sup.checkpoint_every_fills = spec.checkpoint_every_fills;
    sup.file_sink = sink->get();
    sup.meta.machine_config = mconfig;
    sup.meta.tracer_config = tconfig;
    sup.meta.trace_path = kTracePath;

    out.session = core::RunSupervised(machine, tracer, sup);
    out.close_status = (*sink)->Close();
    out.tracer_records = tracer.records();
    out.tracer_lost = tracer.lost_records();
    out.end_degraded = tracer.degraded();
    out.ckpts_written = rotator.written();
    return out;
}

/** What a tolerant scan of the (recovered) trace found. */
struct TraceFacts {
    bool file_exists = false;
    trace::ScanReport report;
    std::vector<trace::Record> records;
    uint64_t data = 0;          ///< non-marker records
    uint64_t markers = 0;       ///< kLoss markers
    uint32_t last_marker = 0;   ///< addr of the last kLoss marker
};

util::StatusOr<TraceFacts>
ScanUniverse(io::Vfs& vfs, const std::string& path = kTracePath)
{
    TraceFacts facts;
    util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
        trace::FileByteSource::Open(path, vfs);
    if (!in.ok()) {
        if (in.status().code() == util::StatusCode::kNotFound)
            return facts;  // nothing durable was ever promised
        return in.status();
    }
    facts.file_exists = true;
    facts.report = trace::ScanTrace(**in, &facts.records);
    for (const trace::Record& r : facts.records) {
        if (r.type == trace::RecordType::kLoss) {
            ++facts.markers;
            facts.last_marker = r.addr;
        } else {
            ++facts.data;
        }
    }
    return facts;
}

/** Round-trips the salvaged records through a fresh container. */
void
CheckSalvageRoundTrip(DrillResult& r, const TraceFacts& facts)
{
    if (facts.records.empty())
        return;
    // A fresh local MemVfs, not the drill's: the round trip must not move
    // the drill's op counts.
    io::MemVfs scratch;
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        scratch.Create(kTracePath);
    const util::Status status =
        out.ok() ? trace::WriteAtf2(**out, facts.records) : out.status();
    if (!status.ok()) {
        r.Fail("prefix-consistency",
               "salvaged records fail to re-serialize: " + status.ToString());
        return;
    }
    util::StatusOr<std::unique_ptr<io::ReadableFile>> in =
        scratch.OpenRead(kTracePath);
    if (!in.ok()) {
        r.Fail("prefix-consistency", in.status().ToString());
        return;
    }
    const trace::ScanReport report = trace::ScanTrace(**in, nullptr);
    if (!report.intact() ||
        report.records_salvaged != facts.records.size()) {
        r.Fail("prefix-consistency",
               "salvage round-trip is not intact: " + report.ToString());
    }
}

/**
 * The full invariant battery for a trace whose owning session's final
 * accounting is known (a fault-free close or a completed resume).
 */
void
CheckAccountedTrace(SeedResult& r, const TraceFacts& facts,
                    uint64_t appended, uint64_t lost, bool close_ok,
                    bool end_degraded, bool has_damage, bool has_short,
                    uint32_t chunk_records)
{
    std::ostringstream ctx;
    ctx << " (appended=" << appended << " lost=" << lost
        << " data=" << facts.data << " markers=" << facts.markers
        << " chunks_bad=" << facts.report.chunks_bad
        << " close_ok=" << close_ok << ")";

    if (!facts.file_exists || !facts.report.recognized) {
        if (appended > lost)
            r.Fail("accounting",
                   "trace missing/unrecognized though records were "
                   "delivered" + ctx.str());
        return;
    }

    // I1 — accounting. Every appended record is either scanned back or
    // declared lost; detected-corrupt chunks and an unsealed pending
    // chunk bound the only permissible gap, and both are *loud* (scan
    // issues / a failed close).
    const uint64_t declared = facts.data + lost;
    const uint64_t slack =
        static_cast<uint64_t>(facts.report.chunks_bad) * chunk_records +
        (close_ok ? 0 : chunk_records);
    if (declared > appended && !has_short)
        r.Fail("accounting",
               "more records recovered+declared-lost than were ever "
               "appended" + ctx.str());
    if (declared + slack < appended)
        r.Fail("accounting", "silent loss: recovered + declared-lost + "
               "detected-damage bound < appended" + ctx.str());

    // The in-stream loss marker: once the sink recovered (not degraded
    // at the end), the stream documents the cumulative loss itself.
    if (lost > 0 && !end_degraded && close_ok && !has_damage) {
        const uint32_t want =
            lost > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(lost);
        if (facts.markers == 0 || facts.last_marker != want)
            r.Fail("accounting",
                   "lost records but the stream's kLoss marker does not "
                   "declare them" + ctx.str());
    }

    // I3 — prefix consistency (only meaningful without injected rot).
    if (!has_damage) {
        if (facts.report.chunks_bad != 0)
            r.Fail("prefix-consistency",
                   "bad chunks without injected corruption" + ctx.str());
        if (facts.report.valid_prefix_records !=
            facts.report.records_salvaged)
            r.Fail("prefix-consistency",
                   "salvageable records beyond the valid prefix" + ctx.str());
        if (close_ok && !facts.report.intact())
            r.Fail("prefix-consistency",
                   "clean close but the container is not intact" + ctx.str());
    }

    CheckSalvageRoundTrip(r, facts);
}

/** Reduced battery when only the durable prefix survives (no resume). */
void
CheckSalvagedTrace(SeedResult& r, const TraceFacts& facts,
                   uint64_t max_appended, bool has_damage, bool has_short)
{
    if (!facts.file_exists || !facts.report.recognized)
        return;  // a cut before the first sync promises nothing
    if (facts.data > max_appended && !has_short) {
        r.Fail("accounting", "durable trace holds more records than the "
               "capture ever appended");
    }
    if (!has_damage) {
        if (facts.report.chunks_bad != 0)
            r.Fail("prefix-consistency",
                   "bad chunks in the durable prefix without injected "
                   "corruption: " + facts.report.ToString());
        if (facts.report.valid_prefix_records !=
            facts.report.records_salvaged)
            r.Fail("prefix-consistency",
                   "salvageable records beyond the valid prefix: " +
                       facts.report.ToString());
    }
    CheckSalvageRoundTrip(r, facts);
}

/**
 * Post-crash recovery: newest loadable checkpoint wins; its absence when
 * the session counted a durable write is THE no-silent-loss violation
 * this subsystem exists to catch.
 */
void
RecoverAfterCut(const CampaignSpec& spec, SeedResult& r,
                const CaptureOutcome& cap, io::MemVfs& rebooted,
                bool has_damage, bool has_short)
{
    const auto recovery_start = std::chrono::steady_clock::now();
    const auto stop_recovery_clock = [&] {
        r.recovery_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - recovery_start)
                .count());
    };
    util::StatusOr<core::Checkpoint> found =
        core::FindNewestCheckpoint(kCkptBase, rebooted);
    if (!found.ok()) {
        if (cap.ckpts_written > 0) {
            r.Fail("durable-checkpoint",
                   "session counted " + std::to_string(cap.ckpts_written) +
                       " checkpoints written but none is loadable after "
                       "the crash");
        }
        util::StatusOr<TraceFacts> facts = ScanUniverse(rebooted);
        stop_recovery_clock();
        if (!facts.ok()) {
            r.Fail("prefix-consistency",
                   "durable trace unreadable: " + facts.status().ToString());
            return;
        }
        r.salvaged = facts->file_exists;
        r.data_records = facts->data;
        CheckSalvagedTrace(r, *facts, cap.tracer_records, has_damage,
                           has_short);
        return;
    }

    // I2 — the checkpoint names a trace high-water mark that SaveState
    // made durable *before* the checkpoint was published; resume must
    // find the trace at (or past) it.
    util::StatusOr<core::ResumedCapture> resumed =
        core::ResumeCapture(*found, kTracePath, rebooted);
    if (!resumed.ok()) {
        r.Fail("durable-checkpoint",
               "loadable checkpoint but the capture cannot be resumed: " +
                   resumed.status().ToString());
        return;
    }
    stop_recovery_clock();  // ready to continue the capture

    core::AtumTracer& tracer = *resumed->tracer;
    (void)core::RunSupervised(
        *resumed->machine, tracer,
        {.max_instructions = resumed->instructions_remaining});
    const util::Status close_status = resumed->sink->Close();

    util::StatusOr<TraceFacts> facts = ScanUniverse(rebooted);
    if (!facts.ok()) {
        r.Fail("prefix-consistency",
               "recovered trace unreadable: " + facts.status().ToString());
        return;
    }
    r.resumed = true;
    r.data_records = facts->data;
    r.lost_records = tracer.lost_records();
    CheckAccountedTrace(r, *facts, tracer.records(), tracer.lost_records(),
                        close_status.ok(), tracer.degraded(), has_damage,
                        has_short, spec.chunk_records);
}

// ---------------------------------------------------------------------------
// Serve kill-restart drills (campaign.h §serve).

/**
 * The deterministic request script one seed drives into the daemon:
 * whether to run a queued job right after each submit, and which
 * submission (if any) gets a cancel. Derived from the seed alone —
 * never from responses — so a fault cannot change the action sequence,
 * only each action's effect.
 */
struct ServePlan {
    std::vector<uint8_t> run_after;
    bool cancel_some = false;
    uint32_t cancel_index = 0;
    // Sweep phase (spec.sweeps > 0): which finished capture each sweep
    // replays, whether to run it right after submitting, and whether one
    // of its configs is deliberately invalid (per-row isolation drill).
    std::vector<uint64_t> sweep_of;
    std::vector<uint8_t> sweep_run_after;
    std::vector<uint8_t> sweep_bad;
};

ServePlan
MakeServePlan(const ServeCampaignSpec& spec, uint64_t seed)
{
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xA7ull);
    ServePlan plan;
    plan.run_after.resize(spec.jobs);
    for (uint32_t j = 0; j < spec.jobs; ++j)
        plan.run_after[j] = (rng() & 1) != 0;
    plan.cancel_some = spec.jobs > 1 && (rng() & 3) != 0;
    plan.cancel_index = spec.jobs > 0
                            ? static_cast<uint32_t>(rng() % spec.jobs)
                            : 0;
    // Sweep draws come after every classic draw, so adding sweeps to a
    // spec never changes the capture phase a given seed scripts.
    for (uint32_t s = 0; s < spec.sweeps; ++s) {
        // Capture ids are 1..jobs in submission order (next_id_ starts
        // at 1); a target whose capture failed or was cancelled simply
        // earns a rejected submission, which the plan shrugs at.
        plan.sweep_of.push_back(spec.jobs > 0 ? 1 + rng() % spec.jobs : 1);
        plan.sweep_run_after.push_back((rng() & 1) != 0);
        plan.sweep_bad.push_back((rng() & 3) == 0);
    }
    return plan;
}

/**
 * The deterministic config list sweep `s` submits: a mix of cache,
 * hierarchy and TLB geometries varied by (sweep, config) index, with one
 * impossible geometry (non-power-of-two block) when the plan injects a
 * bad row — the sweep must isolate it, not die of it.
 */
std::vector<replay::ConfigSpec>
SweepConfigsFor(const ServeCampaignSpec& spec, uint32_t s, bool inject_bad)
{
    std::vector<replay::ConfigSpec> configs;
    const uint32_t n = spec.sweep_configs > 0 ? spec.sweep_configs : 1;
    for (uint32_t j = 0; j < n; ++j) {
        replay::ConfigSpec config;
        switch ((s + j) % 3) {
          case 0:
            config.kind = "cache";
            config.size_kb = 4u << (j % 3);
            config.block = 16;
            config.assoc = 1u << (j % 2);
            break;
          case 1:
            config.kind = "hierarchy";
            config.size_kb = 32u << (j % 2);
            config.block = 16;
            config.assoc = 2;
            break;
          default:
            config.kind = "tlb";
            config.entries = 16u << (j % 3);
            config.ways = (j % 2) != 0 ? 4 : 0;
            break;
        }
        configs.push_back(config);
    }
    if (inject_bad) {
        replay::ConfigSpec& bad = configs[s % n];
        bad.kind = "cache";
        bad.block = 24;  // not a power of two: fails ValidateConfig
        bad.label = "bad-geometry";
    }
    return configs;
}

/** The drill-mode daemon of a serve or net drill whose script makes
 *  `submissions` submits: the queue has room for every one of them. */
template <typename Spec>
serve::ServeConfig
ServeConfigFor(const Spec& spec, uint32_t submissions)
{
    serve::ServeConfig config;
    config.dir = ".";    // flat MemVfs names, like the capture drills
    config.workers = 0;  // drill mode: jobs run on this thread, in order
    config.admission.max_queue_depth = submissions + 4;
    config.admission.max_per_tenant = submissions + 4;
    config.admission.default_max_instructions = spec.max_instructions;
    config.buffer_bytes = spec.buffer_bytes;
    config.chunk_records = spec.chunk_records;
    config.checkpoint_every_fills = spec.checkpoint_every_fills;
    config.keep_checkpoints = spec.keep_checkpoints;
    return config;
}

/** What the pre-crash daemon generation promised and last believed. */
struct ServeGeneration {
    bool started = false;
    util::Status start_status;
    std::vector<uint64_t> acked;       ///< ids whose submit was answered ok
    std::vector<serve::JobInfo> jobs;  ///< in-memory table at process end
};

/** The id a submit response promises, or 0 when it promises nothing. */
uint64_t
AckedId(const std::string& response)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    if (!doc.ok() || !doc->Get("ok").AsBool() || !doc->Has("id"))
        return 0;
    return doc->Get("id").AsU64();
}

/**
 * Generation 1 — the daemon that will die. Runs the seed's script under
 * the fault schedule; every action first checks the power-cut latch,
 * because a SIGKILLed process executes nothing further.
 */
ServeGeneration
RunServeScript(const ServeCampaignSpec& spec, uint64_t seed,
               io::ChaosVfs& vfs)
{
    const ServePlan plan = MakeServePlan(spec, seed);
    ServeGeneration gen;

    serve::ServeConfig config = ServeConfigFor(spec, spec.jobs);
    config.external_stop = vfs.cut_flag();
    obs::Registry registry;
    serve::ServeCore core(config, vfs, &registry);
    gen.start_status = core.Start();
    if (!gen.start_status.ok())
        return gen;  // never came up, never promised anything
    gen.started = true;

    const auto cut = [&] { return vfs.power_cut_fired(); };
    const uint32_t tenants = spec.tenants > 0 ? spec.tenants : 1;
    for (uint32_t j = 0; j < spec.jobs && !cut(); ++j) {
        serve::Request submit;
        submit.op = serve::RequestOp::kSubmit;
        submit.tenant = "tenant-" + std::to_string(j % tenants);
        submit.workload = spec.workload;
        submit.scale = spec.scale;
        submit.quota.max_instructions = spec.max_instructions;
        const uint64_t id =
            AckedId(core.HandleRequest(serve::SerializeRequest(submit)));
        if (id != 0)
            gen.acked.push_back(id);
        if (plan.run_after[j] && !cut())
            core.RunNextQueuedJob();
    }
    if (plan.cancel_some && plan.cancel_index < gen.acked.size() && !cut()) {
        serve::Request cancel;
        cancel.op = serve::RequestOp::kCancel;
        cancel.id = gen.acked[plan.cancel_index];
        cancel.has_id = true;
        core.HandleRequest(serve::SerializeRequest(cancel));
    }
    while (!cut() && core.RunNextQueuedJob()) {
    }
    // Sweep phase: replay finished captures across config fans. Acked
    // sweep ids join the same promise list — S1 makes no distinction
    // between a capture and a sweep the daemon said yes to.
    for (uint32_t s = 0;
         s < static_cast<uint32_t>(plan.sweep_of.size()) && !cut(); ++s) {
        serve::Request sweep;
        sweep.op = serve::RequestOp::kSweep;
        sweep.tenant = "tenant-" + std::to_string(s % tenants);
        sweep.sweep_of = plan.sweep_of[s];
        sweep.sweep_configs =
            SweepConfigsFor(spec, s, plan.sweep_bad[s] != 0);
        const uint64_t id =
            AckedId(core.HandleRequest(serve::SerializeRequest(sweep)));
        if (id != 0)
            gen.acked.push_back(id);
        if (plan.sweep_run_after[s] && !cut())
            core.RunNextQueuedJob();
    }
    while (!cut() && core.RunNextQueuedJob()) {
    }
    if (!cut())
        core.Shutdown();  // the fault mix let the daemon live: clean exit
    gen.jobs = core.Jobs();
    return gen;
    // ~ServeCore on a cut generation is the abandoned process: its
    // shutdown I/O all fails against the dead disk and changes nothing.
}

/**
 * Generation 2 — the restarted daemon. Boots on the crash-consistent
 * snapshot, recovers from the journal, drains every surviving job to a
 * terminal state, and exits cleanly. No faults: recovery itself must
 * work on a healthy disk.
 */
std::vector<serve::JobInfo>
RecoverServe(const ServeCampaignSpec& spec, io::MemVfs& rebooted,
             ServeSeedResult& r)
{
    serve::ServeConfig config = ServeConfigFor(spec, spec.jobs);
    obs::Registry registry;
    serve::ServeCore core(config, rebooted, &registry);
    if (util::Status s = core.Start(); !s.ok()) {
        r.Fail("serve-recovery",
               "restarted daemon cannot recover: " + s.ToString());
        return {};
    }
    while (core.RunNextQueuedJob()) {
    }
    core.Shutdown();
    return core.Jobs();
}

/**
 * Inspects the crash-consistent journal BEFORE recovery touches it: did
 * the cut leave a sweep mid-flight with some — not zero, not all — of
 * its configs journaled? Those are the drills where resume actually has
 * a prefix to preserve, the acceptance bar for the S5 battery.
 */
void
DetectSweepPartialResume(io::Vfs& rebooted, ServeSeedResult& r)
{
    util::StatusOr<std::string> bytes =
        io::ReadFile(rebooted, "serve.journal");
    if (!bytes.ok())
        return;
    const std::vector<serve::JournalRecord> records =
        serve::ScanJournalBytes(*bytes, nullptr, nullptr);
    std::map<uint64_t, size_t> totals;
    std::map<uint64_t, std::set<uint32_t>> rows;
    std::set<uint64_t> terminal;
    for (const serve::JournalRecord& record : records) {
        if (record.kind == serve::JournalKind::kSubmitted &&
            record.job == "sweep")
            totals[record.id] = record.configs.size();
        if (record.kind == serve::JournalKind::kSweepConfig)
            rows[record.id].insert(record.config_index);
        if (record.kind == serve::JournalKind::kFinished ||
            record.kind == serve::JournalKind::kCancelled)
            terminal.insert(record.id);
    }
    for (const auto& [id, total] : totals) {
        if (terminal.count(id))
            continue;
        const size_t have = rows.count(id) ? rows[id].size() : 0;
        if (have > 0 && have < total)
            r.sweep_partial_resume = true;
    }
}

bool
IsTerminalJobState(serve::JobState state)
{
    return state == serve::JobState::kDone ||
           state == serve::JobState::kFailed ||
           state == serve::JobState::kCancelled;
}

/** The input-trace record count a canonical row carries (its input
 *  fingerprint), or UINT64_MAX when the row doesn't parse. */
uint64_t
RowRecordsFingerprint(const std::string& row)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(row);
    if (!doc.ok() || !doc->is_object() || !doc->Has("records"))
        return UINT64_MAX;
    return doc->Get("records").AsU64();
}

/**
 * The S4/S5 battery over the final generation's sweeps.
 *
 * S4 — every config result journaled complete appears verbatim in the
 * final sweep: the journal row and the streamed row are the same bytes.
 * Absent injected damage, no (job, config) pair is journaled twice.
 *
 * S5 — the recovered sweep (journaled prefix + re-run remainder) is
 * bit-identical to a clean replay of the same configs over the final
 * durable trace. Rows whose input fingerprint disagrees with that trace
 * are skipped: a power cut can legitimately shrink a capture's durable
 * prefix after rows were journaled against the longer one, and those
 * rows are S4's (kept verbatim), not S5's (recomputable).
 */
void
CheckSweepInvariants(ServeSeedResult& r,
                     const std::map<uint64_t, const serve::JobInfo*>& by_id,
                     const std::vector<serve::JournalRecord>& records,
                     io::Vfs& final_vfs, bool has_damage)
{
    std::set<std::pair<uint64_t, uint32_t>> journaled;
    for (const serve::JournalRecord& record : records) {
        if (record.kind != serve::JournalKind::kSweepConfig)
            continue;
        if (!journaled.insert({record.id, record.config_index}).second &&
            !has_damage) {
            r.Fail("serve-sweep-dup",
                   "config " + std::to_string(record.config_index) +
                       " of sweep " + std::to_string(record.id) +
                       " journaled twice");
            continue;
        }
        const auto it = by_id.find(record.id);
        if (it == by_id.end()) {
            if (!has_damage)
                r.Fail("serve-sweep-lost-row",
                       "journaled row for unknown sweep " +
                           std::to_string(record.id));
            continue;
        }
        const serve::JobInfo& job = *it->second;
        if (job.kind != "sweep" ||
            record.config_index >= job.sweep_rows.size()) {
            r.Fail("serve-sweep-lost-row",
                   "journaled row for job " + std::to_string(record.id) +
                       " config " + std::to_string(record.config_index) +
                       " does not fit the recovered sweep");
            continue;
        }
        // S4 proper: the journaled row IS the reported row, byte for
        // byte, across any number of kill/restart cycles.
        if (job.sweep_rows[record.config_index] != record.row)
            r.Fail("serve-sweep-lost-row",
                   "sweep " + std::to_string(record.id) + " config " +
                       std::to_string(record.config_index) +
                       " diverges from its journaled row: journal=" +
                       record.row + " reported=" +
                       job.sweep_rows[record.config_index]);
    }

    for (const auto& [id, job] : by_id) {
        if (job->kind != "sweep")
            continue;
        for (const std::string& row : job->sweep_rows)
            if (!row.empty())
                ++r.sweep_rows;

        if (has_damage)
            continue;  // S5 needs an undamaged trace to recompute against

        // Clean-run golden: replay the journaled spec over the final
        // durable trace with no controls, through the same canonical
        // row serialization the daemon used.
        util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
            trace::FileByteSource::Open(
                "job-" + std::to_string(job->sweep_of) + ".atf2",
                final_vfs);
        if (!in.ok())
            continue;  // trace lost with the cut: nothing to recompute
        std::vector<trace::Record> trace_records;
        const trace::ScanReport report =
            trace::ScanTrace(**in, &trace_records);
        if (!report.recognized)
            continue;
        for (uint32_t i = 0; i < job->sweep_rows.size(); ++i) {
            const std::string& row = job->sweep_rows[i];
            if (row.empty())
                continue;
            if (RowRecordsFingerprint(row) != trace_records.size())
                continue;  // journaled against a longer durable prefix
            const replay::SweepResult result = replay::ReplayOne(
                trace_records, job->configs[i].ToReplayConfig());
            const std::string golden = serve::SweepRowJson(
                i, trace_records.size(), job->configs[i], result);
            if (row != golden)
                r.Fail("serve-sweep-divergence",
                       "sweep " + std::to_string(id) + " config " +
                           std::to_string(i) +
                           " is not bit-identical to the clean run: got " +
                           row + " want " + golden);
        }
    }
}

/** The S1-S3 battery over the final generation's truth. */
void
CheckServeInvariants(ServeSeedResult& r, const std::vector<uint64_t>& acked,
                     const std::vector<serve::JobInfo>& final_jobs,
                     io::Vfs& final_vfs, bool has_damage)
{
    r.jobs_acked = static_cast<uint32_t>(acked.size());
    std::map<uint64_t, const serve::JobInfo*> by_id;
    for (const serve::JobInfo& job : final_jobs) {
        by_id[job.id] = &job;
        if (job.state == serve::JobState::kDone)
            ++r.jobs_done;
        if (job.resumed)
            ++r.jobs_resumed;
        if (job.outcome == "salvaged")
            ++r.jobs_salvaged;
    }

    // Scan the surviving journal exactly the way a next restart would.
    util::StatusOr<std::string> bytes =
        io::ReadFile(final_vfs, "serve.journal");
    std::vector<serve::JournalRecord> records;
    bool journal_dropped = false;
    if (bytes.ok()) {
        records = serve::ScanJournalBytes(*bytes, nullptr, &journal_dropped);
    } else if (!acked.empty()) {
        r.Fail("serve-journal",
               "daemon acked jobs but left no readable journal: " +
                   bytes.status().ToString());
        return;
    }

    std::set<uint64_t> submitted;
    std::set<uint64_t> terminal;
    std::set<uint64_t> reported_after_terminal;
    for (const serve::JournalRecord& record : records) {
        if (record.kind == serve::JournalKind::kSubmitted)
            submitted.insert(record.id);
        // S2 — nothing may happen to a job after its terminal record; a
        // second start or finish after one IS the double-run.
        if (terminal.count(record.id) &&
            reported_after_terminal.insert(record.id).second) {
            r.Fail("serve-double-run",
                   "journal records for job " + std::to_string(record.id) +
                       " continue after its terminal record");
        }
        if (record.kind == serve::JournalKind::kFinished ||
            record.kind == serve::JournalKind::kCancelled)
            terminal.insert(record.id);
    }

    // S1 — no lost jobs: an ack is a promise that survives any kill.
    for (uint64_t id : acked) {
        if (has_damage && !submitted.count(id))
            continue;  // injected rot ate the record — J3's prefix rule
        const auto it = by_id.find(id);
        if (it == by_id.end()) {
            r.Fail("serve-lost-job",
                   "acked job " + std::to_string(id) +
                       " is gone from the recovered daemon");
            continue;
        }
        if (!IsTerminalJobState(it->second->state))
            r.Fail("serve-lost-job",
                   "acked job " + std::to_string(id) + " is stuck in state " +
                       serve::JobStateName(it->second->state));
        // Across a restart the journal is the only memory; the terminal
        // verdict must be in it, not just in the replacement's RAM.
        if (r.power_cut && !terminal.count(id))
            r.Fail("serve-lost-job",
                   "acked job " + std::to_string(id) +
                       " has no terminal journal record after recovery");
    }

    for (uint64_t id : acked) {
        const auto it = by_id.find(id);
        if (it != by_id.end() && it->second->kind == "sweep")
            ++r.sweeps_acked;
    }

    // S3 — the surviving journal itself scans clean (absent injected rot;
    // gen-1's torn tail was truncated away when the journal reopened).
    if (!has_damage && journal_dropped)
        r.Fail("serve-journal",
               "final journal has a torn/corrupt tail after recovery");

    // S4/S5 — sweep rows survive verbatim and the merged result matches
    // a clean run (partially gated on damage, like the trace checks).
    CheckSweepInvariants(r, by_id, records, final_vfs, has_damage);

    // S3 — every completed job's trace is prefix-consistent and its
    // salvage round-trips (only provable without injected rot).
    if (has_damage)
        return;
    for (const serve::JobInfo& job : final_jobs) {
        if (job.state != serve::JobState::kDone)
            continue;
        if (job.kind == "sweep")
            continue;  // no trace of its own; its rows are S4/S5's beat
        const std::string trace_path =
            "job-" + std::to_string(job.id) + ".atf2";
        util::StatusOr<TraceFacts> facts =
            ScanUniverse(final_vfs, trace_path);
        if (!facts.ok()) {
            r.Fail("serve-trace", trace_path + " unreadable: " +
                                         facts.status().ToString());
            continue;
        }
        if (!facts->file_exists || !facts->report.recognized) {
            // A "done" sealed before the cut may have lost un-synced
            // bytes with the power; only a daemon that never crashed
            // owes us the file.
            if (!r.power_cut)
                r.Fail("serve-trace",
                       "job " + std::to_string(job.id) +
                           " is done but its trace is missing/unrecognized");
            continue;
        }
        if (facts->report.chunks_bad != 0)
            r.Fail("serve-trace",
                   trace_path + " has bad chunks without injected "
                                "corruption: " + facts->report.ToString());
        if (facts->report.valid_prefix_records !=
            facts->report.records_salvaged)
            r.Fail("serve-trace",
                   trace_path + " has salvageable records beyond the valid "
                                "prefix: " + facts->report.ToString());
        CheckSalvageRoundTrip(r, *facts);
    }
}

// ---------------------------------------------------------------------------
// Hostile-network drills (campaign.h §net).

/**
 * True when the schedule silently rewrites bytes in flight. The client's
 * book of promises is then unreliable — a flipped token or id is the
 * wire's lie, not the daemon's — so the client-perspective checks (N3,
 * answers-parse) stand down, exactly like the damage gates in the disk
 * drills. The journal-side N1 check never stands down: dedup happens on
 * the bytes the daemon received, whatever the wire did to them.
 */
bool
ScheduleHasNetFlip(const io::ChaosSchedule& schedule)
{
    for (const io::ChaosOp& op : schedule.ops) {
        if (op.kind == io::ChaosOpKind::kFlipSend ||
            op.kind == io::ChaosOpKind::kFlipRecv)
            return true;
    }
    return false;
}

/**
 * The deterministic client script one seed drives over the wire: which
 * submits are followed by running a queued job, and where pings are
 * interleaved. Derived from the seed alone — never from responses — so
 * a fault cannot change the action sequence, only each action's effect.
 */
struct NetPlan {
    std::vector<uint8_t> run_after;
    std::vector<uint8_t> ping_after;
};

NetPlan
MakeNetPlan(const NetCampaignSpec& spec, uint64_t seed)
{
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xC3ull);
    NetPlan plan;
    plan.run_after.resize(spec.submits);
    plan.ping_after.resize(spec.submits);
    for (uint32_t j = 0; j < spec.submits; ++j) {
        plan.run_after[j] = (rng() & 1) != 0;
        plan.ping_after[j] = (rng() & 3) == 0;
    }
    return plan;
}

/** Loop bound for wire pumps: one delivery puts at most two small frames
 *  on the wire (the duplicate), so running this long without drying up
 *  is a wedge — the N2 violation, not an infinite loop. */
constexpr int kNetPumpBound = 64;

/**
 * One hostile-network drill in flight: the daemon (disk, core, metrics
 * registry and connection governor, all replaced on every kill-restart)
 * with the serve::Conversation it runs for the client's current dial,
 * the client's frame parser, and the client's book of promises — every
 * id it was ever acked, per idempotency token.
 */
class NetHarness
{
  public:
    NetHarness(const NetCampaignSpec& spec, io::ChaosNet& net,
               NetSeedResult& r)
        : spec_(spec), net_(net), r_(r),
          has_flip_(ScheduleHasNetFlip(r.schedule)),
          disk_(std::make_unique<io::MemVfs>()),
          registry_(std::make_unique<obs::Registry>())
    {
    }

    util::Status Start()
    {
        Spawn();
        AcceptDial();
        return core_->Start();
    }

    bool dead() const { return dead_; }

    /**
     * Delivers one request over the hostile wire, retrying ambiguous
     * outcomes (sent, but no answer read back) with the SAME bytes —
     * atum-submit's retry path, which is exactly what the idempotency
     * token exists to make safe. A request without a token (ping) is
     * fire-and-forget: one attempt, shrug at silence.
     */
    void Deliver(const serve::Request& request, const std::string& token)
    {
        const std::string payload = serve::SerializeRequest(request);
        const uint32_t attempts =
            token.empty() ? 1 : std::max(1u, spec_.max_attempts);
        for (uint32_t a = 0; a < attempts && !dead_; ++a) {
            if (a > 0) {
                ++r_.retries;
                ResetWire();  // dial again; the network remembers nothing
            }
            const uint64_t req = net_.NextRequest();
            if (net_.TakeKillServe(req))
                KillRestart();
            if (dead_)
                return;
            const util::Status sent =
                serve::WriteFrameStream(net_.client_to_server(), payload);
            if (sent.ok() && net_.TakeDupRequest(req)) {
                // The impatient client: the same bytes land twice and
                // the daemon must treat them as one submission (N1).
                (void)serve::WriteFrameStream(net_.client_to_server(),
                                              payload);
            }
            PumpServer();
            if (ReadAnswers(token) > 0)
                return;  // answered (even a rejection is definitive)
            // Sent-but-unanswered or never sent: retry with the token.
        }
    }

    /** Runs one queued job to completion (the drill-mode worker). */
    void RunOneJob()
    {
        if (!dead_)
            core_->RunNextQueuedJob();
    }

    /**
     * Drains every queued job, shuts the final daemon generation down
     * cleanly, and runs the N1-N3 battery over its journal and job
     * table.
     */
    void Finish()
    {
        if (dead_)
            return;  // recovery already failed loudly; nothing to check
        while (core_->RunNextQueuedJob()) {
        }
        core_->Shutdown();
        CountPoisonFrames();
        CheckNetInvariants(core_->Jobs());
    }

  private:
    /** A daemon process: core and connection governor over the current
     *  disk and registry. */
    void Spawn()
    {
        core_ = std::make_unique<serve::ServeCore>(
            ServeConfigFor(spec_, spec_.submits), *disk_, registry_.get());
        governor_ = std::make_unique<serve::ConnGovernor>(
            serve::ConnGovernorConfig{});
    }

    /**
     * The daemon's side of a dial: the previous connection is closed
     * and the new one admitted, with a fresh Conversation. The drill
     * holds one connection at a time, so no cap ever sheds it.
     */
    void AcceptDial()
    {
        if (conversation_ != nullptr)
            governor_->OnClose(conversation_->id());
        const uint64_t id = ++conn_ids_;
        (void)governor_->OnAccept(id, /*now_ms=*/0);
        conversation_ =
            std::make_unique<serve::Conversation>(*core_, *governor_, id);
    }

    /** A fresh dial over the same hostile network: queues drain, the
     *  disconnect latch clears, both framing states start over. */
    void ResetWire()
    {
        net_.ResetConnection();
        AcceptDial();
        client_parser_ = serve::FrameParser();
    }

    /** Adds the dying generation's serve.net.poison_frames to the
     *  seed's tally. */
    void CountPoisonFrames()
    {
        r_.poison_frames += static_cast<uint32_t>(
            registry_->GetCounter("serve.net.poison_frames").value());
    }

    /**
     * The daemon dies mid-script (SIGKILL: no destructor courtesy
     * reaches the disk that matters) and a supervisor restarts it on
     * the crash-consistent state. The in-flight connection dies with
     * the process.
     */
    void KillRestart()
    {
        ++r_.kills;
        const io::MemVfs::Snapshot snap = disk_->SnapshotDurable();
        CountPoisonFrames();
        conversation_.reset();  // the connection dies with the process
        governor_.reset();
        core_.reset();  // the dying process's last I/O hits the old disk
        registry_ = std::make_unique<obs::Registry>();
        disk_ = std::make_unique<io::MemVfs>(snap);
        Spawn();
        if (util::Status s = core_->Start(); !s.ok()) {
            r_.Fail("net-recovery",
                    "restarted daemon cannot recover: " + s.ToString());
            dead_ = true;
            return;
        }
        ResetWire();
    }

    /**
     * Appends everything currently on `wire` to `bytes`. Returns false
     * when the connection turned hostile (an injected fault or the
     * disconnect latch) rather than merely running dry — the caller
     * then drops its framing state like a real peer dropping a socket.
     */
    bool DrainWire(io::Stream& wire, std::string& bytes)
    {
        char buf[512];
        for (int i = 0; i < kNetPumpBound; ++i) {
            util::StatusOr<size_t> n = wire.Read(buf, sizeof buf);
            if (!n.ok())
                return false;
            if (*n == 0)
                return true;
            bytes.append(buf, *n);
        }
        r_.Fail("net-wedged",
                "wire did not run dry within " +
                    std::to_string(kNetPumpBound) + " reads");
        return true;
    }

    /**
     * The daemon's side of one delivery: read whatever arrived and hand
     * it to the Conversation atum-serve runs, then put each answer frame
     * on the wire as its own write. A poison frame is answered with a
     * structured error and the daemon hangs up after it (N2's contract).
     */
    void PumpServer()
    {
        std::string bytes;
        const bool alive = DrainWire(net_.client_to_server(), bytes);
        if (!conversation_->Receive(bytes.data(), bytes.size())) {
            AcceptDial();  // evicted over its buffer bound, unanswered
            return;
        }
        const uint32_t faults_before_answers = net_.faults_fired();
        bool answers_sent = true;
        int answered = 0;
        for (std::string_view out; !(out = conversation_->Unsent()).empty();
             ++answered) {
            answers_sent &=
                io::WriteAll(net_.server_to_client(), out.data(), out.size())
                    .ok();
            conversation_->Sent(out.size());
        }
        if (answered >= kNetPumpBound) {
            r_.Fail("net-wedged",
                    "server answered " + std::to_string(answered) +
                        " frames from one delivery");
        }
        if (conversation_->condemned()) {
            // The daemon closes once the error is out; the client reads
            // what was sent, then sees the hang-up and dials again.
            if (answers_sent)
                poison_answer_mark_ = faults_before_answers;
        } else if (!alive) {
            // The read faulted: the daemon saw a dead peer and drops
            // any half-received frame with the connection.
            AcceptDial();
        }
    }

    /**
     * The client's side: read whatever answers arrived and record every
     * ack against the token. Returns how many complete answers were
     * read; 0 is the ambiguous outcome the retry loop exists for.
     */
    int ReadAnswers(const std::string& token)
    {
        std::string bytes;
        const bool alive = DrainWire(net_.server_to_client(), bytes);
        client_parser_.Feed(bytes.data(), bytes.size());
        const std::optional<uint32_t> poison_mark =
            std::exchange(poison_answer_mark_, std::nullopt);
        int got = 0;
        std::string payload;
        while (got < kNetPumpBound) {
            util::StatusOr<bool> next = client_parser_.Next(&payload);
            if (!next.ok()) {
                // An oversized frame from the daemon — only a rewritten
                // length in flight can produce one.
                if (!has_flip_)
                    r_.Fail("net-garbage-answer",
                            "daemon framing poisoned the client parser on "
                            "a clean wire: " + next.status().ToString());
                ResetWire();
                return got;
            }
            if (!*next)
                break;
            ++got;
            RecordAnswer(token, payload);
        }
        if (got == kNetPumpBound)
            r_.Fail("net-wedged",
                    "client read " + std::to_string(kNetPumpBound) +
                        " answers to one delivery without running dry");
        if (poison_mark && net_.faults_fired() == *poison_mark)
            CheckPoisonAnswer(got > 0 ? payload : std::string());
        if (!alive || client_parser_.pending_bytes() > 0 ||
            conversation_->condemned()) {
            // A faulted read, a torn answer or the daemon's hang-up: the
            // client drops the connection (it cannot resynchronize a
            // byte stream) and the retry loop dials fresh.
            ResetWire();
        }
        return got;
    }

    /**
     * N2 — a poison frame earns a structured invalid-argument error.
     * `last` is the last answer the client read after the daemon
     * answered the poison, when no fault touched the answers on their
     * way; the error is always the last thing the daemon sends.
     */
    void CheckPoisonAnswer(const std::string& last)
    {
        util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(last);
        if (doc.ok() && doc->is_object() &&
            doc->Get("code").AsString() == "invalid-argument")
            return;
        r_.Fail("net-poison-unanswered",
                "after a poison frame the client read " +
                    (last.empty() ? std::string("no answer")
                                  : "'" + last + "' as the last answer"));
    }

    void RecordAnswer(const std::string& token, const std::string& payload)
    {
        util::StatusOr<util::JsonValue> doc =
            util::JsonValue::Parse(payload);
        if (!doc.ok() || !doc->is_object() || !doc->Has("ok")) {
            // N2 — on a clean wire, every byte the daemon frames is a
            // JSON document; anything else is the daemon babbling.
            if (!has_flip_)
                r_.Fail("net-garbage-answer",
                        "daemon answered bytes that do not parse: " +
                            payload);
            return;
        }
        if (token.empty() || !doc->Get("ok").AsBool() || !doc->Has("id"))
            return;
        acked_[token].push_back(doc->Get("id").AsU64());
        ++r_.acks;
        if (doc->Has("dup") && doc->Get("dup").AsBool())
            ++r_.dup_acks;
    }

    /** The N1-N3 battery over the final generation's truth. */
    void CheckNetInvariants(const std::vector<serve::JobInfo>& final_jobs)
    {
        util::StatusOr<std::string> bytes =
            io::ReadFile(*disk_, "serve.journal");
        std::vector<serve::JournalRecord> records;
        bool dropped = false;
        if (bytes.ok()) {
            records = serve::ScanJournalBytes(*bytes, nullptr, &dropped);
        } else if (!acked_.empty()) {
            r_.Fail("net-journal",
                    "daemon acked submits but left no readable journal: " +
                        bytes.status().ToString());
            return;
        }
        // The wire cannot damage the disk: however hostile the network
        // was, the surviving journal scans clean end-to-end.
        if (dropped)
            r_.Fail("net-journal",
                    "journal has a torn/corrupt tail after a wire-only "
                    "drill");

        // N1 — at most one submission per token, across every delivery,
        // duplicate, retry and kill-restart. Checked on the journal's
        // own bytes, so it holds even under flips.
        std::map<std::string, std::set<uint64_t>> token_ids;
        for (const serve::JournalRecord& record : records) {
            if (record.kind == serve::JournalKind::kSubmitted &&
                !record.client_token.empty())
                token_ids[record.client_token].insert(record.id);
        }
        for (const auto& [token, ids] : token_ids) {
            if (ids.size() <= 1)
                continue;
            std::string detail = "token '" + token + "' was submitted " +
                                 std::to_string(ids.size()) + " times: ids";
            for (uint64_t id : ids) {
                detail += ' ';
                detail += std::to_string(id);
            }
            r_.Fail("net-double-run", detail);
        }

        if (has_flip_)
            return;  // flipped bytes make the client's book unreliable

        // N3 — every ack for one token names one id, that id is
        // journaled under the token, and the promised job reached a
        // terminal state.
        std::map<uint64_t, const serve::JobInfo*> by_id;
        for (const serve::JobInfo& job : final_jobs)
            by_id[job.id] = &job;
        for (const auto& [token, ids] : acked_) {
            if (ids.empty())
                continue;
            const uint64_t id0 = ids[0];
            for (uint64_t id : ids) {
                if (id != id0) {
                    r_.Fail("net-ack-divergence",
                            "token '" + token + "' was acked as job " +
                                std::to_string(id0) + " and again as job " +
                                std::to_string(id));
                    break;
                }
            }
            const auto journaled = token_ids.find(token);
            if (journaled == token_ids.end() ||
                journaled->second.count(id0) == 0) {
                r_.Fail("net-ack-orphan",
                        "token '" + token + "' was acked as job " +
                            std::to_string(id0) +
                            " but the journal never submitted it");
                continue;
            }
            const auto it = by_id.find(id0);
            if (it == by_id.end()) {
                r_.Fail("net-lost-job",
                        "acked job " + std::to_string(id0) +
                            " is gone from the final daemon");
            } else if (!IsTerminalJobState(it->second->state)) {
                r_.Fail("net-lost-job",
                        "acked job " + std::to_string(id0) +
                            " is stuck in state " +
                            serve::JobStateName(it->second->state));
            }
        }
    }

    const NetCampaignSpec& spec_;
    io::ChaosNet& net_;
    NetSeedResult& r_;
    const bool has_flip_;
    bool dead_ = false;

    std::unique_ptr<io::MemVfs> disk_;
    std::unique_ptr<obs::Registry> registry_;
    std::unique_ptr<serve::ServeCore> core_;
    std::unique_ptr<serve::ConnGovernor> governor_;
    std::unique_ptr<serve::Conversation> conversation_;
    uint64_t conn_ids_ = 0;
    /** Faults fired before the daemon wrote a poison frame's answer;
     *  set until the client's next read checks that answer. */
    std::optional<uint32_t> poison_answer_mark_;
    serve::FrameParser client_parser_;
    std::map<std::string, std::vector<uint64_t>> acked_;
};

/** Runs one seed's whole client script through `harness`. */
void
RunNetScript(const NetCampaignSpec& spec, uint64_t seed,
             NetHarness& harness)
{
    const NetPlan plan = MakeNetPlan(spec, seed);
    const uint32_t tenants = spec.tenants > 0 ? spec.tenants : 1;
    for (uint32_t j = 0; j < spec.submits && !harness.dead(); ++j) {
        serve::Request submit;
        submit.op = serve::RequestOp::kSubmit;
        submit.tenant = "tenant-" + std::to_string(j % tenants);
        submit.workload = spec.workload;
        submit.scale = spec.scale;
        submit.quota.max_instructions = spec.max_instructions;
        submit.client_token = "tok-" + std::to_string(seed) + "-" +
                              std::to_string(j);
        harness.Deliver(submit, submit.client_token);
        if (plan.run_after[j])
            harness.RunOneJob();
        if (plan.ping_after[j]) {
            serve::Request ping;
            ping.op = serve::RequestOp::kPing;
            harness.Deliver(ping, "");
        }
    }
    harness.Finish();
}

// ---------------------------------------------------------------------------
// The campaign driver every drill shares.

/** The verdict tail of every Summary line: ": ok", or the violation
 *  count followed by each [invariant] and its detail. */
std::string
Verdict(const std::vector<InvariantViolation>& violations)
{
    if (violations.empty())
        return ": ok";
    std::ostringstream os;
    os << ": " << violations.size() << " VIOLATIONS";
    for (const InvariantViolation& v : violations)
        os << " [" << v.invariant << "] " << v.detail;
    return os.str();
}

// Each drill's own counts, added into its campaign aggregate.

void
Tally(CampaignResult& total, const SeedResult& r)
{
    total.power_cuts += r.power_cut;
    total.resumes += r.resumed;
    total.salvages += r.salvaged;
}

void
Tally(ServeCampaignResult& total, const ServeSeedResult& r)
{
    total.power_cuts += r.power_cut;
    total.resumes += r.jobs_resumed;
    total.salvages += r.jobs_salvaged;
    total.sweeps_acked += r.sweeps_acked;
    total.sweep_rows += r.sweep_rows;
    total.sweep_partial_resumes += r.sweep_partial_resume;
}

void
Tally(NetCampaignResult& total, const NetSeedResult& r)
{
    total.kills += r.kills;
    total.retries += r.retries;
    total.acks += r.acks;
    total.dup_acks += r.dup_acks;
}

/**
 * The seed loop: each seed's schedule is rolled from the op counts
 * `probe(seed)` returns, drilled, and tallied into the aggregate.
 */
template <typename Campaign, typename Spec, typename Seed, typename Probe>
util::StatusOr<Campaign>
RunSeeds(const Spec& spec, uint64_t first_seed, uint64_t seeds,
         const Probe& probe, const std::function<void(const Seed&)>& on_seed)
{
    Campaign result;
    for (uint64_t i = 0; i < seeds; ++i) {
        const uint64_t seed = first_seed + i;
        util::StatusOr<io::OpCounts> counts = probe(seed);
        if (!counts.ok())
            return counts.status();
        util::StatusOr<io::ChaosSchedule> schedule =
            io::ChaosSchedule::Random(seed, spec.campaigns, *counts);
        if (!schedule.ok())
            return schedule.status();
        util::StatusOr<Seed> seed_result = ReplaySchedule(spec, *schedule);
        if (!seed_result.ok())
            return seed_result.status();
        ++result.seeds_run;
        result.faults_fired += seed_result->faults_fired;
        Tally(result, *seed_result);
        if (!seed_result->ok())
            result.failures.push_back(*seed_result);
        if (on_seed)
            on_seed(*seed_result);
    }
    return result;
}

/** The greedy shrinker behind every Minimize overload. */
template <typename Spec>
util::StatusOr<io::ChaosSchedule>
Shrink(const Spec& spec, const io::ChaosSchedule& schedule)
{
    const auto fails = [&](const io::ChaosSchedule& s)
        -> util::StatusOr<bool> {
        auto r = ReplaySchedule(spec, s);
        if (!r.ok())
            return r.status();
        return !r->ok();
    };

    util::StatusOr<bool> failing = fails(schedule);
    if (!failing.ok())
        return failing.status();
    if (!*failing)
        return schedule;  // nothing to preserve; return unchanged

    io::ChaosSchedule current = schedule;
    bool shrunk = true;
    while (shrunk && current.ops.size() > 1) {
        shrunk = false;
        for (size_t i = 0; i < current.ops.size(); ++i) {
            io::ChaosSchedule trial = current;
            trial.ops.erase(trial.ops.begin() + static_cast<long>(i));
            util::StatusOr<bool> still = fails(trial);
            if (!still.ok())
                return still.status();
            if (*still) {
                current = std::move(trial);
                shrunk = true;
                break;
            }
        }
    }
    return current;
}

}  // namespace

std::string
SeedResult::Summary() const
{
    std::ostringstream os;
    os << "seed " << seed << ": " << faults_fired << " faults";
    if (power_cut)
        os << ", power-cut";
    os << (resumed ? ", resumed" : salvaged ? ", salvaged" : ", in-place");
    os << ", " << data_records << " records";
    if (lost_records > 0)
        os << " + " << lost_records << " declared lost";
    os << Verdict(violations);
    return os.str();
}

util::StatusOr<io::OpCounts>
ProbeOpCounts(const CampaignSpec& spec)
{
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, io::ChaosSchedule{});
    const CaptureOutcome cap = RunCapture(spec, vfs);
    if (!cap.sink_opened)
        return cap.open_status;
    if (!cap.close_status.ok())
        return cap.close_status;
    if (!cap.session.drain_status.ok())
        return cap.session.drain_status;
    return vfs.counts();
}

util::StatusOr<SeedResult>
ReplaySchedule(const CampaignSpec& spec, const io::ChaosSchedule& schedule)
{
    SeedResult r;
    r.seed = schedule.seed;
    r.schedule = schedule;
    const bool has_damage = ScheduleHasDamage(schedule);
    const bool has_short = ScheduleHasShortWrite(schedule);

    io::MemVfs mem;
    io::ChaosVfs vfs(mem, schedule);
    const CaptureOutcome cap = RunCapture(spec, vfs);
    r.faults_fired = vfs.faults_fired();
    r.power_cut = vfs.power_cut_fired();

    if (!cap.sink_opened && !r.power_cut)
        return cap.open_status;  // MemVfs cannot refuse Create otherwise

    if (r.power_cut) {
        // Reboot onto the crash-consistent state and recover.
        io::MemVfs rebooted(vfs.snapshot());
        RecoverAfterCut(spec, r, cap, rebooted, has_damage, has_short);
        return r;
    }

    // The process survived its faults; its own books must balance.
    util::StatusOr<TraceFacts> facts = ScanUniverse(mem);
    if (!facts.ok()) {
        r.Fail("prefix-consistency",
               "trace unreadable: " + facts.status().ToString());
        return r;
    }
    r.data_records = facts->data;
    r.lost_records = cap.tracer_lost;
    CheckAccountedTrace(r, *facts, cap.tracer_records, cap.tracer_lost,
                        cap.close_status.ok(), cap.end_degraded, has_damage,
                        has_short, spec.chunk_records);
    return r;
}

util::StatusOr<CampaignResult>
RunCampaign(const CampaignSpec& spec, uint64_t first_seed, uint64_t seeds,
            const std::function<void(const SeedResult&)>& on_seed)
{
    const util::StatusOr<io::OpCounts> probe = ProbeOpCounts(spec);
    if (!probe.ok())
        return probe.status();
    return RunSeeds<CampaignResult>(
        spec, first_seed, seeds, [&](uint64_t) { return probe; }, on_seed);
}

util::StatusOr<io::ChaosSchedule>
Minimize(const CampaignSpec& spec, const io::ChaosSchedule& schedule)
{
    return Shrink(spec, schedule);
}

// ---------------------------------------------------------------------------
// Serve kill-restart campaign entry points.

std::string
ServeSeedResult::Summary() const
{
    std::ostringstream os;
    os << "seed " << seed << ": " << faults_fired << " faults";
    if (power_cut)
        os << ", power-cut";
    os << ", " << jobs_acked << " acked, " << jobs_done << " done";
    if (jobs_resumed > 0)
        os << ", " << jobs_resumed << " resumed";
    if (jobs_salvaged > 0)
        os << ", " << jobs_salvaged << " salvaged";
    if (sweeps_acked > 0)
        os << ", " << sweeps_acked << " sweeps/" << sweep_rows << " rows";
    if (sweep_partial_resume)
        os << ", sweep-partial-resume";
    os << Verdict(violations);
    return os.str();
}

util::StatusOr<io::OpCounts>
ProbeOpCounts(const ServeCampaignSpec& spec, uint64_t seed)
{
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, io::ChaosSchedule{});
    const ServeGeneration gen = RunServeScript(spec, seed, vfs);
    if (!gen.started)
        return gen.start_status;
    return vfs.counts();
}

util::StatusOr<ServeSeedResult>
ReplaySchedule(const ServeCampaignSpec& spec,
               const io::ChaosSchedule& schedule)
{
    ServeSeedResult r;
    r.seed = schedule.seed;
    r.schedule = schedule;
    const bool has_damage = ScheduleHasDamage(schedule);

    io::MemVfs mem;
    io::ChaosVfs vfs(mem, schedule);
    const ServeGeneration gen1 = RunServeScript(spec, schedule.seed, vfs);
    r.faults_fired = vfs.faults_fired();
    r.power_cut = vfs.power_cut_fired();

    if (!gen1.started) {
        // The daemon refused to come up (journal unopenable under a
        // fault, or died to the cut before listening). Loud and
        // promise-free — vacuously within the invariants.
        return r;
    }

    if (r.power_cut) {
        io::MemVfs rebooted(vfs.snapshot());
        DetectSweepPartialResume(rebooted, r);
        const std::vector<serve::JobInfo> final_jobs =
            RecoverServe(spec, rebooted, r);
        CheckServeInvariants(r, gen1.acked, final_jobs, rebooted,
                             has_damage);
        return r;
    }

    // The daemon survived its faults and shut down cleanly; its own
    // final table and journal must already balance.
    CheckServeInvariants(r, gen1.acked, gen1.jobs, mem, has_damage);
    return r;
}

util::StatusOr<ServeCampaignResult>
RunCampaign(const ServeCampaignSpec& spec, uint64_t first_seed,
            uint64_t seeds,
            const std::function<void(const ServeSeedResult&)>& on_seed)
{
    return RunSeeds<ServeCampaignResult>(
        spec, first_seed, seeds,
        [&](uint64_t seed) { return ProbeOpCounts(spec, seed); }, on_seed);
}

util::StatusOr<io::ChaosSchedule>
Minimize(const ServeCampaignSpec& spec, const io::ChaosSchedule& schedule)
{
    return Shrink(spec, schedule);
}

// ---------------------------------------------------------------------------
// Hostile-network campaign entry points.

std::string
NetSeedResult::Summary() const
{
    std::ostringstream os;
    os << "seed " << seed << ": " << faults_fired << " net faults";
    if (kills > 0)
        os << ", " << kills << " kills";
    os << ", " << acks << " acked";
    if (dup_acks > 0)
        os << " (" << dup_acks << " dedup)";
    if (retries > 0)
        os << ", " << retries << " retries";
    if (poison_frames > 0)
        os << ", " << poison_frames << " poisoned";
    os << Verdict(violations);
    return os.str();
}

util::StatusOr<io::OpCounts>
ProbeOpCounts(const NetCampaignSpec& spec, uint64_t seed)
{
    NetSeedResult r;
    io::ChaosNet net{io::ChaosSchedule{}};
    NetHarness harness(spec, net, r);
    if (util::Status s = harness.Start(); !s.ok())
        return s;
    RunNetScript(spec, seed, harness);
    if (!r.ok())
        return util::InternalError(
            "fault-free net probe violated an invariant: " +
            r.violations.front().detail);
    return net.counts();
}

util::StatusOr<NetSeedResult>
ReplaySchedule(const NetCampaignSpec& spec, const io::ChaosSchedule& schedule)
{
    NetSeedResult r;
    r.seed = schedule.seed;
    r.schedule = schedule;

    io::ChaosNet net(schedule);
    NetHarness harness(spec, net, r);
    if (util::Status s = harness.Start(); !s.ok())
        return s;  // a fresh MemVfs cannot refuse a start: a real error
    RunNetScript(spec, schedule.seed, harness);
    r.faults_fired = net.faults_fired();
    return r;
}

util::StatusOr<NetCampaignResult>
RunCampaign(const NetCampaignSpec& spec, uint64_t first_seed, uint64_t seeds,
            const std::function<void(const NetSeedResult&)>& on_seed)
{
    return RunSeeds<NetCampaignResult>(
        spec, first_seed, seeds,
        [&](uint64_t seed) { return ProbeOpCounts(spec, seed); }, on_seed);
}

util::StatusOr<io::ChaosSchedule>
Minimize(const NetCampaignSpec& spec, const io::ChaosSchedule& schedule)
{
    return Shrink(spec, schedule);
}

// ---------------------------------------------------------------------------
// Deterministic protocol fuzzing.

std::string
FuzzReport::Summary() const
{
    std::ostringstream os;
    os << "fuzz: " << inputs << " inputs, " << frames
       << " frames extracted, " << parsed << " parsed, " << rejected
       << " rejected" << Verdict(violations);
    return os.str();
}

namespace {

/** A valid request of a seed-picked shape — the fuzzer's raw material,
 *  so mutations explore the neighborhood of real traffic instead of
 *  only the (easily rejected) space of pure noise. */
std::string
FuzzBasePayload(std::mt19937_64& rng)
{
    serve::Request request;
    switch (rng() % 6) {
      case 0:
        request.op = serve::RequestOp::kPing;
        break;
      case 1:
        request.op = serve::RequestOp::kSubmit;
        request.tenant = "tenant-" + std::to_string(rng() % 4);
        request.workload = "grep";
        request.scale = 1 + static_cast<uint32_t>(rng() % 3);
        request.quota.max_instructions = 1 + rng() % 100'000;
        request.client_token = "fuzz-" + std::to_string(rng() % 1'000);
        break;
      case 2:
        request.op = serve::RequestOp::kStatus;
        if ((rng() & 1) != 0) {
            request.id = rng() % 16;
            request.has_id = true;
        }
        break;
      case 3:
        request.op = serve::RequestOp::kCancel;
        request.id = rng() % 16;
        request.has_id = true;
        break;
      case 4:
        request.op = serve::RequestOp::kMetrics;
        break;
      default:
        request.op = serve::RequestOp::kDrain;
        break;
    }
    return serve::SerializeRequest(request);
}

/** One seed-mutated byte string: framed traffic with flips, truncations,
 *  length tampering, splices, garbage — the hostile client's repertoire. */
std::string
FuzzInput(std::mt19937_64& rng)
{
    std::string bytes;
    switch (rng() % 8) {
      case 0:  // well-formed single frame (the control group)
        bytes = serve::EncodeFrame(FuzzBasePayload(rng));
        break;
      case 1: {  // two spliced frames (pipelined requests)
        bytes = serve::EncodeFrame(FuzzBasePayload(rng)) +
                serve::EncodeFrame(FuzzBasePayload(rng));
        break;
      }
      case 2: {  // flipped bits in a valid frame
        bytes = serve::EncodeFrame(FuzzBasePayload(rng));
        const size_t flips = 1 + rng() % 8;
        for (size_t f = 0; f < flips && !bytes.empty(); ++f)
            bytes[rng() % bytes.size()] ^=
                static_cast<char>(1u << (rng() % 8));
        break;
      }
      case 3: {  // truncated frame (mid-frame disconnect)
        bytes = serve::EncodeFrame(FuzzBasePayload(rng));
        bytes.resize(rng() % bytes.size());
        break;
      }
      case 4: {  // tampered length prefix, up to and past the cap
        bytes = serve::EncodeFrame(FuzzBasePayload(rng));
        const uint32_t len = static_cast<uint32_t>(
            rng() % (2ull * serve::kMaxFrameBytes));
        bytes[0] = static_cast<char>(len & 0xFF);
        bytes[1] = static_cast<char>((len >> 8) & 0xFF);
        bytes[2] = static_cast<char>((len >> 16) & 0xFF);
        bytes[3] = static_cast<char>((len >> 24) & 0xFF);
        break;
      }
      case 5: {  // garbage prefix before a valid frame (desync)
        const size_t n = 1 + rng() % 16;
        for (size_t b = 0; b < n; ++b)
            bytes.push_back(static_cast<char>(rng() & 0xFF));
        bytes += serve::EncodeFrame(FuzzBasePayload(rng));
        break;
      }
      case 6: {  // framed garbage (valid length, noise payload)
        std::string noise;
        const size_t n = rng() % 256;
        for (size_t b = 0; b < n; ++b)
            noise.push_back(static_cast<char>(rng() & 0xFF));
        bytes = serve::EncodeFrame(noise);
        break;
      }
      default: {  // pure noise, no framing at all
        const size_t n = rng() % 256;
        for (size_t b = 0; b < n; ++b)
            bytes.push_back(static_cast<char>(rng() & 0xFF));
        break;
      }
    }
    return bytes;
}

}  // namespace

FuzzReport
FuzzProtocol(uint64_t seed, uint64_t inputs)
{
    FuzzReport report;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xF2ull);
    for (uint64_t i = 0; i < inputs; ++i) {
        ++report.inputs;
        const std::string bytes = FuzzInput(rng);

        serve::FrameParser parser;
        size_t off = 0;
        bool poisoned = false;
        int steps = 0;
        while (off < bytes.size() && !poisoned && steps < 10'000) {
            // Feed in random-sized chunks: every framing bug that
            // depends on where read(2) happens to split the stream is
            // in scope.
            const size_t n =
                std::min<size_t>(1 + rng() % 97, bytes.size() - off);
            parser.Feed(bytes.data() + off, n);
            off += n;
            std::string payload;
            for (; steps < 10'000; ++steps) {
                util::StatusOr<bool> got = parser.Next(&payload);
                if (!got.ok()) {
                    // Poisoned: the daemon answers a structured error
                    // and closes; feeding more would be a use-after-
                    // close, so this input is done.
                    ++report.rejected;
                    poisoned = true;
                    break;
                }
                if (!*got)
                    break;
                ++report.frames;
                util::StatusOr<serve::Request> request =
                    serve::ParseRequest(payload);
                if (!request.ok()) {
                    ++report.rejected;
                    continue;
                }
                ++report.parsed;
                // A request the daemon accepts must survive its own
                // round trip: serialize and re-parse to the same op.
                util::StatusOr<serve::Request> again =
                    serve::ParseRequest(serve::SerializeRequest(*request));
                if (!again.ok() || again->op != request->op) {
                    report.violations.push_back(InvariantViolation{
                        "fuzz-roundtrip",
                        "accepted request does not round-trip: " +
                            payload});
                }
            }
            // The cap bounds what one connection can make the daemon
            // buffer: a length prefix plus one maximal frame, never
            // more.
            if (parser.pending_bytes() >
                static_cast<size_t>(serve::kMaxFrameBytes) + 4) {
                report.violations.push_back(InvariantViolation{
                    "fuzz-overbuffer",
                    "parser buffered " +
                        std::to_string(parser.pending_bytes()) +
                        " bytes, past the frame cap"});
                break;
            }
        }
        if (steps >= 10'000) {
            report.violations.push_back(InvariantViolation{
                "fuzz-wedge", "input " + std::to_string(i) +
                                  " did not drain in bounded steps"});
        }
    }
    return report;
}

}  // namespace atum::chaos
