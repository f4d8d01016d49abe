#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/checkpoint.h"
#include "core/session.h"
#include "kernel/boot.h"
#include "obs/flight.h"
#include "obs/spans.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads/workloads.h"

namespace atum::serve {

namespace {

/** Off only in the teeth test, which proves the net chaos campaign
 *  catches the double-run N1 violation dedup exists to prevent. */
std::atomic<bool> g_token_dedup{true};

constexpr char kJournalName[] = "serve.journal";
constexpr char kStatusName[] = "serve.status.json";
constexpr char kStatusVersion[] = "atum-serve-status-v1";

std::string
JoinPath(const std::string& dir, const std::string& name)
{
    // "." keeps MemVfs paths flat (DirOf("x") == "."), matching the
    // chaos campaign's convention.
    if (dir == "." || dir.empty())
        return name;
    return dir + "/" + name;
}

uint64_t
ElapsedUs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/** Terminal JobState a journaled outcome token folds to. */
JobState
StateForOutcome(const std::string& outcome)
{
    if (outcome == "cancelled")
        return JobState::kCancelled;
    if (outcome == "failed" || outcome == "wedged")
        return JobState::kFailed;
    // "done", "quota-bytes", "deadline", "salvaged": the capture stopped
    // cleanly and its durable trace is the (possibly truncated) product.
    return JobState::kDone;
}

bool
IsKnownWorkload(const std::string& name)
{
    const std::vector<std::string>& names = workloads::AllWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

void
WriteJobJson(util::JsonWriter& w, const JobInfo& info)
{
    w.BeginObject();
    w.KeyValue("id", info.id);
    w.KeyValue("kind", info.kind);
    w.KeyValue("tenant", info.tenant);
    w.KeyValue("workload", info.workload);
    w.KeyValue("scale", info.scale);
    w.KeyValue("state", JobStateName(info.state));
    if (!info.outcome.empty())
        w.KeyValue("outcome", info.outcome);
    if (!info.detail.empty())
        w.KeyValue("detail", info.detail);
    w.KeyValue("max_instructions", info.quota.max_instructions);
    w.KeyValue("max_trace_bytes", info.quota.max_trace_bytes);
    w.KeyValue("deadline_ms", info.quota.deadline_ms);
    w.KeyValue("records", info.records);
    w.KeyValue("trace_bytes", info.trace_bytes);
    w.KeyValue("instructions", info.instructions);
    w.KeyValue("resumed", info.resumed);
    if (info.kind == "sweep") {
        w.KeyValue("of", info.sweep_of);
        w.KeyValue("configs_total",
                   static_cast<uint64_t>(info.configs.size()));
        w.KeyValue("configs_done", info.configs_done);
        w.KeyValue("configs_failed", info.configs_failed);
        // The mergeable partial result: every finished row, streamed as
        // it completed. Spliced verbatim — these are the canonical bytes
        // the journal holds, and re-encoding would break the S4/S5
        // byte-identity the drills enforce.
        w.Key("rows");
        w.BeginArray();
        for (const std::string& row : info.sweep_rows) {
            if (!row.empty())
                w.RawValue(row);
        }
        w.EndArray();
    }
    w.EndObject();
}

}  // namespace

void
SetTokenDedupForTest(bool enabled)
{
    g_token_dedup.store(enabled, std::memory_order_relaxed);
}

const char*
JobStateName(JobState state)
{
    switch (state) {
      case JobState::kQueued:
        return "queued";
      case JobState::kRunning:
        return "running";
      case JobState::kDone:
        return "done";
      case JobState::kFailed:
        return "failed";
      case JobState::kCancelled:
        return "cancelled";
      case JobState::kInterrupted:
        return "interrupted";
    }
    return "?";
}

ServeCore::ServeCore(ServeConfig config, io::Vfs& vfs,
                     obs::Registry* registry)
    : config_(std::move(config)),
      vfs_(vfs),
      registry_(registry != nullptr ? *registry : obs::Registry::Global()),
      admission_(config_.admission)
{
}

ServeCore::~ServeCore()
{
    Shutdown();
}

std::string
ServeCore::TracePath(uint64_t id) const
{
    return JoinPath(config_.dir, "job-" + std::to_string(id) + ".atf2");
}

std::string
ServeCore::CheckpointBase(uint64_t id) const
{
    return JoinPath(config_.dir, "job-" + std::to_string(id) + ".ckpt");
}

util::Status
ServeCore::Start()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (started_)
        return util::FailedPrecondition("ServeCore::Start called twice");

    util::StatusOr<std::unique_ptr<JobJournal>> journal =
        JobJournal::Open(JoinPath(config_.dir, kJournalName), vfs_);
    if (!journal.ok())
        return journal.status();
    journal_ = std::move(*journal);
    if (journal_->tail_dropped()) {
        // J3: the torn tail was never acked, so dropping it is recovery
        // working, not data loss — but it is worth counting.
        registry_.GetCounter("serve.journal.tail_dropped").Add();
    }

    if (util::Status s = RecoverLocked(); !s.ok())
        return s;

    started_ = true;
    slots_free_ = config_.workers;
    if (config_.workers > 0) {
        pool_ = std::make_unique<replay::ThreadPool>(config_.workers);
        ScheduleMoreLocked();
    }
    PublishGaugesLocked();
    WriteStatusFileLocked();
    return util::OkStatus();
}

util::Status
ServeCore::RecoverLocked()
{
    // Pass 1: fold the journal into the job table. Later records win —
    // a kFinished forever outranks the kStarted before it (J2).
    for (const JournalRecord& record : journal_->recovered()) {
        next_id_ = std::max(next_id_, record.id + 1);
        std::unique_ptr<Job>& slot = jobs_[record.id];
        if (slot == nullptr)
            slot = std::make_unique<Job>();
        Job& job = *slot;
        switch (record.kind) {
          case JournalKind::kSubmitted:
            job.info.id = record.id;
            job.client_token = record.client_token;
            job.info.kind = record.job;
            job.info.tenant = record.tenant;
            job.info.workload = record.workload;
            job.info.scale = record.scale;
            job.info.quota = record.quota;
            job.info.state = JobState::kQueued;
            if (record.job == "sweep") {
                job.info.sweep_of = record.sweep_of;
                job.info.sweep_timeout_ms = record.sweep_timeout_ms;
                job.info.sweep_retries = record.sweep_retries;
                job.info.configs = record.configs;
                job.info.sweep_rows.assign(record.configs.size(), "");
            }
            break;
          case JournalKind::kStarted:
            job.info.state = JobState::kRunning;
            break;
          case JournalKind::kSweepConfig:
            // The resume high-water mark: this config is complete and
            // its row is final. RunSweepJob will skip it (S5: union of
            // journaled prefix and re-run remainder).
            if (record.config_index < job.info.sweep_rows.size() &&
                job.info.sweep_rows[record.config_index].empty()) {
                job.info.sweep_rows[record.config_index] = record.row;
                if (record.row.find("\"status\":\"ok\"") !=
                    std::string::npos)
                    ++job.info.configs_done;
                else
                    ++job.info.configs_failed;
            }
            break;
          case JournalKind::kFinished:
            job.info.state = StateForOutcome(record.outcome);
            job.info.outcome = record.outcome;
            job.info.detail = record.detail;
            break;
          case JournalKind::kCancelled:
            job.info.state = JobState::kCancelled;
            job.info.outcome = "cancelled";
            break;
        }
    }

    // A submitted record may have been lost with the torn tail while its
    // later records survived — impossible by construction (appends are
    // ordered), so a job without a workload means a corrupt mid-file
    // record slipped past the CRC. Treat it as noise, not a job.
    for (auto it = jobs_.begin(); it != jobs_.end();) {
        const JobInfo& info = it->second->info;
        const bool noise = info.kind == "sweep"
                               ? info.configs.empty()
                               : info.workload.empty();
        if (noise)
            it = jobs_.erase(it);
        else
            ++it;
    }

    // Rebuild the N1 dedup map: every journaled token still maps to its
    // original id, so a retry that straddles a kill-restart is answered
    // identically to one that never saw the daemon die (the first
    // submission wins when corruption ever yields a token twice).
    for (const auto& [id, slot] : jobs_) {
        if (!slot->client_token.empty())
            token_to_id_.emplace(slot->client_token, id);
    }

    // Pass 2: re-dispatch everything non-terminal.
    for (auto& [id, slot] : jobs_) {
        Job& job = *slot;
        switch (job.info.state) {
          case JobState::kQueued:
            ReadmitRecoveredLocked(id, job);
            break;
          case JobState::kRunning:
            ResolveInterruptedLocked(id, job);
            break;
          default:
            break;  // terminal: history, never re-run (J2)
        }
    }
    return util::OkStatus();
}

void
ServeCore::ReadmitRecoveredLocked(uint64_t id, Job& job)
{
    util::Status admitted = admission_.Admit(id, job.info.tenant);
    if (admitted.ok()) {
        job.info.state = JobState::kQueued;
        return;
    }
    // A tighter restart config can make the recovered backlog overflow
    // its own bounds; shedding stays the answer, and the shed must be
    // journaled so the next restart does not resurrect the job.
    JournalRecord record;
    record.kind = JournalKind::kFinished;
    record.id = id;
    record.outcome = "failed";
    record.detail = "shed on restart: " + std::string(admitted.message());
    AppendJournalLocked(record);
    job.info.state = JobState::kFailed;
    job.info.outcome = record.outcome;
    job.info.detail = record.detail;
    registry_.GetCounter("serve.jobs.shed").Add();
}

void
ServeCore::ResolveInterruptedLocked(uint64_t id, Job& job)
{
    // Sweeps carry their own resume state in the journal: the folded
    // kSweepConfig rows ARE the high-water mark, so there is no
    // checkpoint to find and no trace to salvage — re-queue and let
    // RunSweepJob skip every journaled row (S5: union of the journaled
    // prefix and the re-run remainder).
    if (job.info.kind == "sweep") {
        ReadmitRecoveredLocked(id, job);
        return;
    }

    // The daemon died (or was killed) while this job ran. Three ways
    // forward, in order of how much of the work they preserve:
    //  1. a loadable checkpoint -> re-queue; the run resumes from it
    //     byte-identically (RunJob discovers it again);
    //  2. no checkpoint but a recognizable durable trace -> salvage the
    //     intact prefix and finish the job as "salvaged";
    //  3. nothing durable -> re-queue for a fresh run (nothing was
    //     promised, nothing is lost).
    if (core::FindNewestCheckpoint(CheckpointBase(id), vfs_).ok()) {
        ReadmitRecoveredLocked(id, job);
        return;
    }

    util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
        trace::FileByteSource::Open(TracePath(id), vfs_);
    if (in.ok()) {
        std::vector<trace::Record> records;
        const trace::ScanReport report = trace::ScanTrace(**in, &records);
        if (report.recognized) {
            JournalRecord record;
            record.kind = JournalKind::kFinished;
            record.id = id;
            record.outcome = "salvaged";
            record.detail = report.ToString();
            AppendJournalLocked(record);
            job.info.state = JobState::kDone;
            job.info.outcome = record.outcome;
            job.info.detail = record.detail;
            job.info.records = report.records_salvaged;
            registry_.GetCounter("serve.jobs.salvaged").Add();
            return;
        }
    }
    ReadmitRecoveredLocked(id, job);
}

std::string
ServeCore::HandleRequest(const std::string& payload)
{
    util::StatusOr<Request> request = ParseRequest(payload);
    if (!request.ok()) {
        registry_.GetCounter("serve.requests.bad").Add();
        return ErrorResponse(request.status());
    }

    switch (request->op) {
      case RequestOp::kPing: {
        util::JsonWriter w;
        w.BeginObject();
        w.KeyValue("ok", true);
        w.KeyValue("v", kProtocolVersion);
        w.KeyValue("draining", draining());
        w.EndObject();
        return w.TakeStr();
      }
      case RequestOp::kSubmit: {
        const auto t0 = std::chrono::steady_clock::now();
        std::string response = HandleSubmit(*request);
        registry_.GetHistogram("serve.admit.us").Add(ElapsedUs(t0));
        return response;
      }
      case RequestOp::kSweep: {
        const auto t0 = std::chrono::steady_clock::now();
        std::string response = HandleSweep(*request);
        registry_.GetHistogram("serve.admit.us").Add(ElapsedUs(t0));
        return response;
      }
      case RequestOp::kStatus:
        return HandleStatus(*request);
      case RequestOp::kCancel:
        return HandleCancel(*request);
      case RequestOp::kMetrics: {
        util::JsonWriter w;
        w.BeginObject();
        w.KeyValue("ok", true);
        w.KeyValue("text", registry_.Snapshot().ToPrometheusText());
        w.EndObject();
        return w.TakeStr();
      }
      case RequestOp::kDrain: {
        RequestDrain();
        util::JsonWriter w;
        w.BeginObject();
        w.KeyValue("ok", true);
        w.KeyValue("draining", true);
        w.EndObject();
        return w.TakeStr();
      }
    }
    return ErrorResponse(util::InternalError("unhandled request op"));
}

std::string
ServeCore::HandleSubmit(const Request& request)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_)
        return ErrorResponse(
            util::FailedPrecondition("daemon is not started"));
    if (draining_.load(std::memory_order_relaxed))
        return ErrorResponse(util::Unavailable(
            "daemon is draining; retry against the next instance"));
    if (!IsKnownWorkload(request.workload))
        return ErrorResponse(util::InvalidArgument(
            "unknown workload '", request.workload, "'"));

    // N1 (exactly-once submits): a token seen before — in this life or,
    // via the journal, in any previous one — is a client retrying an
    // ambiguous submit. Answer with the original id; never double-run.
    if (!request.client_token.empty() &&
        g_token_dedup.load(std::memory_order_relaxed)) {
        auto dup = token_to_id_.find(request.client_token);
        if (dup != token_to_id_.end()) {
            registry_.GetCounter("serve.net.dup_token_hits").Add();
            auto it = jobs_.find(dup->second);
            util::JsonWriter w;
            w.BeginObject();
            w.KeyValue("ok", true);
            w.KeyValue("id", dup->second);
            w.KeyValue("state", it != jobs_.end()
                                    ? JobStateName(it->second->info.state)
                                    : "queued");
            w.KeyValue("dup", true);
            w.EndObject();
            return w.TakeStr();
        }
    }

    const uint64_t id = next_id_;
    if (util::Status admitted = admission_.Admit(id, request.tenant);
        !admitted.ok()) {
        registry_.GetCounter("serve.jobs.shed").Add();
        return ErrorResponse(admitted);
    }
    const JobQuota quota = admission_.EffectiveQuota(request.quota);

    // J1: the submission is durable before the client hears "accepted".
    JournalRecord record;
    record.kind = JournalKind::kSubmitted;
    record.id = id;
    record.client_token = request.client_token;
    record.tenant = request.tenant;
    record.workload = request.workload;
    record.scale = request.scale;
    record.quota = quota;
    if (util::Status logged = journal_->Append(record); !logged.ok()) {
        admission_.RemovePending(id);
        registry_.GetCounter("serve.journal.append_errors").Add();
        return ErrorResponse(util::Unavailable(
            "cannot journal the submission: ", logged.message()));
    }
    next_id_ = id + 1;

    auto job = std::make_unique<Job>();
    job->info.id = id;
    job->client_token = request.client_token;
    job->info.tenant = request.tenant;
    job->info.workload = request.workload;
    job->info.scale = request.scale;
    job->info.quota = quota;
    job->info.state = JobState::kQueued;
    jobs_[id] = std::move(job);
    if (!request.client_token.empty())
        token_to_id_.emplace(request.client_token, id);

    registry_.GetCounter("serve.jobs.submitted").Add();
    obs::RecordInstant("serve", "serve.submit", request.workload.c_str(),
                       "id", id);
    ScheduleMoreLocked();
    PublishGaugesLocked();
    WriteStatusFileLocked();

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("ok", true);
    w.KeyValue("id", id);
    w.KeyValue("state", "queued");
    w.EndObject();
    return w.TakeStr();
}

std::string
ServeCore::HandleSweep(const Request& request)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_)
        return ErrorResponse(
            util::FailedPrecondition("daemon is not started"));
    if (draining_.load(std::memory_order_relaxed))
        return ErrorResponse(util::Unavailable(
            "daemon is draining; retry against the next instance"));

    // The sweep replays a finished capture's durable trace; anything
    // else has no trace worth replaying (or not yet the final one).
    auto target = jobs_.find(request.sweep_of);
    if (target == jobs_.end())
        return ErrorResponse(
            util::NotFound("no job ", request.sweep_of, " to sweep"));
    const JobInfo& of = target->second->info;
    if (of.kind != "capture")
        return ErrorResponse(util::InvalidArgument(
            "job ", request.sweep_of, " is a ", of.kind,
            " job; sweeps replay capture traces"));
    if (of.state != JobState::kDone)
        return ErrorResponse(util::FailedPrecondition(
            "job ", request.sweep_of, " is ", JobStateName(of.state),
            "; only a done capture's trace can be swept"));

    const uint64_t id = next_id_;
    if (util::Status admitted = admission_.Admit(id, request.tenant);
        !admitted.ok()) {
        registry_.GetCounter("serve.jobs.shed").Add();
        return ErrorResponse(admitted);
    }

    // J1: the submission — including the whole config list, so recovery
    // can resume from the journal alone — is durable before the ack.
    JournalRecord record;
    record.kind = JournalKind::kSubmitted;
    record.id = id;
    record.job = "sweep";
    record.tenant = request.tenant;
    record.workload = "sweep";
    record.sweep_of = request.sweep_of;
    record.sweep_timeout_ms = request.sweep_timeout_ms;
    record.sweep_retries = request.sweep_retries;
    record.configs = request.sweep_configs;
    if (util::Status logged = journal_->Append(record); !logged.ok()) {
        admission_.RemovePending(id);
        registry_.GetCounter("serve.journal.append_errors").Add();
        return ErrorResponse(util::Unavailable(
            "cannot journal the sweep submission: ", logged.message()));
    }
    next_id_ = id + 1;

    auto job = std::make_unique<Job>();
    job->info.id = id;
    job->info.kind = "sweep";
    job->info.tenant = request.tenant;
    job->info.workload = "sweep";
    job->info.sweep_of = request.sweep_of;
    job->info.sweep_timeout_ms = request.sweep_timeout_ms;
    job->info.sweep_retries = request.sweep_retries;
    job->info.configs = request.sweep_configs;
    job->info.sweep_rows.assign(request.sweep_configs.size(), "");
    job->info.state = JobState::kQueued;
    jobs_[id] = std::move(job);

    registry_.GetCounter("serve.jobs.submitted").Add();
    registry_.GetCounter("serve.sweep.submitted").Add();
    obs::RecordInstant("serve", "serve.submit", "sweep", "id", id);
    ScheduleMoreLocked();
    PublishGaugesLocked();
    WriteStatusFileLocked();

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("ok", true);
    w.KeyValue("id", id);
    w.KeyValue("of", request.sweep_of);
    w.KeyValue("configs",
               static_cast<uint64_t>(request.sweep_configs.size()));
    w.KeyValue("state", "queued");
    w.EndObject();
    return w.TakeStr();
}

std::string
ServeCore::HandleStatus(const Request& request)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (request.has_id && jobs_.find(request.id) == jobs_.end())
        return ErrorResponse(util::NotFound("no job ", request.id));

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("ok", true);
    w.KeyValue("draining", draining_.load(std::memory_order_relaxed));
    w.KeyValue("queue_depth", admission_.pending_count());
    w.KeyValue("running", admission_.running_count());
    w.Key("jobs");
    w.BeginArray();
    for (const auto& [id, job] : jobs_) {
        if (request.has_id && id != request.id)
            continue;
        WriteJobJson(w, job->info);
    }
    w.EndArray();
    w.EndObject();
    return w.TakeStr();
}

std::string
ServeCore::HandleCancel(const Request& request)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(request.id);
    if (it == jobs_.end())
        return ErrorResponse(util::NotFound("no job ", request.id));
    Job& job = *it->second;

    const char* state = nullptr;
    switch (job.info.state) {
      case JobState::kQueued:
      case JobState::kInterrupted: {
        admission_.RemovePending(request.id);
        JournalRecord record;
        record.kind = JournalKind::kCancelled;
        record.id = request.id;
        AppendJournalLocked(record);
        job.info.state = JobState::kCancelled;
        job.info.outcome = "cancelled";
        registry_.GetCounter("serve.jobs.cancelled").Add();
        PublishGaugesLocked();
        WriteStatusFileLocked();
        state = "cancelled";
        break;
      }
      case JobState::kRunning:
        // Asynchronous: the job stops at its next slice boundary and the
        // worker journals the terminal record (J1 holds — "cancelled" is
        // only durable once it actually stopped).
        job.cancel_requested.store(true, std::memory_order_relaxed);
        job.stop_flag = 1;
        state = "cancelling";
        break;
      default:
        state = JobStateName(job.info.state);  // idempotent on terminal
        break;
    }

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("ok", true);
    w.KeyValue("id", request.id);
    w.KeyValue("state", state);
    w.EndObject();
    return w.TakeStr();
}

void
ServeCore::ScheduleMoreLocked()
{
    if (pool_ == nullptr || draining_.load(std::memory_order_relaxed))
        return;
    uint64_t id = 0;
    while (slots_free_ > 0 && admission_.PickNext(&id)) {
        --slots_free_;
        obs::RecordInstant("serve", "serve.admit", nullptr, "id", id);
        pool_->Submit([this, id] { RunJob(id); }, &drain_token_);
    }
}

bool
ServeCore::RunNextQueuedJob()
{
    uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (pool_ != nullptr || !started_)
            return false;
        if (!admission_.PickNext(&id))
            return false;
    }
    RunJob(id);
    return true;
}

void
ServeCore::FinishJob(uint64_t id, Job* job,
                     std::chrono::steady_clock::time_point t0,
                     const std::string& outcome, const std::string& detail,
                     bool interrupted, uint64_t records,
                     uint64_t instructions, uint64_t trace_bytes,
                     bool resumed)
{
    // Seals the job: journals the terminal record (unless the stop was an
    // interruption — drain/power — which must stay resumable), updates
    // the table, frees the slot, schedules the next job.
    std::lock_guard<std::mutex> lock(mu_);
    job->info.records = records;
    job->info.instructions += instructions;
    job->info.trace_bytes = trace_bytes;
    job->info.resumed = resumed;
    if (resumed)
        registry_.GetCounter("serve.jobs.resumed").Add();
    if (interrupted) {
        // No journal record: the dangling kStarted is exactly what
        // recovery looks for, and the sealed checkpoint/trace (or, for
        // sweeps, the journaled rows) are what it resumes from.
        job->info.state = JobState::kInterrupted;
    } else {
        JournalRecord record;
        record.kind = JournalKind::kFinished;
        record.id = id;
        record.outcome = outcome;
        record.detail = detail;
        AppendJournalLocked(record);
        job->info.state = StateForOutcome(outcome);
        job->info.outcome = outcome;
        job->info.detail = detail;
        switch (job->info.state) {
          case JobState::kDone:
            registry_.GetCounter("serve.jobs.completed").Add();
            break;
          case JobState::kFailed:
            registry_.GetCounter("serve.jobs.failed").Add();
            break;
          default:
            registry_.GetCounter("serve.jobs.cancelled").Add();
            break;
        }
        if (job->info.kind == "sweep") {
            if (outcome == "partial")
                registry_.GetCounter("serve.sweep.partial").Add();
            if (job->info.state == JobState::kDone)
                registry_.GetCounter("serve.sweep.completed").Add();
        }
    }
    admission_.FinishRunning(id);
    if (pool_ != nullptr)
        ++slots_free_;
    registry_.GetHistogram("serve.job.us").Add(ElapsedUs(t0));
    obs::RecordInstant("serve", "serve.finish",
                       interrupted ? "interrupted" : outcome.c_str(), "id",
                       id);
    ScheduleMoreLocked();
    PublishGaugesLocked();
    WriteStatusFileLocked();
}

void
ServeCore::RunJob(uint64_t id)
{
    const auto t0 = std::chrono::steady_clock::now();
    Job* job = nullptr;
    JobInfo spec;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return;
        job = it->second.get();
        job->info.state = JobState::kRunning;
        spec = job->info;
        JournalRecord record;
        record.kind = JournalKind::kStarted;
        record.id = id;
        AppendJournalLocked(record);
        PublishGaugesLocked();
        WriteStatusFileLocked();
    }

    if (spec.kind == "sweep") {
        RunSweepJob(id, job, spec, t0);
        return;
    }

    ATUM_SPAN_NAMED(job_span, "serve", "serve.job");
    job_span.set_detail(spec.workload);
    job_span.set_arg("id", id);

    const auto finish = [&](const std::string& outcome,
                            const std::string& detail, bool interrupted,
                            const core::SessionResult* result,
                            uint64_t trace_bytes, bool resumed) {
        FinishJob(id, job, t0, outcome, detail, interrupted,
                  result != nullptr ? result->records : 0,
                  result != nullptr ? result->instructions : 0, trace_bytes,
                  resumed);
    };

    // -- build the capture stack, resuming from a checkpoint if one
    //    survived a previous life of this daemon -------------------------
    cpu::Machine::Config mconfig;
    mconfig.mem_bytes = config_.mem_bytes;
    mconfig.timer_reload = 2000;
    core::AtumConfig tconfig;
    tconfig.buffer_bytes = config_.buffer_bytes;

    const std::string trace_path = TracePath(id);
    core::ResumedCapture capture;  // resumed below, or a fresh run
    capture.instructions_remaining = spec.quota.max_instructions;
    bool resumed = false;
    if (util::StatusOr<core::Checkpoint> found =
            core::FindNewestCheckpoint(CheckpointBase(id), vfs_);
        found.ok()) {
        util::StatusOr<core::ResumedCapture> continued =
            core::ResumeCapture(*found, trace_path, vfs_);
        if (continued.ok()) {
            capture = std::move(*continued);
            mconfig = found->meta().machine_config;
            tconfig = found->meta().tracer_config;
            resumed = true;
        }
    }

    if (!resumed) {
        util::StatusOr<std::unique_ptr<trace::FileSink>> fresh =
            trace::FileSink::Open(trace_path,
                                  trace::Atf2WriterOptions{
                                      config_.chunk_records},
                                  vfs_);
        if (!fresh.ok()) {
            // A dead filesystem (power cut mid-drill, disk gone) is an
            // interruption, not a job failure: the restart retries it.
            const bool interrupted =
                fresh.status().code() == util::StatusCode::kUnavailable;
            finish("failed", fresh.status().ToString(), interrupted,
                   nullptr, 0, false);
            return;
        }
        capture.sink = std::move(*fresh);
        capture.machine = std::make_unique<cpu::Machine>(mconfig);
        capture.tracer = std::make_unique<core::AtumTracer>(
            *capture.machine, *capture.sink, tconfig);
        kernel::BootSystem(
            *capture.machine,
            {workloads::MakeWorkload(spec.workload, spec.scale)});
    }

    core::CheckpointRotator rotator(CheckpointBase(id),
                                    config_.keep_checkpoints,
                                    capture.next_sequence, vfs_);
    obs::Registry job_registry;  // Set() publishing must not cross jobs
    trace::FileSink* sink_ptr = capture.sink.get();
    const uint64_t byte_quota = spec.quota.max_trace_bytes;

    core::SupervisorOptions sup;
    sup.max_instructions = capture.instructions_remaining;
    sup.watchdog_ucycles = config_.watchdog_ucycles;
    sup.deadline_ms = spec.quota.deadline_ms;
    sup.stop_flag = &job->stop_flag;
    sup.checkpoints = &rotator;
    sup.checkpoint_every_fills = config_.checkpoint_every_fills;
    sup.file_sink = sink_ptr;
    sup.meta.machine_config = mconfig;
    sup.meta.tracer_config = tconfig;
    sup.meta.trace_path = trace_path;
    sup.registry = &job_registry;
    sup.on_slice = [this, job, sink_ptr, byte_quota] {
        if (config_.external_stop != nullptr && *config_.external_stop != 0)
            job->stop_flag = 1;
        if (draining_.load(std::memory_order_relaxed))
            job->stop_flag = 1;
        if (job->cancel_requested.load(std::memory_order_relaxed))
            job->stop_flag = 1;
        if (byte_quota != 0 && sink_ptr->bytes_written() >= byte_quota) {
            job->quota_stopped.store(true, std::memory_order_relaxed);
            job->stop_flag = 1;
        }
    };

    const core::SessionResult result =
        core::RunSupervised(*capture.machine, *capture.tracer, sup);
    const util::Status close_status = capture.sink->Close();

    std::string outcome;
    std::string detail;
    bool interrupted = false;
    switch (result.stop_cause) {
      case core::StopCause::kHalted:
      case core::StopCause::kInstrLimit:
        outcome = "done";
        break;
      case core::StopCause::kDeadline:
        outcome = "deadline";
        break;
      case core::StopCause::kWatchdog:
        outcome = "wedged";
        detail = "no clean retirement within the watchdog budget";
        break;
      case core::StopCause::kSignal:
        if (job->cancel_requested.load(std::memory_order_relaxed)) {
            outcome = "cancelled";
        } else if (job->quota_stopped.load(std::memory_order_relaxed)) {
            outcome = "quota-bytes";
            detail = std::to_string(sink_ptr->bytes_written()) +
                     " durable trace bytes against a quota of " +
                     std::to_string(byte_quota);
            // Quota kills are a flight-recorder trigger: the dump's last
            // event names the job the quota stopped (docs/TRACING.md).
            obs::flight::Note("serve.quota-kill", spec.workload.c_str(),
                              sink_ptr->bytes_written(), byte_quota);
            obs::flight::DumpNow("quota-kill");
        } else {
            interrupted = true;  // drain or external cut: resumable
        }
        break;
    }
    if (!close_status.ok() && detail.empty())
        detail = "close: " + close_status.ToString();

    finish(outcome, detail, interrupted, &result,
           sink_ptr->bytes_written(), resumed);
}

void
ServeCore::RunSweepJob(uint64_t id, Job* job, const JobInfo& spec,
                       std::chrono::steady_clock::time_point t0)
{
    // `spec` is the post-recovery snapshot: rows journaled complete in a
    // previous life are already filled in, and this run never recomputes
    // them (S4: a reported row is never lost or changed).
    uint32_t prefilled = 0;
    for (const std::string& row : spec.sweep_rows)
        if (!row.empty())
            ++prefilled;
    const bool resumed = prefilled > 0;
    const uint32_t total = static_cast<uint32_t>(spec.configs.size());

    // Load the target capture's durable trace once, tolerantly: a
    // quota-stopped or salvaged capture's valid prefix is a perfectly
    // sweepable input.
    util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
        trace::FileByteSource::Open(TracePath(spec.sweep_of), vfs_);
    if (!in.ok()) {
        // A dead filesystem (power cut mid-drill) is an interruption the
        // restart retries; a missing trace is a sweep failure.
        const bool interrupted =
            in.status().code() == util::StatusCode::kUnavailable;
        FinishJob(id, job, t0, "failed",
                  "trace of job " + std::to_string(spec.sweep_of) + ": " +
                      in.status().ToString(),
                  interrupted, 0, 0, 0, resumed);
        return;
    }
    std::vector<trace::Record> records;
    const trace::ScanReport report = trace::ScanTrace(**in, &records);
    if (!report.recognized) {
        FinishJob(id, job, t0, "failed",
                  "trace of job " + std::to_string(spec.sweep_of) +
                      " is not a recognizable capture: " + report.ToString(),
                  false, 0, 0, 0, resumed);
        return;
    }

    uint32_t done = spec.configs_done;
    uint32_t failed = spec.configs_failed;
    bool cancelled = false;
    bool interrupted = false;
    for (uint32_t i = 0; i < total; ++i) {
        if (!spec.sweep_rows[i].empty())
            continue;  // journaled in a previous life: the row is final

        // Between-config stop checks: cancellation seals the sweep as
        // partial work lost, drain/power leaves the dangling kStarted
        // that recovery resumes from.
        if (job->cancel_requested.load(std::memory_order_relaxed)) {
            cancelled = true;
            break;
        }
        if (job->stop_flag != 0 ||
            draining_.load(std::memory_order_relaxed) ||
            (config_.external_stop != nullptr &&
             *config_.external_stop != 0)) {
            interrupted = true;
            break;
        }

        const auto c0 = std::chrono::steady_clock::now();
        replay::ReplayControl control;
        control.stop_flag = &job->stop_flag;
        control.deadline_ms = spec.sweep_timeout_ms;
        const replay::SweepConfig config = spec.configs[i].ToReplayConfig();

        ATUM_SPAN_NAMED(row_span, "serve", "serve.sweep.row");
        row_span.set_detail(config.label);
        row_span.set_arg("index", i);

        // Per-row isolation with bounded retry: a timeout or an internal
        // replay error earns up to `sweep_retries` more attempts; a
        // deterministically bad geometry (kInvalidArgument) fails the row
        // immediately, and a stop latch is never retried against.
        replay::SweepResult result = replay::ReplayOne(records, config,
                                                       control);
        for (uint64_t attempt = 0;
             attempt < spec.sweep_retries && !result.status.ok() &&
             (result.status.code() == util::StatusCode::kUnavailable ||
              result.status.code() == util::StatusCode::kInternal);
             ++attempt) {
            registry_.GetCounter("serve.sweep.configs_retried").Add();
            result = replay::ReplayOne(records, config, control);
        }
        if (result.status.code() == util::StatusCode::kInterrupted) {
            if (job->cancel_requested.load(std::memory_order_relaxed))
                cancelled = true;
            else
                interrupted = true;
            break;
        }

        const bool row_ok = result.status.ok();
        const std::string row =
            SweepRowJson(i, records.size(), spec.configs[i], result);
        {
            std::lock_guard<std::mutex> lock(mu_);
            // S4: the completion record is durable before the row is
            // ever reported. A failed append degrades, not lies: the row
            // still streams (it is correct), but a restart will re-run
            // this config — deterministically, to identical bytes.
            JournalRecord record;
            record.kind = JournalKind::kSweepConfig;
            record.id = id;
            record.config_index = i;
            record.row = row;
            if (util::Status s = journal_->Append(record); !s.ok()) {
                Warn("serve: sweep row append failed (job ", id,
                     " config ", i, "): ", s.ToString());
                registry_.GetCounter("serve.journal.append_errors").Add();
                registry_.GetCounter("serve.sweep.rows_unjournaled").Add();
            }
            job->info.sweep_rows[i] = row;
            if (row_ok)
                ++job->info.configs_done;
            else
                ++job->info.configs_failed;
            registry_
                .GetCounter(row_ok ? "serve.sweep.configs_done"
                                   : "serve.sweep.configs_failed")
                .Add();
            registry_.GetHistogram("serve.sweep.config_us")
                .Add(ElapsedUs(c0));
            // Stream the mergeable partial result: status readers see
            // every finished row without waiting for the sweep.
            WriteStatusFileLocked();
        }
        if (row_ok)
            ++done;
        else
            ++failed;
    }

    std::string outcome;
    std::string detail;
    if (cancelled) {
        outcome = "cancelled";
    } else if (!interrupted) {
        outcome = failed == 0 ? "done" : "partial";
        if (failed != 0)
            detail = std::to_string(failed) + " of " +
                     std::to_string(total) +
                     " configs failed and were isolated";
    }
    FinishJob(id, job, t0, outcome, detail, interrupted,
              records.size(), 0, 0, resumed);
}

void
ServeCore::RequestDrain()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.exchange(true, std::memory_order_relaxed))
        return;
    drain_token_.Cancel();
    if (pool_ != nullptr)
        pool_->AbandonPending();
    for (auto& [id, job] : jobs_) {
        if (job->info.state == JobState::kRunning)
            job->stop_flag = 1;
    }
    registry_.GetGauge("serve.draining").Set(1);
    WriteStatusFileLocked();
}

void
ServeCore::Shutdown()
{
    if (!started_)
        return;
    RequestDrain();
    std::unique_ptr<replay::ThreadPool> pool;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pool = std::move(pool_);
    }
    if (pool != nullptr)
        pool->Wait();
    std::lock_guard<std::mutex> lock(mu_);
    WriteStatusFileLocked();
}

std::vector<JobInfo>
ServeCore::Jobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobInfo> jobs;
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_)
        jobs.push_back(job->info);
    return jobs;
}

std::string
ServeCore::StatusJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return StatusJsonLocked();
}

std::string
ServeCore::StatusJsonLocked() const
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("v", kStatusVersion);
    w.KeyValue("draining", draining_.load(std::memory_order_relaxed));
    w.KeyValue("workers", config_.workers);
    w.KeyValue("queue_depth", admission_.pending_count());
    w.KeyValue("running", admission_.running_count());
    w.Key("jobs");
    w.BeginArray();
    for (const auto& [id, job] : jobs_)
        WriteJobJson(w, job->info);
    w.EndArray();
    w.EndObject();
    return w.TakeStr();
}

void
ServeCore::WriteStatusFileLocked()
{
    if (!started_)
        return;
    // Advisory (atum-top reads it); written on every state transition via
    // the ATCK tmp+rename pattern so a reader never sees a torn document.
    // Deliberately not fsynced — its truth is reconstructible from the
    // journal, and transition-driven writes keep chaos drills
    // deterministic (no timer-gated I/O).
    const std::string path = JoinPath(config_.dir, kStatusName);
    const std::string tmp = path + ".tmp";
    const std::string body = StatusJsonLocked();
    const auto fail = [&] {
        registry_.GetCounter("serve.status.write_errors").Add();
    };
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        vfs_.Create(tmp);
    if (!out.ok())
        return fail();
    if (!(*out)->Write(body.data(), body.size()).ok())
        return fail();
    if (!(*out)->Close().ok())
        return fail();
    if (!vfs_.Rename(tmp, path).ok())
        return fail();
}

void
ServeCore::PublishGaugesLocked()
{
    registry_.GetGauge("serve.queue.depth").Set(admission_.pending_count());
    registry_.GetGauge("serve.jobs.running").Set(admission_.running_count());
}

void
ServeCore::AppendJournalLocked(const JournalRecord& record)
{
    if (util::Status s = journal_->Append(record); !s.ok()) {
        // The capture (and its checkpoints) are the valuable artifact;
        // a journal write lost to an injected fault costs at worst a
        // re-run after restart, never a silent loss, so the daemon keeps
        // going. Submissions are the exception: their append is checked
        // at the call site, before the ack (J1).
        Warn("serve: journal append failed (", JournalKindName(record.kind),
             " job ", record.id, "): ", s.ToString());
        registry_.GetCounter("serve.journal.append_errors").Add();
    }
}

}  // namespace atum::serve
