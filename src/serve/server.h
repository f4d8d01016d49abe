#ifndef ATUM_SERVE_SERVER_H_
#define ATUM_SERVE_SERVER_H_

/**
 * @file
 * ServeCore — the daemon's brain, factored away from its socket.
 *
 * Everything atum-serve does beyond accept(2) lives here: admission,
 * the job state machine, the journal, execution on the worker pool, and
 * crash recovery. The protocol entry point is HandleRequest(json) ->
 * json, so tests (and the chaos drill campaign) drive the daemon
 * without a socket, a process boundary, or wall-clock nondeterminism.
 *
 * Two execution modes:
 *
 *  - daemon mode (workers > 0): jobs run on a replay::ThreadPool;
 *    HandleRequest never blocks on a capture.
 *  - drill mode (workers == 0): nothing runs until RunNextQueuedJob()
 *    is called, which executes one fair-share-picked job synchronously
 *    on the caller's thread. Chaos drills use this to keep the I/O
 *    operation sequence deterministic for a given request script.
 *
 * Job lifecycle (journaled at every transition, docs/SERVE.md):
 *
 *     submit -> queued -> running -> done | failed | cancelled
 *                  |          |
 *                  |          +-> interrupted (drain/power) -> resumed
 *                  +-> cancelled                               on restart
 *
 * Recovery invariants J1-J3 (proved by the kill-restart drill campaign):
 *   J1 no lost jobs      — every acked submission reaches a terminal
 *                          state across any number of kill/restart cycles;
 *   J2 no double-run     — a job journaled finished never runs again;
 *   J3 journal integrity — a torn/corrupt journal tail never poisons
 *                          recovery (the valid prefix wins, quietly).
 *
 * Exactly-once submits (invariant N1, docs/SERVE.md "Network failure
 * model"): a submit carrying a client token is deduplicated against
 * every token this daemon has ever journaled — a retry after a lost
 * response (or a daemon kill-restart) is answered with the original
 * job id instead of admitting a second job.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "obs/metrics.h"
#include "replay/thread_pool.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace atum::serve {

/** Where a job is in its lifecycle. */
enum class JobState : uint8_t {
    kQueued,
    kRunning,
    kDone,
    kFailed,
    kCancelled,
    kInterrupted,  ///< stopped mid-capture (drain/power); resumable
};

/** Stable lowercase name ("interrupted") for wire and status file. */
const char* JobStateName(JobState state);

/** One job as reported to clients and the status file. */
struct JobInfo {
    uint64_t id = 0;
    /** What the job runs: "capture" (the default) or "sweep". */
    std::string kind = "capture";
    std::string tenant;
    std::string workload;
    uint32_t scale = 1;
    JobQuota quota;  ///< effective (clamped) quota
    JobState state = JobState::kQueued;
    /** Terminal outcome token ("done", "partial", "quota-bytes", ...);
     *  "" until terminal. */
    std::string outcome;
    std::string detail;
    uint64_t records = 0;
    uint64_t trace_bytes = 0;
    uint64_t instructions = 0;
    bool resumed = false;  ///< continued from a checkpoint after restart

    // -- sweep jobs only ---------------------------------------------------
    uint64_t sweep_of = 0;  ///< the finished job whose trace is replayed
    uint64_t sweep_timeout_ms = 0;
    uint64_t sweep_retries = 1;
    std::vector<replay::ConfigSpec> configs;
    uint32_t configs_done = 0;    ///< rows finished ok
    uint32_t configs_failed = 0;  ///< rows isolated as failed
    /** Canonical result row per config (SweepRowJson), "" while pending.
     *  Mergeable partial results: rows fill in as configs finish, and a
     *  restarted daemon re-fills journaled rows byte-identically. */
    std::vector<std::string> sweep_rows;
};

/** Daemon-wide knobs. */
struct ServeConfig {
    /** Flat directory holding journal, status file, traces, checkpoints. */
    std::string dir = ".";
    /** Worker threads; 0 = drill mode (synchronous RunNextQueuedJob). */
    unsigned workers = 2;
    AdmissionConfig admission;

    // -- capture shape (every job runs on a 2 MiB machine) ------------------
    uint32_t buffer_bytes = 8u << 10;
    uint32_t chunk_records = 128;
    uint64_t checkpoint_every_fills = 2;
    uint32_t keep_checkpoints = 3;
    /** Per-job deadman watchdog in micro-cycles; 0 = off. */
    uint64_t watchdog_ucycles = 0;

    /**
     * External stop signal (SIGTERM latch in the daemon, ChaosVfs
     * cut_flag in drills). Propagated into every running job at its next
     * slice boundary. May be null.
     */
    volatile std::sig_atomic_t* external_stop = nullptr;
};

class ServeCore
{
  public:
    /** `registry` holds the serve.* instruments; null = Global(). */
    ServeCore(ServeConfig config, io::Vfs& vfs,
              obs::Registry* registry = nullptr);
    ~ServeCore();

    ServeCore(const ServeCore&) = delete;
    ServeCore& operator=(const ServeCore&) = delete;

    /**
     * Opens (recovering) the journal, re-admits every non-terminal job,
     * salvages what cannot resume, and — in daemon mode — spins up the
     * pool and starts scheduling. Must be called exactly once.
     */
    util::Status Start();

    /**
     * The protocol: one request payload in, one response payload out.
     * Never throws, never kills the daemon — malformed input earns an
     * error response.
     */
    std::string HandleRequest(const std::string& payload);

    /**
     * Drill mode only: runs the next fair-share-picked job to its stop
     * on the calling thread. False when the queue is empty (or in
     * daemon mode, where the pool owns execution).
     */
    bool RunNextQueuedJob();

    /**
     * Graceful drain (SIGTERM): stop admitting, stop running jobs at
     * their next slice (each seals a final checkpoint), abandon unstarted
     * pool work. Queued jobs stay journaled for the next start.
     */
    void RequestDrain();

    /** RequestDrain + wait for in-flight jobs to seal. */
    void Shutdown();

    bool draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Point-in-time copy of every job, ascending id. */
    std::vector<JobInfo> Jobs() const;

    /** Where the serve.* instruments live (the constructor's
     *  `registry`, or Global()). */
    obs::Registry& registry() { return registry_; }

    std::string TracePath(uint64_t id) const;
    std::string CheckpointBase(uint64_t id) const;
    const std::string& dir() const { return config_.dir; }

  private:
    struct Job {
        JobInfo info;
        /** The submit's idempotency key ("" = none), kept so recovery
         *  rebuilds the dedup map from the journal alone. */
        std::string client_token;
        /** Per-job graceful-stop latch (SupervisorOptions.stop_flag). */
        volatile std::sig_atomic_t stop_flag = 0;
        std::atomic<bool> cancel_requested{false};
        std::atomic<bool> quota_stopped{false};
    };

    std::string HandleSubmit(const Request& request);
    std::string HandleSweep(const Request& request);
    std::string HandleStatus(const Request& request);
    std::string HandleCancel(const Request& request);

    /** Recovery folding of journal records into the job table. */
    util::Status RecoverLocked();

    /** Re-queues a recovered job; journals a shed when bounds refuse it. */
    void ReadmitRecoveredLocked(uint64_t id, Job& job);

    /** Resume / salvage / re-run decision for a crash-interrupted job. */
    void ResolveInterruptedLocked(uint64_t id, Job& job);

    std::string StatusJsonLocked() const;

    /** Fills free slots from the pending queue (daemon mode). */
    void ScheduleMoreLocked();

    /** The whole life of one running job (worker thread / drill call). */
    void RunJob(uint64_t id);

    /**
     * The sweep body: loads the target trace once, replays every config
     * not already journaled complete (the resume high-water mark), with
     * per-row isolation, bounded retry and a per-config timeout, and
     * journals each completion fsync-first before streaming it.
     */
    void RunSweepJob(uint64_t id, Job* job, const JobInfo& spec,
                     std::chrono::steady_clock::time_point t0);

    /** Seals a job: journals the terminal record (unless interrupted),
     *  updates the table, frees the slot, schedules the next job. */
    void FinishJob(uint64_t id, Job* job,
                   std::chrono::steady_clock::time_point t0,
                   const std::string& outcome, const std::string& detail,
                   bool interrupted, uint64_t records,
                   uint64_t instructions, uint64_t trace_bytes,
                   bool resumed);

    void WriteStatusFileLocked();
    void PublishGaugesLocked();
    void AppendJournalLocked(const JournalRecord& record);

    ServeConfig config_;
    io::Vfs& vfs_;
    obs::Registry& registry_;

    mutable std::mutex mu_;
    std::unique_ptr<JobJournal> journal_;
    AdmissionController admission_;
    std::map<uint64_t, std::unique_ptr<Job>> jobs_;
    /** client_token -> original job id (N1: one token, one job). */
    std::map<std::string, uint64_t> token_to_id_;
    uint64_t next_id_ = 1;
    bool started_ = false;
    unsigned slots_free_ = 0;

    std::atomic<bool> draining_{false};
    std::unique_ptr<replay::ThreadPool> pool_;
    replay::CancellationToken drain_token_;
};

/**
 * Test-only: disables submit-token deduplication, reintroducing the
 * double-run-under-retry bug the net chaos drills exist to catch. The
 * teeth test (tests/serve_test.cc) flips this off, proves the campaign
 * reports an N1 violation, and flips it back on.
 */
void SetTokenDedupForTest(bool enabled);

}  // namespace atum::serve

#endif  // ATUM_SERVE_SERVER_H_
