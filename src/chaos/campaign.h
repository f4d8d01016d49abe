#ifndef ATUM_CHAOS_CAMPAIGN_H_
#define ATUM_CHAOS_CAMPAIGN_H_

/**
 * @file
 * Seeded crash campaigns and the no-silent-loss invariant checker.
 *
 * One campaign iteration is a complete disaster drill, entirely inside a
 * MemVfs (no host filesystem is touched):
 *
 *   1. roll a deterministic fault schedule for the seed (io/chaos.h),
 *      aimed by a fault-free probe run's operation counts;
 *   2. run a small supervised capture through a ChaosVfs executing that
 *      schedule — faults land mid-drain, mid-checkpoint, mid-rename, or
 *      the power dies outright;
 *   3. recover the way an operator would: reboot onto the crash-
 *      consistent state, resume from the newest loadable checkpoint, or
 *      salvage the bare trace with the tolerant scanner;
 *   4. check the no-silent-loss invariants (docs/CHAOS.md §Invariants):
 *
 *      I1 accounting — scanned data records + the tracer's loss tally
 *         equals every record the tracer accepted; a non-zero tally is
 *         documented in-stream by a kLoss marker carrying it. Loss may
 *         exist, but it is *loud*.
 *      I2 durable checkpoint — a checkpoint the session counted as
 *         written is loadable after the crash, and the trace it names
 *         reaches its high-water mark (SaveState syncs trace-first).
 *      I3 prefix consistency — absent injected corruption, the durable
 *         trace scans clean (no bad chunks) and salvage round-trips.
 *
 * A failing (seed, schedule) pair serializes to a small text file that
 * replays the identical failure forever — tests/chaos_corpus/ collects
 * them as regression tests. Minimize() shrinks a failing schedule to the
 * fewest ops that still violate. The serve and net drills below share
 * the same driver (the entry points at the end of this file).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "io/chaos.h"
#include "util/status.h"

namespace atum::chaos {

/** Shape of the capture each iteration runs (small but complete). */
struct CampaignSpec {
    /** Fault mix, e.g. {"powercut", "enospc"} (io/chaos.h names). */
    std::vector<std::string> campaigns;
    /** Workload (workloads::MakeWorkload name) and its scale. */
    std::string workload = "grep";
    uint32_t scale = 1;
    /** Guest instruction budget per capture. */
    uint64_t max_instructions = 200'000;
    /** Trace-buffer bytes (small: many drains = many fault targets). */
    uint32_t buffer_bytes = 8u << 10;
    /** ATF2 chunk capacity in records. */
    uint32_t chunk_records = 128;
    /** Checkpoint cadence in buffer fills. */
    uint64_t checkpoint_every_fills = 2;
    /** Checkpoint retention window. */
    uint32_t keep_checkpoints = 3;
};

/** One invariant breach, with enough detail to debug from the log. */
struct InvariantViolation {
    std::string invariant;  ///< "accounting" | "durable-checkpoint" | ...
    std::string detail;
};

/**
 * What every drill's seed result carries, whatever it crashed: the
 * (seed, schedule) pair that replays it, the faults that fired, and the
 * invariant verdict.
 */
struct DrillResult {
    uint64_t seed = 0;
    io::ChaosSchedule schedule;
    uint32_t faults_fired = 0;
    std::vector<InvariantViolation> violations;

    bool ok() const { return violations.empty(); }
    /** Records one breach of `invariant`. */
    void Fail(const char* invariant, std::string detail)
    {
        violations.push_back(InvariantViolation{invariant, std::move(detail)});
    }
};

/** What every campaign adds up, whatever its drill. */
template <typename Seed>
struct CampaignTotals {
    uint64_t seeds_run = 0;
    uint64_t faults_fired = 0;
    /** Failing seeds only (schedules are the repro artifacts). */
    std::vector<Seed> failures;

    bool ok() const { return failures.empty(); }
};

/** Outcome of one seed's crash drill. */
struct SeedResult : DrillResult {
    bool power_cut = false;
    bool resumed = false;    ///< recovery went through a checkpoint
    bool salvaged = false;   ///< recovery scanned the bare trace
    uint64_t data_records = 0;  ///< non-marker records recovered
    uint64_t lost_records = 0;  ///< loudly-declared loss
    /**
     * Wall time of the recovery action after a power cut — finding and
     * loading the newest checkpoint, reopening the trace at its high-water
     * mark and restoring machine+tracer (resume), or the tolerant salvage
     * scan (no checkpoint). 0 when no cut fired (bench_a10 percentiles).
     */
    uint64_t recovery_us = 0;

    /** One log line: seed, faults, recovery mode, verdict. */
    std::string Summary() const;
};

/** Aggregate of a whole campaign. */
struct CampaignResult : CampaignTotals<SeedResult> {
    uint64_t power_cuts = 0;
    uint64_t resumes = 0;
    uint64_t salvages = 0;
};

// ---------------------------------------------------------------------------
// Kill-restart drills against the serve daemon (docs/SERVE.md).
//
// Where the capture drills above crash ONE capture, a serve drill crashes
// a whole daemon: a ServeCore in drill mode (workers == 0, so the I/O
// sequence is deterministic) admits a seed-scripted mix of multi-tenant
// jobs, runs them under a fault schedule, and — when the power cut fires —
// is abandoned exactly as SIGKILL would leave it. A second ServeCore then
// boots on the crash-consistent snapshot, recovers from the journal, and
// drains every surviving job. The battery then checks the recovery
// invariants the daemon promises:
//
//   S1 no lost jobs      — every acked submission reaches a terminal
//                          state (J1: journaled-before-ack held);
//   S2 no double-run     — at most one terminal journal record per job,
//                          and nothing journaled for a job after it;
//   S3 journal integrity — the final journal scans clean end-to-end, and
//                          (absent injected rot) every completed job's
//                          trace is prefix-consistent and salvage
//                          round-trips;
//   S4 no lost rows      — every sweep config result journaled complete
//                          appears verbatim (byte-identical) in the final
//                          sweep, and (absent injected rot) no config is
//                          journaled twice;
//   S5 resume = clean    — a recovered sweep's merged result (journaled
//                          prefix + re-run remainder) is bit-identical to
//                          replaying the same configs cleanly over the
//                          final durable trace (checked per-row, skipping
//                          rows whose input-trace fingerprint shows the
//                          durable trace shrank under them with the cut).

/** Shape of one serve drill (a small but complete multi-job daemon). */
struct ServeCampaignSpec {
    /** Fault mix, e.g. {"powercut", "enospc"} (io/chaos.h names). */
    std::vector<std::string> campaigns;
    /** Workload every job runs (workloads::MakeWorkload name) + scale. */
    std::string workload = "grep";
    uint32_t scale = 1;
    /** Jobs the script submits, spread round-robin over tenants. */
    uint32_t jobs = 4;
    uint32_t tenants = 2;
    /** Per-job guest instruction budget (small: drills must be quick). */
    uint64_t max_instructions = 6000;
    /** Capture shape (small buffers = many drains = many fault targets). */
    uint32_t buffer_bytes = 4u << 10;
    uint32_t chunk_records = 64;
    uint64_t checkpoint_every_fills = 1;
    uint32_t keep_checkpoints = 2;
    /**
     * Replay sweeps the script submits after draining its captures
     * (0 = the classic capture-only drill). Each targets a seed-picked
     * capture and carries `sweep_configs` configs, one of which may be
     * deliberately invalid (per-row isolation under fire).
     */
    uint32_t sweeps = 0;
    uint32_t sweep_configs = 3;
};

/** Outcome of one seed's kill-restart drill. */
struct ServeSeedResult : DrillResult {
    bool power_cut = false;
    uint32_t jobs_acked = 0;     ///< submissions the daemon promised
    uint32_t jobs_done = 0;      ///< terminal "done" after recovery
    uint32_t jobs_resumed = 0;   ///< continued from a checkpoint
    uint32_t jobs_salvaged = 0;  ///< trace recovered by the scanner
    uint32_t sweeps_acked = 0;   ///< sweep submissions the daemon promised
    uint32_t sweep_rows = 0;     ///< config rows complete after recovery
    /** Recovery found a sweep with SOME (not all, not zero) configs
     *  journaled and resumed it from that high-water mark — the drill
     *  the S5 byte-identity check exists for. */
    bool sweep_partial_resume = false;

    /** One log line: seed, faults, job fates, verdict. */
    std::string Summary() const;
};

/** Aggregate of a whole serve campaign. */
struct ServeCampaignResult : CampaignTotals<ServeSeedResult> {
    uint64_t power_cuts = 0;
    uint64_t resumes = 0;
    uint64_t salvages = 0;
    uint64_t sweeps_acked = 0;
    uint64_t sweep_rows = 0;
    /** Seeds whose recovery resumed a partially-journaled sweep. */
    uint64_t sweep_partial_resumes = 0;
};

// ---------------------------------------------------------------------------
// Hostile-network drills against the serve protocol (docs/SERVE.md
// "Network failure model").
//
// Where the serve drills above kill the daemon's DISK, a net drill
// attacks its WIRE: a seed-scripted multi-tenant client drives framed
// requests through a ChaosNet (io/stream.h) into a drill-mode ServeCore,
// with the schedule injecting short and failed sends, mid-frame
// disconnects, bit flips, stalled reads, duplicated client retries, and
// SIGKILL-style daemon deaths that restart onto the crash-consistent
// disk. Every submit carries an idempotency token, and every ambiguous
// outcome (sent, but no answer) is retried with the same token — exactly
// what atum-submit does. The battery then checks:
//
//   N1 no double-run    — the final journal holds at most one submission
//                         per idempotency token, however many times the
//                         client (or the net-dup fault) delivered it,
//                         and across any number of kill-restarts;
//   N2 no crash/hang    — the daemon answers every parseable frame, and
//                         a poison frame earns a structured error, never
//                         a wedge (every pump loop is bounded) or a
//                         garbage answer;
//   N3 ack consistency  — every ack the client ever received for one
//                         token names the same job id, that id is
//                         journaled under the token, and the job reaches
//                         a terminal state.
//
// Bit-flip campaigns silently rewrite bytes in flight — including the
// token itself — so the client-perspective checks (N3, and N2's "answers
// parse") stand down under flips, exactly like the damage gates in the
// disk drills. N1's journal-side check never stands down: dedup happens
// on received bytes, whatever the wire did to them.

/** Shape of one net drill (a small multi-tenant client session). */
struct NetCampaignSpec {
    /** Fault mix, e.g. {"net-flaky", "net-cut"} (io/chaos.h names). */
    std::vector<std::string> campaigns;
    /** Workload every submit names (workloads::MakeWorkload) + scale. */
    std::string workload = "grep";
    uint32_t scale = 1;
    /** Tokened submits the script delivers, round-robin over tenants. */
    uint32_t submits = 4;
    uint32_t tenants = 2;
    /** Wire attempts per submit (first try + ambiguous retries). */
    uint32_t max_attempts = 3;
    /** Per-job guest instruction budget (small: drills must be quick). */
    uint64_t max_instructions = 4000;
    /** Capture shape for the jobs the submits create. */
    uint32_t buffer_bytes = 4u << 10;
    uint32_t chunk_records = 64;
    uint64_t checkpoint_every_fills = 1;
    uint32_t keep_checkpoints = 2;
};

/** Outcome of one seed's hostile-network drill. */
struct NetSeedResult : DrillResult {
    uint32_t kills = 0;      ///< daemon deaths (kill-serve ops fired)
    uint32_t retries = 0;    ///< ambiguous submits re-sent (same token)
    uint32_t acks = 0;       ///< submit answers carrying a job id
    uint32_t dup_acks = 0;   ///< answers flagged "dup" (dedup served them)
    /** Poison frames the daemon answered (serve.net.poison_frames,
     *  summed over its generations). */
    uint32_t poison_frames = 0;

    /** One log line: seed, faults, retry/ack traffic, verdict. */
    std::string Summary() const;
};

/** Aggregate of a whole net campaign. */
struct NetCampaignResult : CampaignTotals<NetSeedResult> {
    uint64_t kills = 0;
    uint64_t retries = 0;
    uint64_t acks = 0;
    uint64_t dup_acks = 0;
};

// ---------------------------------------------------------------------------
// The campaign driver: four entry points, each overloaded on the spec
// type, over one seed loop and one shrinker.

/**
 * Runs a drill fault-free and returns its operation counts — the address
 * space random schedules aim their fault indices into. The capture probe
 * is deterministic per spec, so one probe serves a whole seed range. The
 * serve and net scripts are seed-derived (submit/run interleave, which
 * job gets cancelled, where pings go), so each seed aims its schedule
 * with its own probe.
 */
util::StatusOr<io::OpCounts> ProbeOpCounts(const CampaignSpec& spec);
util::StatusOr<io::OpCounts> ProbeOpCounts(const ServeCampaignSpec& spec,
                                           uint64_t seed);
util::StatusOr<io::OpCounts> ProbeOpCounts(const NetCampaignSpec& spec,
                                           uint64_t seed);

/**
 * Runs one complete drill for an explicit schedule (the replay path for
 * corpus files and minimization). The serve and net scripts are
 * re-derived from schedule.seed, so a serialized schedule replays the
 * identical drill forever.
 */
util::StatusOr<SeedResult> ReplaySchedule(const CampaignSpec& spec,
                                          const io::ChaosSchedule& schedule);
util::StatusOr<ServeSeedResult> ReplaySchedule(
    const ServeCampaignSpec& spec, const io::ChaosSchedule& schedule);
util::StatusOr<NetSeedResult> ReplaySchedule(
    const NetCampaignSpec& spec, const io::ChaosSchedule& schedule);

/**
 * Runs seeds [first_seed, first_seed + seeds): rolls each schedule from
 * its probe and drills it. `on_seed` (may be null) observes every result
 * as it completes (progress reporting, artifact writing).
 */
util::StatusOr<CampaignResult> RunCampaign(
    const CampaignSpec& spec, uint64_t first_seed, uint64_t seeds,
    const std::function<void(const SeedResult&)>& on_seed = nullptr);
util::StatusOr<ServeCampaignResult> RunCampaign(
    const ServeCampaignSpec& spec, uint64_t first_seed, uint64_t seeds,
    const std::function<void(const ServeSeedResult&)>& on_seed = nullptr);
util::StatusOr<NetCampaignResult> RunCampaign(
    const NetCampaignSpec& spec, uint64_t first_seed, uint64_t seeds,
    const std::function<void(const NetSeedResult&)>& on_seed = nullptr);

/**
 * Greedy delta-debugging of a failing schedule: repeatedly drops ops
 * whose removal keeps at least one invariant violated, until no single
 * op can be removed. Returns the (still-failing) minimal schedule; if
 * `schedule` does not fail at all, returns it unchanged.
 */
util::StatusOr<io::ChaosSchedule> Minimize(const CampaignSpec& spec,
                                           const io::ChaosSchedule& schedule);
util::StatusOr<io::ChaosSchedule> Minimize(const ServeCampaignSpec& spec,
                                           const io::ChaosSchedule& schedule);
util::StatusOr<io::ChaosSchedule> Minimize(const NetCampaignSpec& spec,
                                           const io::ChaosSchedule& schedule);

// ---------------------------------------------------------------------------
// Deterministic protocol fuzzing (no wire, no daemon: just the codec).

/** What one FuzzProtocol sweep did and found. */
struct FuzzReport {
    uint64_t inputs = 0;    ///< mutated byte strings fed
    uint64_t frames = 0;    ///< complete frames the parser extracted
    uint64_t parsed = 0;    ///< frames that parsed into valid requests
    uint64_t rejected = 0;  ///< frames rejected with a structured status
    std::vector<InvariantViolation> violations;

    bool ok() const { return violations.empty(); }
    std::string Summary() const;
};

/**
 * Feeds `inputs` seeded mutations of well-formed request traffic —
 * flipped bits, truncations, tampered length prefixes, spliced frames,
 * raw garbage — through FrameParser and ParseRequest in random-sized
 * chunks, checking the codec's contract: extraction always terminates,
 * buffered bytes stay bounded by the frame cap, a parsed request
 * re-serializes and re-parses to the same op, and a rejection is a
 * structured status, never a crash. Deterministic per (seed, inputs):
 * a failure here is a failure forever, like every other repro in this
 * subsystem.
 */
FuzzReport FuzzProtocol(uint64_t seed, uint64_t inputs);

}  // namespace atum::chaos

#endif  // ATUM_CHAOS_CAMPAIGN_H_
