#ifndef ATUM_SERVE_JOURNAL_H_
#define ATUM_SERVE_JOURNAL_H_

/**
 * @file
 * The job journal: the daemon's crash-safe memory of every job it ever
 * accepted.
 *
 * An append-only file of CRC32C-framed records — [u32 LE length]
 * [u32 LE crc32c(payload)][payload JSON] — with one rule that buys the
 * recovery invariants in docs/SERVE.md:
 *
 *   J1 (no lost jobs): a record is fsynced before the daemon acts on it.
 *      Submission is journaled before the client's ack, start before the
 *      worker runs, finish before the terminal state is reported — so a
 *      SIGKILL at any instant leaves the journal describing a state the
 *      daemon actually passed through, never one it merely intended.
 *
 * Opening the journal IS recovery: Open() scans the existing file,
 * keeps every intact record, drops a torn or corrupt tail (the write the
 * crash interrupted), and re-opens for append exactly past the valid
 * prefix. A corrupt record mid-file ends the valid prefix there —
 * trusting frames past a bad CRC would resurrect jobs from noise.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace atum::serve {

/** What happened to a job — the journal's event vocabulary. */
enum class JournalKind : uint8_t {
    kSubmitted,    ///< admitted into the queue (spec payload)
    kStarted,      ///< a worker picked it up
    kFinished,     ///< reached a terminal state (outcome payload)
    kCancelled,    ///< client cancelled before/while running
    kSweepConfig,  ///< one sweep config completed (canonical row payload)
};

/** Stable wire token ("submitted") for one kind. */
const char* JournalKindName(JournalKind kind);

/** One journal event. Spec fields are set for kSubmitted; outcome for
 *  kFinished/kCancelled; config/row for kSweepConfig. */
struct JournalRecord {
    JournalKind kind = JournalKind::kSubmitted;
    uint64_t id = 0;

    // -- kSubmitted --------------------------------------------------------
    /** What the job runs: "capture" (the default) or "sweep". */
    std::string job = "capture";
    /** The submit's idempotency key, empty when the client sent none.
     *  Journaled with the submission so recovery rebuilds the dedup map
     *  and a retry after a kill-restart still maps to the same id. */
    std::string client_token;
    std::string tenant;
    std::string workload;
    uint32_t scale = 1;
    JobQuota quota;
    // Sweep submissions carry their whole replay spec, so recovery can
    // resume a half-done sweep from the journal alone.
    uint64_t sweep_of = 0;
    std::vector<replay::ConfigSpec> configs;
    uint64_t sweep_timeout_ms = 0;
    uint64_t sweep_retries = 1;

    // -- kSweepConfig ------------------------------------------------------
    // The per-config completion record: fsynced before the row is ever
    // reported (S4), and the high-water mark a restarted daemon resumes
    // the sweep from (S5). `row` holds the canonical result-row JSON
    // (SweepRowJson in serve/protocol.h) byte-for-byte.
    uint32_t config_index = 0;
    std::string row;

    // -- kFinished ---------------------------------------------------------
    /** "done" | "partial" | "failed" | "quota-bytes" | "deadline" |
     *  "wedged" | "cancelled" | "salvaged" */
    std::string outcome;
    std::string detail;  ///< human-readable context (status message)
};

/** The append side plus the recovery scan. */
class JobJournal
{
  public:
    /**
     * Opens (creating if absent) the journal at `path`, recovering every
     * intact record into recovered() and positioning appends after the
     * valid prefix. A torn/corrupt tail is truncated away and reported
     * via tail_dropped() — dropped bytes were never acked, so dropping
     * them loses nothing a client was promised.
     */
    static util::StatusOr<std::unique_ptr<JobJournal>> Open(
        const std::string& path, io::Vfs& vfs);

    /**
     * Appends one record and fsyncs it (J1: durable before acted-on).
     * A failed append truncates its own torn frame back off the tail, so
     * a transient write fault can never hide later records from the
     * recovery scan; when even the truncation fails, the journal refuses
     * further appends rather than append after garbage.
     */
    util::Status Append(const JournalRecord& record);

    /** Records recovered by Open(), in append order. */
    const std::vector<JournalRecord>& recovered() const
    {
        return recovered_;
    }

    /** Whether Open() dropped a torn or corrupt tail. */
    bool tail_dropped() const { return tail_dropped_; }

    const std::string& path() const { return path_; }

  private:
    JobJournal(std::string path, io::Vfs& vfs);

    std::string path_;
    io::Vfs& vfs_;
    std::unique_ptr<io::WritableFile> file_;
    std::vector<JournalRecord> recovered_;
    /** Byte length of the known-durable prefix — where a failed append
     *  truncates back to so its torn frame cannot hide later records. */
    uint64_t durable_bytes_ = 0;
    bool tail_dropped_ = false;
};

/** Serializes one record to its JSON payload (frame body). */
std::string SerializeJournalRecord(const JournalRecord& record);

/** Parses one payload; kDataLoss / kInvalidArgument on damage. */
util::StatusOr<JournalRecord> ParseJournalRecord(const std::string& payload);

/**
 * Scans raw journal bytes: every intact frame in order, stopping at the
 * first torn or corrupt frame. `valid_bytes` (may be null) receives the
 * clean prefix length; `dropped` (may be null) whether anything was cut.
 * Never fails — a journal of pure noise is simply zero records.
 */
std::vector<JournalRecord> ScanJournalBytes(const std::string& bytes,
                                            uint64_t* valid_bytes,
                                            bool* dropped);

}  // namespace atum::serve

#endif  // ATUM_SERVE_JOURNAL_H_
