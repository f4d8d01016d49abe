#ifndef ATUM_IO_CHAOS_H_
#define ATUM_IO_CHAOS_H_

/**
 * @file
 * Deterministic fault injection at the Vfs seam.
 *
 * A ChaosSchedule is a small, serializable program of faults — "the 57th
 * write returns ENOSPC", "power-cut immediately after the 2nd rename" —
 * and ChaosVfs is a Vfs decorator that executes it over a MemVfs. Because
 * the capture pipeline is deterministic and the schedule is data, every
 * failure found by a seeded campaign is replayable from a small text file
 * (the repro artifact tools/atum-chaos emits), and a regression corpus of
 * such files is replayed by tests/chaos_test.cc forever after.
 *
 * Schedule file format (docs/CHAOS.md):
 *
 *   # any comment
 *   seed 42
 *   campaign powercut,enospc
 *   op fail-write 57 nospace      # Nth op of the class | error class
 *   op short-write 30 7           # keep only 7 bytes of write #30
 *   op flip-write 9 100           # flip byte 100 of write #9 (silent)
 *   op power-cut-write 133        # cut before write #133 lands
 *   op fail-sync 2 io
 *   op power-cut-sync 1           # cut before fsync #1 commits
 *   op fail-read 3 io
 *   op flip-read 5 17             # flip byte 17 of read #5 (readback rot)
 *   op fail-rename 1 io
 *   op power-cut-rename 1         # cut right AFTER rename #1 (torn publish)
 *   op fail-unlink 1 io
 *   op fail-dirsync 1 io
 *   op cut-send 3                 # connection reset at send #3
 *   op short-recv 2 5             # recv #2 returns at most 5 bytes
 *   op stall-recv 4               # recv #4 stalls past the deadline
 *   op dup-request 2              # client duplicates request #2
 *   op kill-serve 3               # daemon SIGKILLed before request #3
 *
 * Indices are 1-based per operation class. A power cut latches: the
 * durable state is snapshotted at the cut and every later operation fails
 * kUnavailable — the process is dead, it just hasn't noticed. The
 * companion stop flag (cut_flag) plugs into SupervisorOptions.stop_flag
 * so the capture loop winds down at its next slice boundary.
 */

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/mem_vfs.h"
#include "io/vfs.h"
#include "util/status.h"

namespace atum::io {

enum class ChaosOpKind : uint8_t {
    kFailWrite,
    kShortWrite,
    kFlipWrite,
    kPowerCutWrite,
    kFailSync,
    kPowerCutSync,
    kFailRead,
    kFlipRead,
    kFailRename,
    kPowerCutRename,
    kFailUnlink,
    kFailDirSync,
    // Network stream faults (io/stream.h ChaosNet), indexed on the
    // connection's send/recv operation counters:
    kFailSend,    ///< send #at returns the error class
    kShortSend,   ///< send #at accepts only `arg` bytes (legal partial)
    kFlipSend,    ///< byte `arg` of send #at flipped in flight (silent)
    kCutSend,     ///< connection drops at send #at (reset, latches)
    kFailRecv,    ///< recv #at returns the error class
    kShortRecv,   ///< recv #at returns at most `arg` bytes
    kFlipRecv,    ///< byte `arg` of recv #at flipped in flight (silent)
    kCutRecv,     ///< connection drops at recv #at (reset, latches)
    kStallRecv,   ///< recv #at stalls past the read deadline
    // Drill-level ops, indexed on the scripted client request counter
    // (consumed by the net drill harness, not the streams):
    kDupRequest,  ///< client resends request #at (same idempotency token)
    kKillServe,   ///< daemon dies (SIGKILL-style) before request #at
};

struct ChaosOp {
    ChaosOpKind kind = ChaosOpKind::kFailWrite;
    /** 1-based index on the kind's operation-class counter. */
    uint64_t at = 1;
    /** short-write: bytes kept; flip-*: byte index to flip. */
    uint64_t arg = 0;
    /** Injected error class for the fail-* kinds. */
    util::StatusCode error = util::StatusCode::kIoError;
};

/** How many operations of each class a run performed (probe output). */
struct OpCounts {
    uint64_t writes = 0;
    uint64_t syncs = 0;
    uint64_t reads = 0;
    uint64_t renames = 0;
    uint64_t unlinks = 0;
    uint64_t dirsyncs = 0;
    // Stream classes (ChaosNet): one send per Write call, one recv per
    // Read call, one request per scripted client message.
    uint64_t sends = 0;
    uint64_t recvs = 0;
    uint64_t requests = 0;
};

/** A deterministic fault program plus its provenance. */
struct ChaosSchedule {
    uint64_t seed = 0;
    std::vector<std::string> campaigns;
    std::vector<ChaosOp> ops;

    /** Canonical schedule-file text (round-trips through Parse). */
    std::string Serialize() const;

    /** Parses schedule-file text; unknown directives are errors. */
    static util::StatusOr<ChaosSchedule> Parse(const std::string& text);

    /**
     * Rolls a random schedule for `seed` from the named campaigns
     * ("powercut", "enospc", "torn-rename", "eintr", "bitflip" on the
     * Vfs seam; "net-flaky", "net-cut", "net-flip", "net-stall",
     * "net-dup", "net-kill" on the stream seam), aiming the fault
     * indices inside the operation counts a fault-free probe run
     * measured. Equal inputs produce equal schedules.
     */
    static util::StatusOr<ChaosSchedule> Random(
        uint64_t seed, const std::vector<std::string>& campaigns,
        const OpCounts& probe);
};

/**
 * The fault-injecting Vfs decorator. Wraps a MemVfs (power cuts need the
 * durable/volatile split) and executes one ChaosSchedule; with an empty
 * schedule it is a pure pass-through that counts operations (the probe).
 */
class ChaosVfs : public Vfs
{
  public:
    ChaosVfs(MemVfs& base, ChaosSchedule schedule);

    util::StatusOr<std::unique_ptr<WritableFile>> Create(
        const std::string& path) override;
    util::StatusOr<std::unique_ptr<WritableFile>> OpenForAppendAt(
        const std::string& path, uint64_t offset) override;
    util::StatusOr<std::unique_ptr<ReadableFile>> OpenRead(
        const std::string& path) override;
    util::Status Rename(const std::string& from,
                        const std::string& to) override;
    util::Status Unlink(const std::string& path) override;
    util::Status DirSync(const std::string& path) override;
    /** Not fault-scheduled (recovery's eyes must be reliable), but dead
     *  after a power cut like everything else. */
    util::StatusOr<std::vector<std::string>> ListDir(
        const std::string& dir) override;
    const char* name() const override { return "chaos"; }

    /** Operation tallies so far (the probe's product). */
    const OpCounts& counts() const { return counts_; }
    /** Schedule ops that actually triggered. */
    uint32_t faults_fired() const { return faults_fired_; }

    bool power_cut_fired() const { return power_cut_; }
    /** Durable state at the instant of the cut (valid after it fired). */
    const MemVfs::Snapshot& snapshot() const { return snapshot_; }
    /**
     * Latched to 1 when the power cut fires; hand it to
     * SupervisorOptions.stop_flag so the doomed capture loop stops at its
     * next slice instead of grinding against a dead filesystem.
     */
    volatile std::sig_atomic_t* cut_flag() { return &cut_flag_; }

  private:
    class ChaosWritableFile;
    class ChaosReadableFile;

    /** First unfired op of `kind` scheduled at index `at`, else null. */
    const ChaosOp* Take(ChaosOpKind kind, uint64_t at);
    util::Status InjectedError(const ChaosOp& op, const char* what);
    void FireCut();
    util::Status DeadStatus(const char* what) const;

    MemVfs& base_;
    ChaosSchedule schedule_;
    std::vector<bool> fired_;
    OpCounts counts_;
    uint32_t faults_fired_ = 0;
    bool power_cut_ = false;
    MemVfs::Snapshot snapshot_;
    volatile std::sig_atomic_t cut_flag_ = 0;
};

}  // namespace atum::io

#endif  // ATUM_IO_CHAOS_H_
