#ifndef ATUM_CORE_CHECKPOINT_H_
#define ATUM_CORE_CHECKPOINT_H_

/**
 * @file
 * ATCK — checkpoint/resume for capture sessions.
 *
 * ATUM's value came from *long* captures: the paper's pause/extract/
 * resume cycle traced a full multiprogrammed OS for as long as the
 * operators kept the 8200 running. A multi-hour capture that a host
 * crash or SIGTERM can erase is not long-haul; this file gives the
 * capture session the same durability ATF2 gives the trace bytes.
 *
 * A checkpoint is a versioned, CRC32C-framed snapshot of the complete
 * deterministic capture state:
 *
 *   +----------------------------------------------------------------+
 *   | header (32 B):  magic "ATCK\r\n\x1a\n" | version | sections    |
 *   |                 flags | reserved | CRC32C(header)              |
 *   +----------------------------------------------------------------+
 *   | section (24 B + payload): "SECT" | id | payload length         |
 *   |                 CRC32C(payload) | CRC32C(section header)       |
 *   |   ids: 1 meta · 2 machine · 3 tracer · 4 trace-sink state      |
 *   +----------------------------------------------------------------+
 *   | footer (24 B):  "KFOT" | section count | payload total | CRC   |
 *   +----------------------------------------------------------------+
 *
 * The machine section is written by cpu::Machine::Save and nests
 * mem::PhysicalMemory and mmu::Mmu/Tlb state — *microarchitectural*
 * state included (TB entries, prefetch buffer), because a resumed
 * capture must replay the identical record stream, and TB misses and
 * ifetches are records. The sink section carries the trace file's
 * high-water mark (sealed-chunk offset + counts) and the open chunk's
 * buffered records, so resume can truncate the file to a known-good
 * prefix and continue byte-identically.
 *
 * Checkpoint files are written atomically (temp + fsync + rename); a
 * crash mid-checkpoint leaves the previous one intact. Loading never
 * crashes on damage: every CRC failure, truncation or mismatch comes
 * back as a Status.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/atum_tracer.h"
#include "cpu/machine.h"
#include "io/vfs.h"
#include "trace/container.h"
#include "util/status.h"

namespace atum::core {

inline constexpr uint8_t kCheckpointMagic[8] = {'A', 'T',  'C', 'K',
                                                '\r', '\n', 0x1a, '\n'};
// Version 2: the machine section gained the DMA engine registers and the
// hardware event counters (cpu/event_counters.h).
inline constexpr uint16_t kCheckpointVersion = 2;
inline constexpr uint32_t kCheckpointHeaderBytes = 32;
inline constexpr uint32_t kCheckpointSectionHeaderBytes = 24;
inline constexpr uint32_t kCheckpointFooterBytes = 24;
inline constexpr uint32_t kCheckpointSectionMagic = 0x54434553;  // "SECT"
inline constexpr uint32_t kCheckpointFooterMagic = 0x544F464B;   // "KFOT"

/** Section ids (the wire format's table of contents). */
enum class CheckpointSection : uint32_t {
    kMeta = 1,     ///< configs + bookkeeping; must come first
    kMachine = 2,  ///< cpu::Machine::Save payload
    kTracer = 3,   ///< AtumTracer::Save payload
    kSink = 4,     ///< trace::Atf2ResumeState
};

/**
 * Self-description a checkpoint carries so `atum-capture --resume` can
 * rebuild the session without the original command line.
 */
struct CheckpointMeta {
    cpu::Machine::Config machine_config;
    AtumConfig tracer_config;
    /** Sequence number within a rotation series (monotonic across resumes). */
    uint64_t sequence = 0;
    /** Machine::icount() when the checkpoint was taken. */
    uint64_t instructions = 0;
    /** Step budget (core/session.h) remaining at checkpoint time. */
    uint64_t instructions_remaining = 0;
    /** Informational: the trace file this checkpoint belongs to. */
    std::string trace_path;
    /** True when a kSink section with a real high-water mark follows. */
    bool has_sink_state = false;
};

/**
 * Serializes one complete checkpoint into `out`. `sink_state` is the
 * trace writer's mid-stream state (FileSink::SaveState); pass nullptr
 * for sink-less sessions (in-memory captures, tests).
 */
util::Status WriteCheckpoint(io::WritableFile& out,
                             const CheckpointMeta& meta,
                             const cpu::Machine& machine,
                             const AtumTracer& tracer,
                             const trace::Atf2ResumeState* sink_state);

/**
 * WriteCheckpoint to `path` atomically: temp file + fsync + rename +
 * parent-directory fsync. Success means the checkpoint is durable under
 * its final name; any failure (including the directory sync) is reported,
 * because a checkpoint whose name a power cut can erase is no checkpoint.
 */
util::Status WriteCheckpointFile(const std::string& path,
                                 const CheckpointMeta& meta,
                                 const cpu::Machine& machine,
                                 const AtumTracer& tracer,
                                 const trace::Atf2ResumeState* sink_state,
                                 io::Vfs& vfs = io::RealVfs());

/**
 * Test-only: disables the parent-directory fsync in WriteCheckpointFile,
 * reintroducing the durability bug the chaos campaign exists to catch
 * (tests/chaos_test.cc proves the torn-rename campaign flags it).
 */
void SetCheckpointDirSyncForTest(bool enabled);

/**
 * A parsed, CRC-verified checkpoint. Two-phase restore: Load (or Read)
 * parses and verifies; the caller then builds a Machine/AtumTracer from
 * meta().machine_config / meta().tracer_config and restores into them.
 */
class Checkpoint
{
  public:
    /** Reads and verifies a whole checkpoint stream. */
    static util::StatusOr<Checkpoint> Read(io::ReadableFile& in);
    /** Read() on a file; kNotFound/kIoError when unreadable. */
    static util::StatusOr<Checkpoint> Load(const std::string& path,
                                           io::Vfs& vfs = io::RealVfs());

    const CheckpointMeta& meta() const { return meta_; }
    const trace::Atf2ResumeState& sink_state() const { return sink_state_; }

    /** Restores the machine section; the machine must match the meta config. */
    util::Status RestoreMachine(cpu::Machine& machine) const;
    /** Restores the tracer section; call before Attach(). */
    util::Status RestoreTracer(AtumTracer& tracer) const;

  private:
    CheckpointMeta meta_;
    trace::Atf2ResumeState sink_state_;
    std::vector<uint8_t> machine_bytes_;
    std::vector<uint8_t> tracer_bytes_;
};

/**
 * Rotating checkpoint series: `base.NNNNNN.atck`, keeping the most
 * recent `keep` files. The sequence number persists in the checkpoint
 * meta, so rotation continues correctly across resume.
 */
class CheckpointRotator
{
  public:
    CheckpointRotator(std::string base, uint32_t keep, uint64_t next_seq = 1,
                      io::Vfs& vfs = io::RealVfs());

    /**
     * Writes the next checkpoint in the series (atomically) and prunes
     * the one that fell out of the retention window. `meta.sequence` is
     * filled in here.
     */
    util::Status Write(CheckpointMeta meta, const cpu::Machine& machine,
                       const AtumTracer& tracer,
                       const trace::Atf2ResumeState* sink_state);

    /** Path of the newest successfully written checkpoint ("" if none). */
    const std::string& last_path() const { return last_path_; }
    uint64_t next_sequence() const { return seq_; }
    uint32_t written() const { return written_; }

    /** The `base.NNNNNN.atck` path for one sequence number. */
    std::string PathFor(uint64_t seq) const;

  private:
    std::string base_;
    uint32_t keep_;
    uint64_t seq_;
    io::Vfs* vfs_;
    uint32_t written_ = 0;
    std::string last_path_;
};

}  // namespace atum::core

#endif  // ATUM_CORE_CHECKPOINT_H_
