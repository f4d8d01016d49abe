#ifndef ATUM_TRACE_CONTAINER_H_
#define ATUM_TRACE_CONTAINER_H_

/**
 * @file
 * ATF2 — the crash-safe, self-describing trace container.
 *
 * The raw v1 format (8-byte magic + packed records) trusts every byte on
 * disk: one flipped bit poisons every downstream experiment undetected,
 * and a capture that dies mid-drain leaves a file indistinguishable from
 * a complete one. ATF2 fixes both with checksummed, fixed-capacity chunks
 * and a sealing footer:
 *
 *   +--------------------------------------------------------------+
 *   | header (32 B):  magic "ATF2\r\n\x1a\n" | version | rec size  |
 *   |                 chunk capacity | flags | CRC32C(header)      |
 *   +--------------------------------------------------------------+
 *   | chunk 0 (16 B + n*8 B):  "CHNK" | record count n             |
 *   |                 CRC32C(payload) | CRC32C(chunk header)       |
 *   |                 n packed records                             |
 *   +--------------------------------------------------------------+
 *   | ... more chunks ...                                          |
 *   +--------------------------------------------------------------+
 *   | footer (24 B):  "FOOT" | chunk count | total records         |
 *   |                 CRC32C(footer)   -- written by Seal() only   |
 *   +--------------------------------------------------------------+
 *
 * Failure behavior this buys:
 *  - truncation (crash, ENOSPC) is detected because the footer is absent
 *    or a trailing chunk is partial; every complete chunk before the tear
 *    is still readable and CRC-verified;
 *  - a flipped byte is confined to its chunk: the scanner reports that
 *    chunk corrupt and resynchronizes at the next chunk marker, salvaging
 *    the islands after it;
 *  - all checks return Status — no Fatal/Panic is reachable from bad
 *    file content.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "trace/record.h"
#include "util/status.h"

namespace atum::trace {

// ---------------------------------------------------------------------------
// File handles. The container reads and writes io::WritableFile and
// io::ReadableFile (io/vfs.h); tests keep bytes in an io::MemVfs, and
// faults are injected at the same seam (io/chaos.h ChaosVfs). These two
// decorators add the retry of interrupted (EINTR-class) operations, so
// callers only ever see an interruption if it persists.

/**
 * A WritableFile over the Vfs seam that retries kInterrupted writes and
 * syncs. Close() syncs before it closes, which makes it stronger than the
 * WritableFile contract (there Close does not imply Sync): a capture is
 * hours of machine time, and "the kernel probably wrote it eventually"
 * is not crash-safe.
 */
class FileByteSink : public io::WritableFile
{
  public:
    static util::StatusOr<std::unique_ptr<FileByteSink>> Open(
        const std::string& path, io::Vfs& vfs = io::RealVfs());
    /**
     * Re-opens an existing file for appending at `offset`: bytes past the
     * offset (a torn chunk, a footer from a sealed-then-resumed capture)
     * are truncated away first. The resume path of atum-capture uses this
     * to rewind a trace to its checkpoint's high-water mark. Fails with
     * data-loss when the file is shorter than `offset`.
     */
    static util::StatusOr<std::unique_ptr<FileByteSink>> OpenAt(
        const std::string& path, uint64_t offset,
        io::Vfs& vfs = io::RealVfs());
    ~FileByteSink() override;

    FileByteSink(const FileByteSink&) = delete;
    FileByteSink& operator=(const FileByteSink&) = delete;

    util::Status Write(const void* data, size_t len) override;
    util::Status Sync() override;
    /** Sync, then close; idempotent. */
    util::Status Close() override;

  private:
    FileByteSink(std::unique_ptr<io::WritableFile> file, std::string path);

    std::unique_ptr<io::WritableFile> file_;
    std::string path_;
};

/** A ReadableFile over the Vfs seam that retries kInterrupted reads. */
class FileByteSource : public io::ReadableFile
{
  public:
    static util::StatusOr<std::unique_ptr<FileByteSource>> Open(
        const std::string& path, io::Vfs& vfs = io::RealVfs());

    FileByteSource(const FileByteSource&) = delete;
    FileByteSource& operator=(const FileByteSource&) = delete;

    util::StatusOr<size_t> Read(void* data, size_t len) override;
    util::StatusOr<uint64_t> Size() override { return file_->Size(); }

  private:
    FileByteSource(std::unique_ptr<io::ReadableFile> file, std::string path);

    std::unique_ptr<io::ReadableFile> file_;
    std::string path_;
};

// ---------------------------------------------------------------------------
// ATF2 constants.

inline constexpr uint8_t kAtf2Magic[8] = {'A', 'T', 'F',  '2',
                                          '\r', '\n', 0x1a, '\n'};
inline constexpr uint16_t kAtf2Version = 2;
inline constexpr uint32_t kAtf2HeaderBytes = 32;
inline constexpr uint32_t kAtf2ChunkHeaderBytes = 16;
inline constexpr uint32_t kAtf2FooterBytes = 24;
inline constexpr uint32_t kAtf2ChunkMagic = 0x4B4E4843;   // "CHNK"
inline constexpr uint32_t kAtf2FooterMagic = 0x544F4F46;  // "FOOT"
/** Upper bound a scanner will believe for one chunk's record count. */
inline constexpr uint32_t kAtf2MaxChunkRecords = 1u << 20;

struct Atf2WriterOptions {
    /** Records per chunk; the loss-confinement granularity. */
    uint32_t chunk_records = 512;
};

/**
 * Everything needed to continue an interrupted ATF2 stream elsewhere:
 * the durable prefix (header + full chunks, never rewritten once on
 * disk) plus the open chunk's buffered records. A checkpoint carries
 * this; resume truncates the file back to `file_bytes` and reconstructs
 * the writer, after which continued appends are byte-identical to an
 * uninterrupted run.
 */
struct Atf2ResumeState {
    uint64_t file_bytes = 0;   ///< durable prefix length (0 = header unwritten)
    uint32_t chunks = 0;       ///< full chunks inside that prefix
    uint64_t records = 0;      ///< records accepted, incl. the open chunk
    uint32_t chunk_records = 512;   ///< writer geometry
    std::vector<uint8_t> pending;   ///< open chunk's packed records
};

// ---------------------------------------------------------------------------
// Writer.

/**
 * Streams records into an ATF2 container. Records are packed straight
 * into the open chunk's buffer, which is written out (header + payload,
 * one Write call) when full and then reused; Seal() flushes the final
 * partial chunk and appends the footer.
 *
 * A failed Append consumed nothing: the same record can be retried once
 * the sink recovers, and no record is ever silently dropped or doubled.
 * A writer abandoned before Seal() leaves a valid-but-unsealed file from
 * which every completed chunk is recoverable — the crash guarantee.
 */
class Atf2Writer
{
  public:
    explicit Atf2Writer(io::WritableFile& out,
                        const Atf2WriterOptions& options = {});

    /** Tag selecting the resume constructor (keeps the options overload
     *  unambiguous under designated initializers). */
    struct ResumeFrom {
        const Atf2ResumeState& state;
    };

    /**
     * Reconstructs a writer mid-stream from checkpointed state; `out`
     * must already be positioned at `state.file_bytes` (FileByteSink::
     * OpenAt does the truncation).
     */
    Atf2Writer(io::WritableFile& out, ResumeFrom resume);

    Atf2Writer(const Atf2Writer&) = delete;
    Atf2Writer& operator=(const Atf2Writer&) = delete;

    /** Buffers one record, flushing a full chunk first if needed. */
    util::Status Append(const Record& record);

    /** Flushes the open chunk and writes the footer; idempotent. */
    util::Status Seal();

    bool sealed() const { return sealed_; }
    /** Records accepted so far (buffered or written). */
    uint64_t records() const { return records_; }
    uint32_t chunks_written() const { return chunks_; }
    /** Bytes of durable prefix handed to the sink (header + full chunks). */
    uint64_t bytes_written() const { return bytes_written_; }

    /** Captures the mid-stream state a checkpoint needs (see above). */
    Atf2ResumeState SaveState() const;

  private:
    util::Status Start();
    util::Status FlushChunk();

    io::WritableFile& out_;
    Atf2WriterOptions options_;
    /** The open chunk as it goes to the sink: a kAtf2ChunkHeaderBytes
     *  header slot, filled in at flush, then room for a full chunk of
     *  packed records. Allocated once. */
    std::vector<uint8_t> chunk_;
    uint32_t pending_records_ = 0;
    uint64_t records_ = 0;
    uint32_t chunks_ = 0;
    uint64_t bytes_written_ = 0;
    bool started_ = false;
    bool sealed_ = false;
};

// ---------------------------------------------------------------------------
// Tolerant scanner / strict loader.

/** One problem the scanner found, anchored to a file offset. */
struct ScanIssue {
    uint64_t offset = 0;
    std::string error;
};

/** What a tolerant pass over one container found. */
struct ScanReport {
    bool recognized = false;  ///< carried a known trace magic
    bool sealed = false;      ///< valid ATF2 footer present
    uint64_t file_bytes = 0;
    uint32_t chunks_ok = 0;
    uint32_t chunks_bad = 0;
    uint64_t records_salvaged = 0;
    /** Footer's record total; meaningful only when `sealed`. */
    uint64_t footer_records = 0;
    /** Records recovered before the first tear (the guaranteed prefix). */
    uint64_t valid_prefix_records = 0;
    std::vector<ScanIssue> issues;
    /** The failed Read's status (also issues[0]); OK when the whole file
     *  was read. */
    util::Status read_status;

    /** True when the file is complete and every checksum verified. */
    bool intact() const;
    /** Multi-line human-readable report (the --verify output). */
    std::string ToString() const;
};

/**
 * Reads as much as possible from a (possibly damaged) container: verifies
 * per-chunk checksums, resynchronizes past corrupt regions at the next
 * chunk marker, and appends every salvageable record to `out` (which may
 * be null to verify only). Never terminates the process; all damage is
 * described in the returned report.
 *
 * The scan streams: it reads the whole file in 64 KiB Read calls (until
 * one returns 0 or fails, wherever the damage is), and holds only the
 * bytes from its position on, so its memory is bounded by one maximum
 * chunk plus one read (~8.4 MB at most, ~256 KB for usual chunks) rather
 * than by the file. A failed read is reported as issues[0] at the offset
 * where the good bytes end, the parse sees a file that ends there, and
 * no prefix counts as intact.
 */
ScanReport ScanTrace(io::ReadableFile& in, std::vector<Record>* out);

/**
 * Strictly loads a trace file: every record or a non-OK status (kNotFound
 * or kIoError when unreadable — a failed Read returns its own status,
 * wherever in the file it failed — kInvalidArgument when not a trace,
 * kDataLoss when damaged — the message then names the salvageable record
 * count). The scan sizes the output once from ReadableFile::Size() and
 * copies each verified chunk into it as one block.
 */
util::StatusOr<std::vector<Record>> LoadTrace(const std::string& path,
                                              io::Vfs& vfs = io::RealVfs());

/** Writes `records` as a sealed ATF2 container on `out`. */
util::Status WriteAtf2(io::WritableFile& out,
                       const std::vector<Record>& records,
                       const Atf2WriterOptions& options = {});

}  // namespace atum::trace

#endif  // ATUM_TRACE_CONTAINER_H_
