#include "trace/container.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <sstream>
#include <thread>

#include <sys/mman.h>

#include "util/crc32.h"
#include "util/logging.h"

namespace atum::trace {

namespace {

void
Set16(uint8_t* p, uint16_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
}

void
Set32(uint8_t* p, uint32_t v)
{
    Set16(p, static_cast<uint16_t>(v));
    Set16(p + 2, static_cast<uint16_t>(v >> 16));
}

void
Set64(uint8_t* p, uint64_t v)
{
    Set32(p, static_cast<uint32_t>(v));
    Set32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint16_t
Get16(const uint8_t* p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
Get32(const uint8_t* p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
Get64(const uint8_t* p)
{
    return static_cast<uint64_t>(Get32(p)) |
           static_cast<uint64_t>(Get32(p + 4)) << 32;
}

/**
 * Bound on consecutive kInterrupted results retried before giving up.
 * Real EINTRs are already absorbed by io/posix.cc, so hitting this means
 * a fault injector (or a pathological signal storm) is at work.
 */
constexpr int kMaxInterrupts = 100;

/** The open-chunk buffer for `chunk_records`; Fatal on a bad capacity. */
std::vector<uint8_t>
MakeChunkBuffer(uint32_t chunk_records)
{
    if (chunk_records == 0 || chunk_records > kAtf2MaxChunkRecords)
        Fatal("bad ATF2 chunk capacity: ", chunk_records);
    return std::vector<uint8_t>(kAtf2ChunkHeaderBytes +
                                size_t{chunk_records} * kRecordBytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// File handles.

FileByteSink::FileByteSink(std::unique_ptr<io::WritableFile> file,
                           std::string path)
    : file_(std::move(file)), path_(std::move(path))
{
}

util::StatusOr<std::unique_ptr<FileByteSink>>
FileByteSink::Open(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<io::WritableFile>> file =
        vfs.Create(path);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<FileByteSink>(
        new FileByteSink(std::move(*file), path));
}

util::StatusOr<std::unique_ptr<FileByteSink>>
FileByteSink::OpenAt(const std::string& path, uint64_t offset, io::Vfs& vfs)
{
    // Rewinds to the durable prefix: everything past the mark (torn chunk,
    // chunks newer than the checkpoint, or a shutdown footer) goes.
    util::StatusOr<std::unique_ptr<io::WritableFile>> file =
        vfs.OpenForAppendAt(path, offset);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<FileByteSink>(
        new FileByteSink(std::move(*file), path));
}

FileByteSink::~FileByteSink()
{
    const util::Status status = Close();
    if (!status.ok())
        Warn("closing ", path_, ": ", status.ToString());
}

util::Status
FileByteSink::Write(const void* data, size_t len)
{
    if (file_ == nullptr)
        return util::FailedPrecondition("write to closed file ", path_);
    util::Status status;
    for (int i = 0; i < kMaxInterrupts; ++i) {
        status = file_->Write(data, len);
        if (status.code() != util::StatusCode::kInterrupted)
            return status;
    }
    return status;
}

util::Status
FileByteSink::Sync()
{
    if (file_ == nullptr)
        return util::FailedPrecondition("fsync of closed file ", path_);
    util::Status status;
    for (int i = 0; i < kMaxInterrupts; ++i) {
        status = file_->Sync();
        if (status.code() != util::StatusCode::kInterrupted)
            return status;
    }
    return status;
}

util::Status
FileByteSink::Close()
{
    if (file_ == nullptr)
        return util::OkStatus();
    util::Status status = Sync();
    const util::Status close_status = file_->Close();
    if (status.ok())
        status = close_status;
    file_ = nullptr;
    return status;
}

FileByteSource::FileByteSource(std::unique_ptr<io::ReadableFile> file,
                               std::string path)
    : file_(std::move(file)), path_(std::move(path))
{
}

util::StatusOr<std::unique_ptr<FileByteSource>>
FileByteSource::Open(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<io::ReadableFile>> file =
        vfs.OpenRead(path);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<FileByteSource>(
        new FileByteSource(std::move(*file), path));
}

util::StatusOr<size_t>
FileByteSource::Read(void* data, size_t len)
{
    util::StatusOr<size_t> got = file_->Read(data, len);
    for (int i = 1;
         i < kMaxInterrupts &&
         got.status().code() == util::StatusCode::kInterrupted;
         ++i)
        got = file_->Read(data, len);
    return got;
}

// ---------------------------------------------------------------------------
// Writer.

Atf2Writer::Atf2Writer(io::WritableFile& out,
                       const Atf2WriterOptions& options)
    : out_(out),
      options_(options),
      chunk_(MakeChunkBuffer(options.chunk_records))
{
}

Atf2Writer::Atf2Writer(io::WritableFile& out, ResumeFrom resume)
    : out_(out),
      options_{resume.state.chunk_records},
      chunk_(MakeChunkBuffer(resume.state.chunk_records)),
      pending_records_(
          static_cast<uint32_t>(resume.state.pending.size() / kRecordBytes)),
      records_(resume.state.records),
      chunks_(resume.state.chunks),
      bytes_written_(resume.state.file_bytes),
      started_(resume.state.file_bytes > 0)
{
    const std::vector<uint8_t>& pending = resume.state.pending;
    if (pending.size() > chunk_.size() - kAtf2ChunkHeaderBytes)
        Fatal("ATF2 resume state holds ", pending.size(),
              " open-chunk bytes, more than one chunk");
    std::copy(pending.begin(), pending.end(),
              chunk_.begin() + kAtf2ChunkHeaderBytes);
}

Atf2ResumeState
Atf2Writer::SaveState() const
{
    Atf2ResumeState state;
    state.file_bytes = bytes_written_;
    state.chunks = chunks_;
    state.records = records_;
    state.chunk_records = options_.chunk_records;
    const auto payload = chunk_.begin() + kAtf2ChunkHeaderBytes;
    state.pending.assign(payload,
                         payload + size_t{pending_records_} * kRecordBytes);
    return state;
}

util::Status
Atf2Writer::Start()
{
    if (started_)
        return util::OkStatus();
    uint8_t header[kAtf2HeaderBytes] = {};  // flags and reserved stay 0
    std::memcpy(header, kAtf2Magic, sizeof kAtf2Magic);
    Set16(header + 8, kAtf2Version);
    Set16(header + 10, static_cast<uint16_t>(kRecordBytes));
    Set32(header + 12, options_.chunk_records);
    Set32(header + 28, util::Crc32c(header, 28));
    util::Status status = out_.Write(header, sizeof header);
    if (status.ok()) {
        started_ = true;
        bytes_written_ += sizeof header;
    }
    return status;
}

util::Status
Atf2Writer::FlushChunk()
{
    if (pending_records_ == 0)
        return util::OkStatus();
    // One Write call per chunk: either the whole chunk reaches the sink
    // or the stream is torn at a point the scanner can resynchronize past.
    const size_t payload = size_t{pending_records_} * kRecordBytes;
    uint8_t* header = chunk_.data();
    Set32(header, kAtf2ChunkMagic);
    Set32(header + 4, pending_records_);
    Set32(header + 8,
          util::Crc32c(header + kAtf2ChunkHeaderBytes, payload));
    Set32(header + 12, util::Crc32c(header, 12));
    const size_t bytes = kAtf2ChunkHeaderBytes + payload;
    util::Status status = out_.Write(header, bytes);
    if (!status.ok())
        return status;  // the records stay buffered: the flush can be retried
    ++chunks_;
    bytes_written_ += bytes;
    pending_records_ = 0;
    return util::OkStatus();
}

util::Status
Atf2Writer::AppendSlow(const Record& record)
{
    if (sealed_)
        return util::FailedPrecondition("Append on a sealed ATF2 writer");
    util::Status status = Start();
    if (!status.ok())
        return status;
    if (pending_records_ == options_.chunk_records) {
        status = FlushChunk();
        if (!status.ok())
            return status;  // `record` was not consumed; caller may retry
    }
    Pack(record);
    return util::OkStatus();
}

util::Status
Atf2Writer::Seal()
{
    if (sealed_)
        return util::OkStatus();
    util::Status status = Start();
    if (!status.ok())
        return status;
    status = FlushChunk();
    if (!status.ok())
        return status;
    uint8_t footer[kAtf2FooterBytes] = {};  // reserved stays 0
    Set32(footer, kAtf2FooterMagic);
    Set32(footer + 4, chunks_);
    Set64(footer + 8, records_);
    Set32(footer + 20, util::Crc32c(footer, 20));
    status = out_.Write(footer, sizeof footer);
    if (!status.ok())
        return status;
    sealed_ = true;
    return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Tolerant scanner.

namespace {

// A verified payload is copied into the caller's records as one block,
// which is only the records themselves because a Record is laid out as
// its 8 packed bytes (trace/record.h).

/** The scanner's read size: one Read call per 64 KiB of file. */
constexpr size_t kScanReadBytes = 64 << 10;
/** Reads the reader thread may be ahead of the parse. */
constexpr size_t kScanRingSlots = 8;
/** The window's bound: one maximum chunk plus one read. */
constexpr size_t kScanWindowMaxBytes =
    kAtf2ChunkHeaderBytes + size_t{kAtf2MaxChunkRecords} * kRecordBytes +
    kScanReadBytes;
/** The window's first allocation: room for a few reads of small chunks
 *  between compactions. */
constexpr size_t kScanWindowInitialBytes = 4 * kScanReadBytes;
constexpr uint64_t kNoMarker = ~uint64_t{0};

/**
 * The scanner's reader thread and the ring it fills. The thread makes
 * the scan's Read calls after the first full one, kScanReadBytes each
 * and in order, until one returns 0 or fails, each into the next of
 * kScanRingSlots slots once the parse has taken that slot's last read.
 * So the parse checks one read's bytes while the next ones arrive. The
 * destructor takes what is left and joins the thread, which then has
 * made its last Read.
 */
class ReadAhead
{
  public:
    explicit ReadAhead(io::ReadableFile& in)
        : in_(in),
          slots_(new Slot[kScanRingSlots]),
          thread_([this] { Run(); })
    {
    }

    ~ReadAhead()
    {
        while (!ended_)
            Take(nullptr);
        thread_.join();
    }

    ReadAhead(const ReadAhead&) = delete;
    ReadAhead& operator=(const ReadAhead&) = delete;

    /**
     * The next read's result, waiting for it if need be; its bytes are
     * copied to `dst` (which has room for kScanReadBytes) unless null.
     * Called again after a read returned 0 or failed, it returns 0.
     */
    util::StatusOr<size_t> Take(uint8_t* dst)
    {
        if (ended_)
            return size_t{0};
        const uint64_t n = taken_.load(std::memory_order_relaxed);
        filled_.wait(n, std::memory_order_acquire);
        Slot& slot = slots_[n % kScanRingSlots];
        util::StatusOr<size_t> got =
            slot.status.ok() ? util::StatusOr<size_t>(slot.bytes)
                             : util::StatusOr<size_t>(slot.status);
        ended_ = !got.ok() || *got == 0;
        if (got.ok() && dst != nullptr)
            std::memcpy(dst, slot.data, *got);
        taken_.store(n + 1, std::memory_order_release);
        taken_.notify_one();
        return got;
    }

  private:
    struct Slot {
        util::Status status;
        size_t bytes = 0;
        uint8_t data[kScanReadBytes];
    };

    /** The reader thread: fills slot n % kScanRingSlots with read n. */
    void Run()
    {
        for (uint64_t n = 0;; ++n) {
            // Slot n is free once the parse has taken read n - slots.
            for (uint64_t taken = taken_.load(std::memory_order_acquire);
                 n - taken >= kScanRingSlots;
                 taken = taken_.load(std::memory_order_acquire))
                taken_.wait(taken, std::memory_order_acquire);
            Slot& slot = slots_[n % kScanRingSlots];
            util::StatusOr<size_t> got = in_.Read(slot.data, kScanReadBytes);
            slot.status = got.status();
            slot.bytes = got.ok() ? *got : 0;
            filled_.store(n + 1, std::memory_order_release);
            filled_.notify_one();
            if (!got.ok() || *got == 0)
                return;
        }
    }

    io::ReadableFile& in_;
    std::unique_ptr<Slot[]> slots_;
    /** Reads filled by the thread, and taken by the parse. */
    std::atomic<uint64_t> filled_{0};
    std::atomic<uint64_t> taken_{0};
    /** The parse has taken the read that returned 0 or failed. */
    bool ended_ = false;
    std::thread thread_;  // last: it starts once the rest is set up
};

/**
 * The scanner's view of its input: the bytes from the scan position on,
 * read in kScanReadBytes calls until a Read returns 0 or fails, the same
 * calls a whole-file read makes. Reads are made here until one returns
 * a full kScanReadBytes, so a file that fits one read starts no thread;
 * a ReadAhead starts right after that read, and makes the rest while the
 * parse checks it. Bytes before the position are dropped, so the window
 * holds at most one maximum chunk plus one read, and the ring
 * kScanRingSlots reads, whatever the file size.
 */
class ScanWindow
{
  public:
    explicit ScanWindow(io::ReadableFile& in) : in_(in) {}

    /**
     * Drops the bytes before `pos` (which never moves back) and reads
     * until [pos, pos + n) is resident or the input ends. Returns how
     * many of those n bytes are resident; fewer than n means the input
     * has ended, so end() is the file length.
     */
    size_t Need(uint64_t pos, size_t n)
    {
        keep_ = pos;
        while (end_ < pos + n && ReadMore(true)) {
        }
        return end_ <= pos ? 0 : static_cast<size_t>(std::min<uint64_t>(
                                     n, end_ - pos));
    }

    /** The resident byte at file offset `pos`. */
    const uint8_t* At(uint64_t pos) const { return buf_.get() + (pos - base_); }

    /** First offset >= `from` holding a chunk or footer marker, or
     *  kNoMarker once the input has ended without one. */
    uint64_t FindMarker(uint64_t from)
    {
        for (uint64_t i = from; Need(i, 4) == 4;) {
            const uint8_t* p = At(i);
            const size_t avail = static_cast<size_t>(end_ - i);
            for (size_t j = 0; j + 4 <= avail; ++j) {
                const uint32_t m = Get32(p + j);
                if (m == kAtf2ChunkMagic || m == kAtf2FooterMagic)
                    return i + j;
            }
            i += avail - 3;  // a marker may start in the last 3 bytes
        }
        return kNoMarker;
    }

    /** Reads and drops the rest of the input; returns its length. After
     *  it no byte is resident and the reader thread has ended. */
    uint64_t ReadToEnd()
    {
        keep_ = end_;
        while (ReadMore(false)) {
        }
        base_ = end_;
        ahead_.reset();
        return end_;
    }

    /** Bytes read so far; the file length once the input has ended. */
    uint64_t end() const { return end_; }
    /** The failed Read's status, or OK. */
    const util::Status& read_status() const { return read_status_; }

  private:
    /** One kScanReadBytes read, kept in the window or dropped; false at
     *  end or failure. */
    bool ReadMore(bool keep)
    {
        if (ended_)
            return false;
        util::StatusOr<size_t> got = size_t{0};
        if (ahead_ == nullptr) {
            MakeRoom();
            got = in_.Read(buf_.get() + (end_ - base_), kScanReadBytes);
            if (got.ok() && *got == kScanReadBytes)  // more reads may follow
                ahead_ = std::make_unique<ReadAhead>(in_);
        } else {
            if (keep)
                MakeRoom();
            got = ahead_->Take(keep ? buf_.get() + (end_ - base_) : nullptr);
        }
        if (!got.ok() || *got == 0) {
            ended_ = true;
            if (!got.ok())
                read_status_ = got.status();
            return false;
        }
        end_ += *got;
        if (!keep)
            keep_ = end_;
        return true;
    }

    /** Leaves room for one read after the resident bytes [keep_, end_). */
    void MakeRoom()
    {
        if (cap_ - (end_ - base_) >= kScanReadBytes)
            return;
        const size_t kept = static_cast<size_t>(end_ - keep_);
        const size_t want = kept + kScanReadBytes;
        if (want > cap_) {
            // Only a chunk bigger than the window so far gets here, and
            // kept < one maximum chunk, so want <= kScanWindowMaxBytes.
            const size_t cap = std::min(
                std::max({want, 2 * cap_, kScanWindowInitialBytes}),
                kScanWindowMaxBytes);
            std::unique_ptr<uint8_t[]> grown(new uint8_t[cap]);
            if (kept > 0)
                std::memcpy(grown.get(), At(keep_), kept);
            buf_ = std::move(grown);
            cap_ = cap;
        } else if (kept > 0) {
            std::memmove(buf_.get(), At(keep_), kept);
        }
        base_ = keep_;
    }

    io::ReadableFile& in_;
    std::unique_ptr<uint8_t[]> buf_;
    size_t cap_ = 0;
    uint64_t base_ = 0;  ///< file offset of buf_[0]
    uint64_t keep_ = 0;  ///< first offset still wanted
    uint64_t end_ = 0;   ///< file offset one past the last byte read
    bool ended_ = false;
    util::Status read_status_;
    /** Makes every read after the first full one. */
    std::unique_ptr<ReadAhead> ahead_;
};

/**
 * Asks for transparent huge pages over the 2 MiB-aligned interior of
 * `records`' capacity, before the scan's copies first touch it: one
 * fault per 2 MiB instead of one per 4 KiB page of a loaded trace. Only
 * a hint; where it is refused, nothing else changes.
 */
void
AdviseHugePages(std::vector<Record>& records)
{
#ifdef MADV_HUGEPAGE
    constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
    const auto begin = reinterpret_cast<uintptr_t>(records.data());
    const uintptr_t end = begin + records.capacity() * sizeof(Record);
    const uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
    const uintptr_t last = end & ~(kHugePage - 1);
    if (last > first)
        (void)madvise(reinterpret_cast<void*>(first), last - first,
                      MADV_HUGEPAGE);
#else
    (void)records;
#endif
}

/**
 * Reads the packed records of a byte range as a random-access range of
 * Record values. A chunk payload after a resynchronization may start at
 * any byte of the window, so each record is copied out, never cast in
 * place. Appending through it constructs each slot once, where a resize
 * would zero-fill the slots before the copy.
 */
class PackedRecords
{
  public:
    // What vector::insert asks of a random-access iterator.
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Record;
    using difference_type = std::ptrdiff_t;
    using pointer = const Record*;
    using reference = Record;

    explicit PackedRecords(const uint8_t* p) : p_(p) {}

    Record operator*() const
    {
        Record r;
        std::memcpy(&r, p_, sizeof r);
        return r;
    }
    PackedRecords& operator++()
    {
        p_ += kRecordBytes;
        return *this;
    }
    PackedRecords& operator--()
    {
        p_ -= kRecordBytes;
        return *this;
    }
    PackedRecords& operator+=(difference_type n)
    {
        p_ += n * kRecordBytes;
        return *this;
    }
    difference_type operator-(const PackedRecords& other) const
    {
        return (p_ - other.p_) / kRecordBytes;
    }
    bool operator==(const PackedRecords&) const = default;

  private:
    const uint8_t* p_;
};

/**
 * The parse behind ScanTrace: walks the container through `w`, filling
 * `report` (all but the read failure and file_bytes, which ScanTrace
 * adds once the input has ended) and appending salvaged records to
 * `out`, which it first sizes for `max_records` more.
 */
void
ScanContainer(ScanWindow& w, uint64_t max_records, ScanReport& report,
              std::vector<Record>* out)
{
    bool prefix_intact = true;
    auto issue = [&](uint64_t offset, std::string message) {
        report.issues.push_back({offset, std::move(message)});
        prefix_intact = false;
    };

    // ---- ATF2.
    const size_t head = w.Need(0, kAtf2HeaderBytes);
    if (head < sizeof kAtf2Magic ||
        std::memcmp(w.At(0), kAtf2Magic, sizeof kAtf2Magic) != 0) {
        issue(0, head == 0 ? "empty file" : "unknown magic");
        return;
    }
    report.recognized = true;
    if (head < kAtf2HeaderBytes) {
        issue(w.end(), "file ends inside the container header");
        return;
    }
    const uint8_t* h = w.At(0);
    if (Get32(h + 28) != util::Crc32c(h, 28)) {
        // Header fields are untrusted, but chunks self-describe: keep going.
        issue(0, "container header CRC mismatch");
    } else {
        const uint16_t version = Get16(h + 8);
        if (version != kAtf2Version) {
            issue(8, "unsupported container version " +
                         std::to_string(version));
            return;
        }
        if (Get16(h + 10) != kRecordBytes) {
            issue(10, "unsupported record size " +
                          std::to_string(Get16(h + 10)));
            return;
        }
    }

    if (out != nullptr && max_records > 0) {
        out->reserve(out->size() + max_records);
        AdviseHugePages(*out);
    }

    uint64_t pos = kAtf2HeaderBytes;
    while (true) {
        const size_t avail = w.Need(pos, 4);
        if (avail == 0)
            break;
        if (avail < 4) {
            issue(pos, "trailing garbage (" + std::to_string(avail) +
                           " bytes)");
            break;
        }
        const uint32_t magic = Get32(w.At(pos));

        if (magic == kAtf2FooterMagic) {
            if (w.Need(pos, kAtf2FooterBytes) < kAtf2FooterBytes) {
                issue(pos, "file ends inside the footer");
                break;
            }
            const uint8_t* f = w.At(pos);
            if (Get32(f + 20) != util::Crc32c(f, 20)) {
                issue(pos, "footer CRC mismatch");
                const uint64_t next = w.FindMarker(pos + 1);
                if (next == kNoMarker)
                    break;
                pos = next;
                continue;
            }
            report.sealed = true;
            const uint32_t footer_chunks = Get32(f + 4);
            report.footer_records = Get64(f + 8);
            // The chunk count is checked only on a file with no other
            // issue, a failed read included, so read to the end first.
            const uint64_t file_end = w.ReadToEnd();
            if (report.issues.empty() && w.read_status().ok() &&
                footer_chunks != report.chunks_ok)
                issue(pos, "footer expects " +
                               std::to_string(footer_chunks) +
                               " chunks, file has " +
                               std::to_string(report.chunks_ok));
            pos += kAtf2FooterBytes;
            if (pos != file_end)
                issue(pos, "bytes after the footer (" +
                               std::to_string(file_end - pos) + ")");
            break;
        }

        if (magic == kAtf2ChunkMagic) {
            if (w.Need(pos, kAtf2ChunkHeaderBytes) < kAtf2ChunkHeaderBytes) {
                issue(pos, "file ends inside a chunk header");
                break;
            }
            const uint8_t* c = w.At(pos);
            if (Get32(c + 12) != util::Crc32c(c, 12) ||
                Get32(c + 4) > kAtf2MaxChunkRecords) {
                issue(pos, "chunk header CRC mismatch");
                const uint64_t next = w.FindMarker(pos + 1);
                if (next == kNoMarker)
                    break;
                pos = next;
                continue;
            }
            const uint32_t count = Get32(c + 4);
            const uint32_t payload_crc = Get32(c + 8);
            const size_t payload = size_t{count} * kRecordBytes;
            const size_t bytes = kAtf2ChunkHeaderBytes + payload;
            if (w.Need(pos, bytes) < bytes) {
                issue(pos,
                      "file ends inside a chunk payload (" +
                          std::to_string(w.end() - pos -
                                         kAtf2ChunkHeaderBytes) +
                          " of " + std::to_string(payload) + " bytes)");
                break;
            }
            const uint8_t* records = w.At(pos + kAtf2ChunkHeaderBytes);
            bool good = payload_crc == util::Crc32c(records, payload);
            if (!good) {
                issue(pos, "chunk payload CRC mismatch (" +
                               std::to_string(count) + " records lost)");
            } else if (!AllPlausible(records, count)) {
                // An implausible record takes back its whole chunk.
                good = false;
                issue(pos, "chunk passes CRC but holds implausible "
                           "records");
            } else if (out != nullptr && count > 0) {
                out->insert(out->end(), PackedRecords(records),
                            PackedRecords(records + payload));
            }
            if (good) {
                ++report.chunks_ok;
                report.records_salvaged += count;
                if (prefix_intact)
                    report.valid_prefix_records = report.records_salvaged;
            } else {
                ++report.chunks_bad;
            }
            pos += bytes;
            continue;
        }

        // Lost framing: resynchronize at the next marker (island salvage).
        const uint64_t next = w.FindMarker(pos + 1);
        if (next == kNoMarker) {
            issue(pos, "lost framing; no further chunk markers (" +
                           std::to_string(w.end() - pos) +
                           " bytes skipped)");
            break;
        }
        issue(pos, "lost framing; resynchronized after " +
                       std::to_string(next - pos) + " bytes");
        pos = next;
    }
}

}  // namespace

ScanReport
ScanTrace(io::ReadableFile& in, std::vector<Record>* out)
{
    ScanReport report;
    // No file holds more records than its size allows, so `out` is sized
    // once. The size is asked before the reader thread starts.
    uint64_t max_records = 0;
    if (out != nullptr) {
        if (util::StatusOr<uint64_t> size = in.Size(); size.ok())
            max_records = *size / kRecordBytes;
    }
    ScanWindow w(in);
    ScanContainer(w, max_records, report, out);
    // Whatever the parse stopped at, the whole file is read, so the
    // read count and file_bytes do not depend on where the damage is.
    report.file_bytes = w.ReadToEnd();
    if (!w.read_status().ok()) {
        // The parse saw a file that ends where the good bytes end. The
        // failure is reported first, and no prefix counts as intact.
        report.read_status = w.read_status();
        report.issues.insert(
            report.issues.begin(),
            {report.file_bytes,
             "read failed: " + report.read_status.ToString()});
        report.valid_prefix_records = 0;
    }
    return report;
}

bool
ScanReport::intact() const
{
    if (!recognized)
        return false;
    return sealed && chunks_bad == 0 && issues.empty() &&
           records_salvaged == footer_records;
}

std::string
ScanReport::ToString() const
{
    std::ostringstream os;
    os << "format:  ";
    if (!recognized)
        os << "unrecognized (no trace magic)\n";
    else if (sealed)
        os << "ATF2 sealed\n";
    else
        os << "ATF2 UNSEALED (no footer: the capture did not complete)\n";
    os << "bytes:   " << file_bytes << "\n";
    if (recognized)
        os << "chunks:  " << chunks_ok << " ok, " << chunks_bad << " bad\n";
    os << "records: " << records_salvaged << " salvageable";
    if (sealed)
        os << " of " << footer_records << " expected";
    os << " (intact prefix: " << valid_prefix_records << ")\n";
    if (!issues.empty()) {
        constexpr size_t kMaxListed = 20;
        os << "issues:  " << issues.size() << "\n";
        for (size_t i = 0; i < issues.size() && i < kMaxListed; ++i)
            os << "  @" << issues[i].offset << ": " << issues[i].error
               << "\n";
        if (issues.size() > kMaxListed)
            os << "  ... and " << issues.size() - kMaxListed << " more\n";
    }
    os << "status:  " << (intact() ? "intact" : "DAMAGED") << "\n";
    return os.str();
}

util::StatusOr<std::vector<Record>>
LoadTrace(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<FileByteSource>> source =
        FileByteSource::Open(path, vfs);
    if (!source.ok())
        return source.status();

    std::vector<Record> records;
    const ScanReport report = ScanTrace(**source, &records);
    if (!report.read_status.ok())
        return util::Status(report.read_status.code(),
                            path + ": " + report.read_status.message());
    if (!report.recognized)
        return util::InvalidArgument("not an ATUM trace file: ", path);
    if (report.intact())
        return records;
    const std::string first =
        report.issues.empty() ? "damaged" : report.issues[0].error;
    return util::DataLoss(path, ": ", first, " (",
                          report.records_salvaged,
                          " records salvageable; try atum-report --salvage)");
}

util::Status
WriteAtf2(io::WritableFile& out, const std::vector<Record>& records,
          const Atf2WriterOptions& options)
{
    Atf2Writer writer(out, options);
    for (const Record& r : records) {
        util::Status status = writer.Append(r);
        if (!status.ok())
            return status;
    }
    return writer.Seal();
}

}  // namespace atum::trace
