#include "trace/container.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/crc32.h"
#include "util/logging.h"

namespace atum::trace {

namespace {

void
Put16(std::vector<uint8_t>& out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
Put32(std::vector<uint8_t>& out, uint32_t v)
{
    Put16(out, static_cast<uint16_t>(v));
    Put16(out, static_cast<uint16_t>(v >> 16));
}

void
Put64(std::vector<uint8_t>& out, uint64_t v)
{
    Put32(out, static_cast<uint32_t>(v));
    Put32(out, static_cast<uint32_t>(v >> 32));
}

void
Set32(uint8_t* p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
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

constexpr size_t kNpos = static_cast<size_t>(-1);

/**
 * Bound on consecutive kInterrupted results retried before giving up.
 * Real EINTRs are already absorbed by io/posix.cc, so hitting this means
 * a fault injector (or a pathological signal storm) is at work.
 */
constexpr int kMaxInterrupts = 100;

/** First offset >= `from` holding a chunk or footer marker, or kNpos. */
size_t
FindMarker(const std::vector<uint8_t>& b, size_t from)
{
    for (size_t i = from; i + 4 <= b.size(); ++i) {
        const uint32_t m = Get32(&b[i]);
        if (m == kAtf2ChunkMagic || m == kAtf2FooterMagic)
            return i;
    }
    return kNpos;
}

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
    std::vector<uint8_t> header;
    header.insert(header.end(), kAtf2Magic, kAtf2Magic + sizeof kAtf2Magic);
    Put16(header, kAtf2Version);
    Put16(header, static_cast<uint16_t>(kRecordBytes));
    Put32(header, options_.chunk_records);
    Put32(header, 0);  // flags, reserved
    Put64(header, 0);  // reserved
    Put32(header, util::Crc32c(header.data(), header.size()));
    util::Status status = out_.Write(header.data(), header.size());
    if (status.ok()) {
        started_ = true;
        bytes_written_ += header.size();
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
Atf2Writer::Append(const Record& record)
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
    PackRecord(record, chunk_.data() + kAtf2ChunkHeaderBytes +
                           size_t{pending_records_} * kRecordBytes);
    ++pending_records_;
    ++records_;
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
    std::vector<uint8_t> footer;
    Put32(footer, kAtf2FooterMagic);
    Put32(footer, chunks_);
    Put64(footer, records_);
    Put32(footer, 0);  // reserved
    Put32(footer, util::Crc32c(footer.data(), footer.size()));
    status = out_.Write(footer.data(), footer.size());
    if (!status.ok())
        return status;
    sealed_ = true;
    return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Tolerant scanner.

ScanReport
ScanTrace(io::ReadableFile& in, std::vector<Record>* out)
{
    ScanReport report;
    std::vector<uint8_t> b;
    uint8_t buf[64 << 10];
    while (true) {
        util::StatusOr<size_t> got = in.Read(buf, sizeof buf);
        if (!got.ok()) {
            report.issues.push_back(
                {b.size(), "read failed: " + got.status().ToString()});
            break;
        }
        if (*got == 0)
            break;
        b.insert(b.end(), buf, buf + *got);
    }
    report.file_bytes = b.size();

    bool prefix_intact = report.issues.empty();
    auto issue = [&](uint64_t offset, std::string message) {
        report.issues.push_back({offset, std::move(message)});
        prefix_intact = false;
    };

    // ---- ATF2.
    if (b.size() < sizeof kAtf2Magic ||
        std::memcmp(b.data(), kAtf2Magic, sizeof kAtf2Magic) != 0) {
        issue(0, b.empty() ? "empty file" : "unknown magic");
        return report;
    }
    report.recognized = true;
    if (b.size() < kAtf2HeaderBytes) {
        issue(b.size(), "file ends inside the container header");
        return report;
    }
    if (Get32(&b[28]) != util::Crc32c(b.data(), 28)) {
        // Header fields are untrusted, but chunks self-describe: keep going.
        issue(0, "container header CRC mismatch");
    } else {
        const uint16_t version = Get16(&b[8]);
        if (version != kAtf2Version) {
            issue(8, "unsupported container version " +
                         std::to_string(version));
            return report;
        }
        if (Get16(&b[10]) != kRecordBytes) {
            issue(10, "unsupported record size " +
                          std::to_string(Get16(&b[10])));
            return report;
        }
    }

    // No file holds more records than this, so `out` never regrows.
    if (out != nullptr)
        out->reserve(out->size() + b.size() / kRecordBytes);

    size_t pos = kAtf2HeaderBytes;
    while (pos < b.size()) {
        if (b.size() - pos < 4) {
            issue(pos, "trailing garbage (" +
                           std::to_string(b.size() - pos) + " bytes)");
            break;
        }
        const uint32_t magic = Get32(&b[pos]);

        if (magic == kAtf2FooterMagic) {
            if (b.size() - pos < kAtf2FooterBytes) {
                issue(pos, "file ends inside the footer");
                break;
            }
            if (Get32(&b[pos + 20]) != util::Crc32c(&b[pos], 20)) {
                issue(pos, "footer CRC mismatch");
                const size_t next = FindMarker(b, pos + 1);
                if (next == kNpos)
                    break;
                pos = next;
                continue;
            }
            report.sealed = true;
            const uint32_t footer_chunks = Get32(&b[pos + 4]);
            report.footer_records = Get64(&b[pos + 8]);
            if (report.issues.empty() && footer_chunks != report.chunks_ok)
                issue(pos, "footer expects " +
                               std::to_string(footer_chunks) +
                               " chunks, file has " +
                               std::to_string(report.chunks_ok));
            pos += kAtf2FooterBytes;
            if (pos != b.size())
                issue(pos, "bytes after the footer (" +
                               std::to_string(b.size() - pos) + ")");
            break;
        }

        if (magic == kAtf2ChunkMagic) {
            if (b.size() - pos < kAtf2ChunkHeaderBytes) {
                issue(pos, "file ends inside a chunk header");
                break;
            }
            if (Get32(&b[pos + 12]) != util::Crc32c(&b[pos], 12) ||
                Get32(&b[pos + 4]) > kAtf2MaxChunkRecords) {
                issue(pos, "chunk header CRC mismatch");
                const size_t next = FindMarker(b, pos + 1);
                if (next == kNpos)
                    break;
                pos = next;
                continue;
            }
            const uint32_t count = Get32(&b[pos + 4]);
            const size_t payload =
                static_cast<size_t>(count) * kRecordBytes;
            if (b.size() - pos - kAtf2ChunkHeaderBytes < payload) {
                issue(pos,
                      "file ends inside a chunk payload (" +
                          std::to_string(b.size() - pos -
                                         kAtf2ChunkHeaderBytes) +
                          " of " + std::to_string(payload) + " bytes)");
                break;
            }
            const uint8_t* records = &b[pos + kAtf2ChunkHeaderBytes];
            bool good = Get32(&b[pos + 8]) == util::Crc32c(records, payload);
            if (good) {
                // Each record is unpacked once, for the check and for
                // `out`; an implausible one takes back the whole chunk.
                const size_t kept = out != nullptr ? out->size() : 0;
                for (uint32_t i = 0; i < count; ++i) {
                    const Record r = UnpackRecord(records + i * kRecordBytes);
                    if (!IsPlausibleRecord(r)) {
                        good = false;
                        break;
                    }
                    if (out != nullptr)
                        out->push_back(r);
                }
                if (!good) {
                    if (out != nullptr)
                        out->resize(kept);
                    issue(pos, "chunk passes CRC but holds implausible "
                               "records");
                }
            } else {
                issue(pos, "chunk payload CRC mismatch (" +
                               std::to_string(count) + " records lost)");
            }
            if (good) {
                ++report.chunks_ok;
                report.records_salvaged += count;
                if (prefix_intact)
                    report.valid_prefix_records = report.records_salvaged;
            } else {
                ++report.chunks_bad;
            }
            pos += kAtf2ChunkHeaderBytes + payload;
            continue;
        }

        // Lost framing: resynchronize at the next marker (island salvage).
        const size_t next = FindMarker(b, pos + 1);
        if (next == kNpos) {
            issue(pos, "lost framing; no further chunk markers (" +
                           std::to_string(b.size() - pos) +
                           " bytes skipped)");
            break;
        }
        issue(pos, "lost framing; resynchronized after " +
                       std::to_string(next - pos) + " bytes");
        pos = next;
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
