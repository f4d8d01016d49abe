// Corruption matrix for the ATF2 container: every truncation point,
// bit flips in every chunk position, crash-model truncation, legacy v1
// handling, and faults injected at the Vfs seam. No test here may
// kill the process — malformed file input must always come back as a
// Status or a damage report.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atf2_scan_check.h"
#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/status.h"

namespace atum::trace {
namespace {

std::string
TempPath(const char* name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

Record
TestRecord(uint32_t i)
{
    Record r;
    r.type = i % 2 ? RecordType::kRead : RecordType::kWrite;
    r.addr = 0x2000 + i * 4;
    r.flags = MakeFlags(i % 3 == 0, 4);
    r.info = static_cast<uint16_t>(i);
    return r;
}

std::vector<Record>
TestRecords(uint32_t n)
{
    std::vector<Record> records;
    for (uint32_t i = 0; i < n; ++i)
        records.push_back(TestRecord(i));
    return records;
}

constexpr char kTrace[] = "trace.atf2";

/** Scans the trace file on `vfs` the way a reader of it would. */
ScanReport
ScanFile(io::Vfs& vfs, std::vector<Record>* out = nullptr)
{
    util::StatusOr<std::unique_ptr<FileByteSource>> in =
        FileByteSource::Open(kTrace, vfs);
    EXPECT_TRUE(in.ok()) << in.status().ToString();
    if (!in.ok())
        return ScanReport{};
    return ScanTrace(**in, out);
}

/** The bytes of `records` written as a sealed container by WriteAtf2. */
std::vector<uint8_t>
Atf2Bytes(const std::vector<Record>& records,
          const Atf2WriterOptions& options = {})
{
    io::MemVfs vfs;
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        vfs.Create(kTrace);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(WriteAtf2(**out, records, options).ok());
    return vfs.ReadAll(kTrace).value();
}

/** A sealed container of `n` records, 4 records per chunk. */
std::vector<uint8_t>
SealedContainer(uint32_t n)
{
    return Atf2Bytes(TestRecords(n), {.chunk_records = 4});
}

/** Scans `bytes` placed as the trace file on a fresh MemVfs. */
ScanReport
Scan(const std::vector<uint8_t>& bytes, std::vector<Record>* out = nullptr)
{
    return ScanBytes(bytes, out);
}

// With chunk_records = 4 the layout of a 10-record container is:
//   [0,32)    header
//   [32,80)   chunk 0 (records 0..3)
//   [80,128)  chunk 1 (records 4..7)
//   [128,160) chunk 2 (records 8..9, partial: 16 + 2*8)
//   [160,184) footer
constexpr size_t kChunk0 = 32;
constexpr size_t kChunk1 = 80;
constexpr size_t kChunk2 = 128;
constexpr size_t kFooter = 160;
constexpr size_t kEnd = 184;

TEST(Container, SealedRoundTripIsIntact)
{
    const std::vector<uint8_t> bytes = SealedContainer(10);
    ASSERT_EQ(bytes.size(), kEnd);

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_TRUE(report.intact());
    EXPECT_TRUE(report.sealed);
    EXPECT_EQ(report.chunks_ok, 3u);
    EXPECT_EQ(report.chunks_bad, 0u);
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(report.footer_records, 10u);
    EXPECT_EQ(report.valid_prefix_records, 10u);
    EXPECT_EQ(back, TestRecords(10));
}

TEST(Container, EmptyTraceSealsAndVerifies)
{
    const ScanReport report = Scan(Atf2Bytes({}, {.chunk_records = 4}));
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);
}

TEST(Container, ZeroLengthFileIsNotATrace)
{
    const ScanReport report = Scan({});
    EXPECT_FALSE(report.recognized);
    EXPECT_FALSE(report.intact());
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].error, "empty file");
}

TEST(Container, RetiredV1MagicIsNotATrace)
{
    // Raw v1 files ("ATUM0001" + packed records, no checksums) are no
    // longer read: they scan as unrecognized, and loading one is a
    // Status, never a Fatal.
    const char v1_magic[] = "ATUM0001";
    std::vector<uint8_t> bytes(v1_magic, v1_magic + 8);
    for (uint32_t i = 0; i < 7; ++i) {
        uint8_t packed[kRecordBytes];
        PackRecord(TestRecord(i), packed);
        bytes.insert(bytes.end(), packed, packed + sizeof packed);
    }
    const ScanReport report = Scan(bytes);
    EXPECT_FALSE(report.recognized);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);

    io::MemVfs vfs;
    auto file = vfs.Create("v1.atum");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE((*file)->Close().ok());
    auto loaded = LoadTrace("v1.atum", vfs);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

// Truncate the container at EVERY byte boundary. The scanner must never
// die, never report intact, and always salvage exactly the records of
// the complete chunks in the surviving prefix.
TEST(Container, TruncationAtEveryOffsetSalvagesCompleteChunks)
{
    const std::vector<uint8_t> full = SealedContainer(10);
    ASSERT_EQ(full.size(), kEnd);

    for (size_t len = 0; len < full.size(); ++len) {
        const std::vector<uint8_t> cut(full.begin(), full.begin() + len);
        std::vector<Record> back;
        const ScanReport report = Scan(cut, &back);

        uint64_t want = 0;
        if (len >= kChunk1)
            want = 4;
        if (len >= kChunk2)
            want = 8;
        if (len >= kFooter)
            want = 10;

        EXPECT_FALSE(report.intact()) << "truncated to " << len;
        EXPECT_EQ(report.records_salvaged, want) << "truncated to " << len;
        EXPECT_EQ(report.valid_prefix_records, want)
            << "truncated to " << len;
        EXPECT_FALSE(report.sealed) << "truncated to " << len;
        ASSERT_EQ(back.size(), want) << "truncated to " << len;
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i], TestRecord(static_cast<uint32_t>(i)));
    }
}

// Flip one payload byte in the first, middle, and last chunk: exactly
// that chunk is lost, the islands around it are salvaged bit-exact, and
// the guaranteed prefix stops at the flip.
TEST(Container, PayloadFlipConfinesLossToOneChunk)
{
    struct Case {
        size_t chunk_offset;
        uint64_t prefix;            ///< records before the bad chunk
        std::vector<uint32_t> ids;  ///< surviving record indices
    };
    const std::vector<Case> cases = {
        {kChunk0, 0, {4, 5, 6, 7, 8, 9}},
        {kChunk1, 4, {0, 1, 2, 3, 8, 9}},
        {kChunk2, 8, {0, 1, 2, 3, 4, 5, 6, 7}},
    };
    for (const Case& c : cases) {
        std::vector<uint8_t> bytes = SealedContainer(10);
        bytes[c.chunk_offset + kAtf2ChunkHeaderBytes + 3] ^= 0x40;

        std::vector<Record> back;
        const ScanReport report = Scan(bytes, &back);
        EXPECT_FALSE(report.intact());
        EXPECT_TRUE(report.sealed);  // the footer itself is fine
        EXPECT_EQ(report.chunks_ok, 2u);
        EXPECT_EQ(report.chunks_bad, 1u);
        EXPECT_EQ(report.records_salvaged, c.ids.size());
        EXPECT_EQ(report.valid_prefix_records, c.prefix);
        ASSERT_EQ(back.size(), c.ids.size());
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i], TestRecord(c.ids[i]));
    }
}

TEST(Container, ChunkHeaderFlipResynchronizesAtNextMarker)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1 + 5] ^= 0xFF;  // chunk 1's record-count field

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.records_salvaged, 6u);  // chunks 0 and 2
    EXPECT_EQ(report.valid_prefix_records, 4u);
    ASSERT_EQ(back.size(), 6u);
    EXPECT_EQ(back[4], TestRecord(8));
}

TEST(Container, ResyncToAnOddOffsetLoadsEveryRecord)
{
    // Three stray bytes before chunk 1 move it, and every chunk after
    // it, off the 8-byte grid of the window: their payloads are copied
    // out from odd addresses, not read in place as records.
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes.insert(bytes.begin() + kChunk1, {0xA5, 0x5A, 0xC3});

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_ok, 3u);
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(back, TestRecords(10));
}

TEST(Container, HeaderFlipStillSalvagesAllChunks)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[9] ^= 0x01;  // version field; header CRC now fails

    const ScanReport report = Scan(bytes);
    EXPECT_FALSE(report.intact());
    // Chunks self-describe, so an untrusted header loses nothing.
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(report.valid_prefix_records, 0u);
}

TEST(Container, FooterFlipLeavesRecordsButNotSealed)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kFooter + 8] ^= 0xFF;  // footer's record total

    const ScanReport report = Scan(bytes);
    EXPECT_FALSE(report.intact());
    EXPECT_FALSE(report.sealed);
    EXPECT_EQ(report.records_salvaged, 10u);
}

// ---------------------------------------------------------------------------
// Fault injection through the writer and reader: FileSink / FileByteSource
// over a ChaosVfs executing a schedule-file program (io/chaos.h). Writes
// and reads are counted from 1; with chunk_records = 4, write 1 is the
// header and write N+2 is chunk N's flush.

io::ChaosSchedule
Schedule(const char* text)
{
    util::StatusOr<io::ChaosSchedule> schedule =
        io::ChaosSchedule::Parse(text);
    EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
    return schedule.ok() ? *schedule : io::ChaosSchedule{};
}

/** Writes `records` through a FileSink on `vfs` and seals it. */
util::Status
WriteFile(io::Vfs& vfs, const std::vector<Record>& records)
{
    util::StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(kTrace, {.chunk_records = 4}, vfs);
    if (!sink.ok())
        return sink.status();
    for (const Record& r : records) {
        if (util::Status status = (*sink)->Append(r); !status.ok())
            return status;
    }
    return (*sink)->Close();
}

TEST(Container, FailedAppendConsumesNothingAndIsRetryable)
{
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, Schedule("op fail-write 2 io\n"));  // chunk 0
    util::StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(kTrace, {.chunk_records = 4}, vfs);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();

    const std::vector<Record> records = TestRecords(10);
    uint64_t delivered = 0;
    unsigned retries = 0;
    while (delivered < records.size()) {
        const util::Status status = (*sink)->Append(records[delivered]);
        if (status.ok())
            ++delivered;
        else
            ++retries;  // same record goes again: nothing was consumed
    }
    ASSERT_TRUE((*sink)->Close().ok());
    EXPECT_EQ(retries, 1u);
    EXPECT_EQ(vfs.faults_fired(), 1u);

    // Despite the mid-stream failure and retry: no duplicate, no gap.
    std::vector<Record> back;
    const ScanReport report = ScanFile(mem, &back);
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(back, records);
}

TEST(Container, FailedChunkFlushLeavesTheTriggeringRecordUnconsumed)
{
    // Default 512-record chunks: the first Append writes the header
    // (write 1), records 1..512 pack into the open chunk, and record 513
    // finds the chunk full and flushes it (write 2), which fails here.
    const std::vector<Record> records = TestRecords(1200);
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, Schedule("op fail-write 2 io\n"));
    util::StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(kTrace, {}, vfs);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    for (uint32_t i = 0; i < 512; ++i)
        ASSERT_TRUE((*sink)->Append(records[i]).ok()) << i;
    EXPECT_EQ((*sink)->Append(records[512]).code(),
              util::StatusCode::kIoError);
    EXPECT_EQ((*sink)->count(), 512u);
    EXPECT_EQ((*sink)->bytes_written(), kAtf2HeaderBytes);
    for (uint32_t i = 512; i < records.size(); ++i)
        ASSERT_TRUE((*sink)->Append(records[i]).ok()) << i;
    ASSERT_TRUE((*sink)->Close().ok());
    EXPECT_EQ(vfs.faults_fired(), 1u);

    // The retried capture is the file a fault-free one writes.
    io::MemVfs clean;
    util::StatusOr<std::unique_ptr<FileSink>> reference =
        FileSink::Open(kTrace, {}, clean);
    ASSERT_TRUE(reference.ok());
    for (const Record& r : records)
        ASSERT_TRUE((*reference)->Append(r).ok());
    ASSERT_TRUE((*reference)->Close().ok());
    EXPECT_EQ(mem.ReadAll(kTrace).value(), clean.ReadAll(kTrace).value());
}

TEST(Container, AppendAfterSealOrCloseIsFailedPrecondition)
{
    // A sealed writer refuses records even with room in its open chunk.
    io::MemVfs mem;
    util::StatusOr<std::unique_ptr<io::WritableFile>> out =
        mem.Create(kTrace);
    ASSERT_TRUE(out.ok());
    Atf2Writer writer(**out);
    ASSERT_TRUE(writer.Append(TestRecord(0)).ok());
    ASSERT_TRUE(writer.Seal().ok());
    EXPECT_EQ(writer.Append(TestRecord(1)).code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_EQ(writer.records(), 1u);

    // A FileSink whose Close failed leaves its writer started, unsealed
    // and with room, yet it refuses records too.
    io::MemVfs faulty;
    io::ChaosVfs vfs(faulty, Schedule("op fail-write 2 io\n"));
    util::StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(kTrace, {}, vfs);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Append(TestRecord(0)).ok());
    EXPECT_FALSE((*sink)->Close().ok());  // the final chunk's flush fails
    EXPECT_EQ((*sink)->Append(TestRecord(1)).code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_EQ((*sink)->count(), 1u);
}

TEST(Container, CrashTruncationLeavesRecoverablePrefix)
{
    // The capture syncs once chunk 0 is out (a checkpoint would), then
    // the power dies before chunk 1's flush lands: after the reboot the
    // durable file is the header plus chunk 0, and nothing past it.
    io::MemVfs mem;
    io::ChaosVfs vfs(mem, Schedule("op power-cut-write 3\n"));
    util::StatusOr<std::unique_ptr<FileSink>> sink =
        FileSink::Open(kTrace, {.chunk_records = 4}, vfs);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    const std::vector<Record> records = TestRecords(10);
    // A full chunk is flushed by the next append: record 4 sends chunk 0.
    for (uint32_t i = 0; i < 5; ++i)
        ASSERT_TRUE((*sink)->Append(records[i]).ok());
    ASSERT_TRUE((*sink)->SaveState().ok());
    util::Status status;
    for (uint32_t i = 5; i < records.size() && status.ok(); ++i)
        status = (*sink)->Append(records[i]);
    EXPECT_FALSE(status.ok());
    ASSERT_TRUE(vfs.power_cut_fired());
    EXPECT_FALSE((*sink)->Close().ok());

    io::MemVfs rebooted(vfs.snapshot());
    std::vector<Record> back;
    const ScanReport report = ScanFile(rebooted, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_FALSE(report.sealed);
    EXPECT_EQ(report.records_salvaged, 4u);
    EXPECT_EQ(back, TestRecords(4));
}

TEST(Container, InFlightFlipIsDetected)
{
    io::MemVfs mem;
    // Byte 20 of chunk 1's flush: inside its payload.
    io::ChaosVfs vfs(mem, Schedule("op flip-write 3 20\n"));
    ASSERT_TRUE(WriteFile(vfs, TestRecords(10)).ok());
    EXPECT_EQ(vfs.faults_fired(), 1u);

    const ScanReport report = ScanFile(mem);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_bad, 1u);
    EXPECT_EQ(report.records_salvaged, 6u);
}

TEST(Container, FailedReadIsReportedNotFatal)
{
    io::MemVfs mem;
    ASSERT_TRUE(WriteFile(mem, TestRecords(10)).ok());
    io::ChaosVfs vfs(mem, Schedule("op fail-read 1 io\n"));
    const ScanReport report = ScanFile(vfs);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);
    ASSERT_FALSE(report.issues.empty());
    EXPECT_NE(report.issues[0].error.find("read failed"), std::string::npos);
}

TEST(Container, InterruptedReadIsRetried)
{
    io::MemVfs mem;
    ASSERT_TRUE(WriteFile(mem, TestRecords(10)).ok());
    io::ChaosVfs vfs(mem, Schedule("op fail-read 1 intr\n"));
    std::vector<Record> back;
    const ScanReport report = ScanFile(vfs, &back);
    EXPECT_EQ(vfs.faults_fired(), 1u);
    EXPECT_TRUE(report.intact()) << report.ToString();
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(back, TestRecords(10));
}

TEST(Container, SalvageOfDamagedFileVerifiesIntact)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1 + 20] ^= 0x80;

    std::vector<Record> salvaged;
    const ScanReport damaged = Scan(bytes, &salvaged);
    ASSERT_FALSE(damaged.intact());
    ASSERT_GE(salvaged.size(), damaged.valid_prefix_records);

    std::vector<Record> back;
    const ScanReport report = Scan(Atf2Bytes(salvaged), &back);
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(back, salvaged);
}

// ---------------------------------------------------------------------------
// File-backed sink/source behavior.

TEST(Container, FileSinkDoubleCloseIsIdempotent)
{
    const std::string path = TempPath("double_close.atf");
    auto sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    for (uint32_t i = 0; i < 5; ++i)
        ASSERT_TRUE((*sink)->Append(TestRecord(i)).ok());

    EXPECT_TRUE((*sink)->Close().ok());
    EXPECT_TRUE((*sink)->Close().ok());  // second close: same outcome
    EXPECT_EQ((*sink)->count(), 5u);

    const util::Status late = (*sink)->Append(TestRecord(9));
    EXPECT_EQ(late.code(), util::StatusCode::kFailedPrecondition);

    auto loaded = LoadTrace(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, TestRecords(5));
    std::remove(path.c_str());
}

TEST(Container, FileSinkOpenFailureIsStatusNotFatal)
{
    auto sink = FileSink::Open("/nonexistent/dir/trace.atf");
    ASSERT_FALSE(sink.ok());
    // The posix wrappers classify ENOENT precisely (it still maps to
    // exit 3 in the tools' shared contract, like every I/O failure).
    EXPECT_EQ(sink.status().code(), util::StatusCode::kNotFound);
}

TEST(Container, LoadTraceOnDamagedFileIsDataLoss)
{
    const std::string path = TempPath("damaged.atf");
    {
        auto out = FileByteSink::Open(path);
        ASSERT_TRUE(out.ok());
        std::vector<uint8_t> bytes = SealedContainer(10);
        bytes[kChunk0 + 20] ^= 0x01;
        ASSERT_TRUE((*out)->Write(bytes.data(), bytes.size()).ok());
        ASSERT_TRUE((*out)->Close().ok());
    }
    auto loaded = LoadTrace(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("salvageable"),
              std::string::npos);

    // The tolerant scanner still serves the islands.
    auto in = FileByteSource::Open(path);
    ASSERT_TRUE(in.ok());
    std::vector<Record> islands;
    const ScanReport report = ScanTrace(**in, &islands);
    EXPECT_TRUE(report.recognized);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(islands.size(), 6u);
    EXPECT_EQ(report.records_salvaged, 6u);
    std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// Read boundaries. The scanner reads its input in 64 KiB pieces, and every
// container above fits in one of them. The cases below put truncations,
// chunk headers, resync markers, oversized counts and read faults on and
// around the read boundaries of two larger containers, and pin for each
// the report text, the salvaged records and the number of reads.

constexpr size_t kReadBytes = 64 << 10;

/** CRC32C of `records` in their packed on-disk form. */
uint32_t
RecordsCrc(const std::vector<Record>& records)
{
    uint32_t crc = 0;
    for (const Record& r : records) {
        uint8_t packed[kRecordBytes];
        PackRecord(r, packed);
        crc = util::Crc32cExtend(crc, packed, sizeof packed);
    }
    return crc;
}

/** 25,000 records in 512-record chunks: 200,840 bytes, five reads. */
std::vector<uint8_t>
ManyChunkContainer()
{
    return Atf2Bytes(TestRecords(25000), {.chunk_records = 512});
}

/** One 20,000-record chunk: a 160,000-byte payload across three reads. */
std::vector<uint8_t>
OneChunkContainer()
{
    return Atf2Bytes(TestRecords(20000), {.chunk_records = 20000});
}

/** Offset of chunk `k` in ManyChunkContainer(). */
constexpr size_t
ManyChunkOffset(size_t k)
{
    return kAtf2HeaderBytes + k * (kAtf2ChunkHeaderBytes + 512 * 8);
}

/** `bytes` with `n` marker-free filler bytes inserted at `at`. */
std::vector<uint8_t>
WithFiller(std::vector<uint8_t> bytes, size_t at, size_t n)
{
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), n, 0xA5);
    return bytes;
}

/** A chunk header claiming `count` records, with a valid header CRC. */
std::vector<uint8_t>
ChunkHeader(uint32_t count)
{
    std::vector<uint8_t> h(kAtf2ChunkHeaderBytes, 0);
    const uint32_t fields[3] = {kAtf2ChunkMagic, count, 0};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 4; ++j)
            h[i * 4 + j] = static_cast<uint8_t>(fields[i] >> (8 * j));
    const uint32_t crc = util::Crc32c(h.data(), 12);
    for (int j = 0; j < 4; ++j)
        h[12 + j] = static_cast<uint8_t>(crc >> (8 * j));
    return h;
}

struct BoundaryCase {
    std::string name;
    std::vector<uint8_t> bytes;
    std::string schedule;  ///< ChaosVfs schedule text for the reads
};

std::vector<BoundaryCase>
BoundaryCases()
{
    const std::vector<uint8_t> many = ManyChunkContainer();
    const std::vector<uint8_t> one = OneChunkContainer();
    std::vector<BoundaryCase> cases;
    cases.push_back({"intact/many", many, ""});
    cases.push_back({"intact/one", one, ""});

    const int deltas[] = {-16, -8, -1, 0, 1, 8, 16};
    for (const auto& [label, full] :
         {std::pair{"many", &many}, std::pair{"one", &one}}) {
        for (size_t boundary = kReadBytes; boundary < full->size();
             boundary += kReadBytes) {
            for (int d : deltas) {
                const size_t len = boundary + d;
                cases.push_back({"cut-" + std::to_string(len) + "/" + label,
                                 std::vector<uint8_t>(
                                     full->begin(), full->begin() + len),
                                 ""});
            }
        }
    }

    // Filler after the file header shifts every chunk: 3816 bytes put
    // chunk 15's header across the first read boundary ([65528, 65544)).
    cases.push_back({"header-straddles/many",
                     WithFiller(many, kAtf2HeaderBytes, 3816), ""});
    // ... and 65496 bytes do the same for the one big chunk, whose
    // payload then spans four reads.
    cases.push_back({"header-straddles/one",
                     WithFiller(one, kAtf2HeaderBytes, 65496), ""});
    // 3822 bytes put chunk 15's marker at [65534, 65538); a broken chunk
    // 14 header makes the scanner find it by resynchronizing.
    {
        std::vector<uint8_t> b = WithFiller(many, kAtf2HeaderBytes, 3822);
        b[ManyChunkOffset(14) + 3822 + 12] ^= 0xFF;
        cases.push_back({"marker-straddles/many", std::move(b), ""});
    }
    cases.push_back({"filler-straddles/many",
                     WithFiller(many, ManyChunkOffset(15), 5000), ""});

    // Bytes after the footer, and after the last chunk of a file whose
    // footer is gone.
    cases.push_back({"tail-3/many", WithFiller(many, many.size(), 3), ""});
    cases.push_back(
        {"tail-70000/many", WithFiller(many, many.size(), 70000), ""});
    {
        std::vector<uint8_t> b(many.begin(), many.end() - kAtf2FooterBytes);
        cases.push_back({"unsealed-tail-3/many",
                         WithFiller(b, b.size(), 3), ""});
        cases.push_back({"unsealed-tail-70000/many",
                         WithFiller(b, b.size(), 70000), ""});
    }
    // A whole chunk gone: every chunk verifies, the footer count does not.
    {
        std::vector<uint8_t> b = many;
        b.erase(b.begin() + ManyChunkOffset(20),
                b.begin() + ManyChunkOffset(21));
        cases.push_back({"dropped-chunk/many", std::move(b), ""});
    }

    // A header-valid chunk claiming the most records a scanner believes,
    // and one claiming more.
    for (const uint32_t count :
         {kAtf2MaxChunkRecords, kAtf2MaxChunkRecords + 1}) {
        std::vector<uint8_t> b = many;
        const std::vector<uint8_t> h = ChunkHeader(count);
        b.insert(b.begin() + ManyChunkOffset(4), h.begin(), h.end());
        cases.push_back({"count-" + std::to_string(count) + "/many",
                         std::move(b), ""});
    }

    // Read k fails, for every read of the file; interrupted reads are
    // retried by FileByteSource.
    for (int k = 1; k <= 5; ++k) {
        for (const char* error : {"io", "intr"}) {
            cases.push_back({"fail-read-" + std::to_string(k) + "-" +
                                 error + "/many",
                             many,
                             "op fail-read " + std::to_string(k) + " " +
                                 error + "\n"});
        }
    }
    return cases;
}

struct BoundaryPin {
    uint32_t report_crc;   ///< CRC32C of ScanReport::ToString()
    uint32_t records_crc;  ///< RecordsCrc of the salvaged records
    uint64_t records;
    uint64_t reads;        ///< ChaosVfs read ops

    bool operator==(const BoundaryPin&) const = default;
};

TEST(Container, ScanAcrossReadBoundariesIsPinned)
{
    // Measured on the whole-file scanner this lock was written against.
    const std::map<std::string, BoundaryPin> pins = {
        {"intact/many", {0x05e5e80b, 0xf85c0913, 25000, 5}},
        {"intact/one", {0xdb953816, 0x440e08ab, 20000, 4}},
        {"cut-65520/many", {0xd6f2eb22, 0x13d09b7f, 7680, 2}},
        {"cut-65528/many", {0x943af56e, 0x13d09b7f, 7680, 2}},
        {"cut-65535/many", {0xd9f55149, 0x13d09b7f, 7680, 2}},
        {"cut-65536/many", {0x0b4e8c16, 0x13d09b7f, 7680, 2}},
        {"cut-65537/many", {0x47bdb339, 0x13d09b7f, 7680, 3}},
        {"cut-65544/many", {0x2cd2a906, 0x13d09b7f, 7680, 3}},
        {"cut-65552/many", {0x40456923, 0x13d09b7f, 7680, 3}},
        {"cut-131056/many", {0xc7995e4a, 0x4bfbc0e7, 15872, 3}},
        {"cut-131064/many", {0x9eea5de0, 0x4bfbc0e7, 15872, 3}},
        {"cut-131071/many", {0xa6a6f894, 0x4bfbc0e7, 15872, 3}},
        {"cut-131072/many", {0x1b20991c, 0x4bfbc0e7, 15872, 3}},
        {"cut-131073/many", {0x705d4664, 0x4bfbc0e7, 15872, 4}},
        {"cut-131080/many", {0x6bc0ca07, 0x4bfbc0e7, 15872, 4}},
        {"cut-131088/many", {0x3e1aaad4, 0x4bfbc0e7, 15872, 4}},
        {"cut-196592/many", {0xfde9e3d0, 0x8b26e0a5, 24064, 4}},
        {"cut-196600/many", {0x9fa63f93, 0x8b26e0a5, 24064, 4}},
        {"cut-196607/many", {0xaf841110, 0x8b26e0a5, 24064, 4}},
        {"cut-196608/many", {0xe86d8774, 0x8b26e0a5, 24064, 4}},
        {"cut-196609/many", {0x8310580c, 0x8b26e0a5, 24064, 5}},
        {"cut-196616/many", {0x07c7c320, 0x8b26e0a5, 24064, 5}},
        {"cut-196624/many", {0x641dedf5, 0x8b26e0a5, 24064, 5}},
        {"cut-65520/one", {0xb484e342, 0x00000000, 0, 2}},
        {"cut-65528/one", {0xf74ca29c, 0x00000000, 0, 2}},
        {"cut-65535/one", {0x0965e9e3, 0x00000000, 0, 2}},
        {"cut-65536/one", {0xe0df303a, 0x00000000, 0, 2}},
        {"cut-65537/one", {0x777b967d, 0x00000000, 0, 3}},
        {"cut-65544/one", {0x73820d4e, 0x00000000, 0, 3}},
        {"cut-65552/one", {0xf7581d29, 0x00000000, 0, 3}},
        {"cut-131056/one", {0xbe92d8b9, 0x00000000, 0, 3}},
        {"cut-131064/one", {0x60737cb9, 0x00000000, 0, 3}},
        {"cut-131071/one", {0x1c70cc87, 0x00000000, 0, 3}},
        {"cut-131072/one", {0x39d31a46, 0x00000000, 0, 3}},
        {"cut-131073/one", {0x605c0da9, 0x00000000, 0, 4}},
        {"cut-131080/one", {0x6a097030, 0x00000000, 0, 4}},
        {"cut-131088/one", {0xa65b474f, 0x00000000, 0, 4}},
        {"header-straddles/many", {0x259ec841, 0xf85c0913, 25000, 5}},
        {"header-straddles/one", {0x9695c1c0, 0x440e08ab, 20000, 5}},
        {"marker-straddles/many", {0x5e751051, 0x5f96479c, 24488, 5}},
        {"filler-straddles/many", {0x5a8f4ed7, 0xf85c0913, 25000, 5}},
        {"tail-3/many", {0x733bb63f, 0xf85c0913, 25000, 5}},
        {"tail-70000/many", {0x257836ca, 0xf85c0913, 25000, 6}},
        {"unsealed-tail-3/many", {0x997a944d, 0xf85c0913, 25000, 5}},
        {"unsealed-tail-70000/many", {0x6c917da9, 0xf85c0913, 25000, 6}},
        {"dropped-chunk/many", {0x819a052a, 0x4ff7fd04, 24488, 5}},
        {"count-1048576/many", {0x1bed8c1f, 0x66ea4d44, 2048, 5}},
        {"count-1048577/many", {0xd65258d5, 0xf85c0913, 25000, 5}},
        {"fail-read-1-io/many", {0xeec5f33f, 0x00000000, 0, 1}},
        {"fail-read-1-intr/many", {0x05e5e80b, 0xf85c0913, 25000, 6}},
        {"fail-read-2-io/many", {0x6a25fe14, 0x13d09b7f, 7680, 2}},
        {"fail-read-2-intr/many", {0x05e5e80b, 0xf85c0913, 25000, 6}},
        {"fail-read-3-io/many", {0x9fdba75d, 0x4bfbc0e7, 15872, 3}},
        {"fail-read-3-intr/many", {0x05e5e80b, 0xf85c0913, 25000, 6}},
        {"fail-read-4-io/many", {0x419d3180, 0x8b26e0a5, 24064, 4}},
        {"fail-read-4-intr/many", {0x05e5e80b, 0xf85c0913, 25000, 6}},
        {"fail-read-5-io/many", {0x612de669, 0xf85c0913, 25000, 5}},
        {"fail-read-5-intr/many", {0x05e5e80b, 0xf85c0913, 25000, 6}},
    };

    for (const BoundaryCase& c : BoundaryCases()) {
        std::vector<Record> back;
        std::string report_text[2];
        uint64_t reads = 0;
        for (int pass = 0; pass < 2; ++pass) {
            io::MemVfs mem(io::MemVfs::Snapshot{{{kTrace, c.bytes}}});
            io::ChaosVfs vfs(mem, Schedule(c.schedule.c_str()));
            report_text[pass] =
                ScanFile(vfs, pass == 0 ? &back : nullptr).ToString();
            reads = vfs.counts().reads;
        }
        EXPECT_EQ(report_text[0], report_text[1]) << c.name;

        const BoundaryPin got{
            util::Crc32c(report_text[0].data(), report_text[0].size()),
            RecordsCrc(back), back.size(), reads};
        const auto pin = pins.find(c.name);
        const bool same = pin != pins.end() &&
                          pin->second.report_crc == got.report_crc &&
                          pin->second.records_crc == got.records_crc &&
                          pin->second.records == got.records &&
                          pin->second.reads == got.reads;
        char row[160];
        std::snprintf(row, sizeof row, "{\"%s\", {0x%08x, 0x%08x, %llu, %llu}},",
                      c.name.c_str(), got.report_crc, got.records_crc,
                      static_cast<unsigned long long>(got.records),
                      static_cast<unsigned long long>(got.reads));
        EXPECT_TRUE(same) << "pin row now reads\n        " << row << "\n"
                          << report_text[0];
    }
}

TEST(Container, ReadAheadScanOfEachBoundaryCaseIsRepeatable)
{
    // Every read after the first full one is made by the scanner's reader
    // thread. Whatever its timing against the parse, each boundary case
    // gives the same report, records and number of reads on every run.
    for (const BoundaryCase& c : BoundaryCases()) {
        BoundaryPin first{};
        for (int run = 0; run < 20; ++run) {
            io::MemVfs mem(io::MemVfs::Snapshot{{{kTrace, c.bytes}}});
            io::ChaosVfs vfs(mem, Schedule(c.schedule.c_str()));
            std::vector<Record> back;
            const std::string text = ScanFile(vfs, &back).ToString();
            const BoundaryPin got{util::Crc32c(text.data(), text.size()),
                                  RecordsCrc(back), back.size(),
                                  vfs.counts().reads};
            if (run == 0)
                first = got;
            else
                ASSERT_TRUE(got == first) << c.name << ", run " << run;
        }
    }
}

TEST(Container, ScanThatStopsEarlyStillReadsToTheEnd)
{
    // The parse of each of these multi-read files stops well before its
    // end: at foreign bytes, at an unsupported version in a valid header,
    // and at framing lost for good after three chunks. The scan still
    // reads the whole file, through the read that returns 0.
    const std::vector<uint8_t> many = ManyChunkContainer();
    std::vector<uint8_t> foreign(many.size(), 0xA5);
    std::vector<uint8_t> version = many;
    version[8] = 3;
    const uint32_t header_crc = util::Crc32c(version.data(), 28);
    for (int j = 0; j < 4; ++j)
        version[28 + j] = static_cast<uint8_t>(header_crc >> (8 * j));
    std::vector<uint8_t> lost = many;
    std::fill(lost.begin() + ManyChunkOffset(3), lost.end(), 0xA5);

    const struct {
        const char* name;
        const std::vector<uint8_t>& bytes;
        const char* first_issue;
    } cases[] = {
        {"foreign", foreign, "unknown magic"},
        {"version", version, "unsupported container version 3"},
        {"lost framing", lost, "lost framing; no further chunk markers"},
    };
    for (const auto& c : cases) {
        io::MemVfs mem(io::MemVfs::Snapshot{{{kTrace, c.bytes}}});
        io::ChaosVfs vfs(mem, io::ChaosSchedule{});
        const ScanReport report = ScanFile(vfs);
        ASSERT_FALSE(report.issues.empty()) << c.name;
        EXPECT_EQ(report.issues[0].error.rfind(c.first_issue, 0), 0u)
            << c.name << ": " << report.issues[0].error;
        EXPECT_EQ(report.file_bytes, c.bytes.size()) << c.name;
        EXPECT_EQ(vfs.counts().reads, c.bytes.size() / kReadBytes + 2)
            << c.name;
    }
}

TEST(Container, NoReadAfterScanTraceReturns)
{
    // A failed read is the last read, and ScanTrace returns only after
    // the reader thread has made it: the counts it leaves are final.
    const std::vector<uint8_t> bytes = ManyChunkContainer();
    for (int k = 1; k <= 5; ++k) {
        io::MemVfs mem(io::MemVfs::Snapshot{{{kTrace, bytes}}});
        io::ChaosVfs vfs(
            mem, Schedule(("op fail-read " + std::to_string(k) + " io\n")
                              .c_str()));
        std::vector<Record> back;
        const ScanReport report = ScanFile(vfs, &back);
        const uint64_t reads = vfs.counts().reads;
        EXPECT_FALSE(report.read_status.ok()) << "read " << k;
        EXPECT_EQ(reads, static_cast<uint64_t>(k));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(vfs.counts().reads, reads) << "read " << k;
    }
}

/** A file over `bytes` that notes which thread made each Read. */
class ThreadNotingFile : public io::ReadableFile
{
  public:
    explicit ThreadNotingFile(std::vector<uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    util::StatusOr<size_t> Read(void* data, size_t len) override
    {
        readers.push_back(std::this_thread::get_id());
        const size_t n = std::min(len, bytes_.size() - pos_);
        if (n > 0)
            std::memcpy(data, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }
    util::StatusOr<uint64_t> Size() override { return bytes_.size(); }

    std::vector<std::thread::id> readers;  ///< one entry per Read

  private:
    std::vector<uint8_t> bytes_;
    size_t pos_ = 0;
};

TEST(Container, ReaderThreadStartsOnlyAfterAFullRead)
{
    // Reads are made on the scan's own thread until one fills a whole
    // 64 KiB read, so a file that fits one read starts no thread; every
    // read after the first full one is made by one reader thread.
    const std::vector<uint8_t> many = ManyChunkContainer();
    const struct {
        const char* name;
        std::vector<uint8_t> bytes;
        size_t inline_reads;
    } cases[] = {
        {"empty", {}, 1},
        {"one read", SealedContainer(10), 2},
        {"one read less a byte",
         std::vector<uint8_t>(many.begin(), many.begin() + kReadBytes - 1),
         2},
        {"exactly one read",
         std::vector<uint8_t>(many.begin(), many.begin() + kReadBytes), 1},
        {"many reads", many, 1},
    };
    for (const auto& c : cases) {
        ThreadNotingFile in(c.bytes);
        ScanTrace(in, nullptr);
        // Each whole read, a short last one if any, and the one that
        // returns 0.
        const size_t reads = c.bytes.size() / kReadBytes +
                             (c.bytes.size() % kReadBytes != 0) + 1;
        ASSERT_EQ(in.readers.size(), reads) << c.name;
        for (size_t i = 0; i < reads; ++i) {
            const bool on_caller = in.readers[i] == std::this_thread::get_id();
            EXPECT_EQ(on_caller, i < c.inline_reads)
                << c.name << ", read " << i;
            if (i > c.inline_reads) {
                EXPECT_EQ(in.readers[i], in.readers[c.inline_reads])
                    << c.name << ", read " << i;
            }
        }
    }
}

TEST(Container, LoadTraceReturnsTheFailedReadStatus)
{
    // An unreadable file is an I/O error (exit 3), not a foreign file or
    // a damaged one (exit 4), wherever in the file the read fails.
    const std::vector<uint8_t> bytes = ManyChunkContainer();
    for (int k = 1; k <= 5; ++k) {
        io::MemVfs mem(io::MemVfs::Snapshot{{{kTrace, bytes}}});
        io::ChaosVfs vfs(
            mem, Schedule(("op fail-read " + std::to_string(k) + " io\n")
                              .c_str()));
        const util::StatusOr<std::vector<Record>> loaded =
            LoadTrace(kTrace, vfs);
        ASSERT_FALSE(loaded.ok()) << "read " << k;
        EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError)
            << "read " << k << ": " << loaded.status().ToString();
        EXPECT_EQ(util::ExitCodeFor(loaded.status()), util::kExitIo);
    }
}

TEST(Container, ScanInvariantsHoldUnderSeededMutations)
{
    // Flips, truncations, splices and duplicated chunks of the many-chunk
    // container; the same check the libFuzzer harness runs.
    const std::vector<uint8_t> base = ManyChunkContainer();
    const size_t chunk_bytes = ManyChunkOffset(1) - ManyChunkOffset(0);
    for (uint64_t seed = 1; seed <= 5000; ++seed) {
        Rng rng(seed);
        std::vector<uint8_t> b = base;
        for (uint32_t m = rng.Range(1, 3); m > 0; --m) {
            const uint32_t size = static_cast<uint32_t>(b.size());
            if (size == 0)
                break;
            switch (rng.Below(4)) {
              case 0:  // flip up to 8 bytes
                for (uint32_t i = rng.Range(1, 8); i > 0; --i)
                    b[rng.Below(size)] ^=
                        static_cast<uint8_t>(rng.Range(1, 255));
                break;
              case 1:  // truncate
                b.resize(rng.Below(size));
                break;
              case 2: {  // splice a copied range in somewhere else
                const uint32_t from = rng.Below(size);
                const uint32_t len =
                    std::min(rng.Range(1, 8192), size - from);
                const std::vector<uint8_t> piece(b.begin() + from,
                                                 b.begin() + from + len);
                b.insert(b.begin() + rng.Below(size + 1), piece.begin(),
                         piece.end());
                break;
              }
              default: {  // duplicate a whole chunk at a chunk boundary
                const size_t chunks = (base.size() - kAtf2HeaderBytes) /
                                      chunk_bytes;
                const size_t from =
                    ManyChunkOffset(rng.Below(static_cast<uint32_t>(chunks)));
                const size_t at =
                    ManyChunkOffset(rng.Below(static_cast<uint32_t>(chunks)));
                if (from + chunk_bytes > b.size() || at > b.size())
                    break;
                const std::vector<uint8_t> piece(b.begin() + from,
                                                 b.begin() + from +
                                                     chunk_bytes);
                b.insert(b.begin() + at, piece.begin(), piece.end());
              }
            }
        }
        const std::string broken = CheckScanInvariants(b);
        ASSERT_EQ(broken, "") << "seed " << seed;
    }
}

}  // namespace
}  // namespace atum::trace
