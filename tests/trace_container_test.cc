// Corruption matrix for the ATF2 container: every truncation point,
// bit flips in every chunk position, crash-model truncation, legacy v1
// handling, and faults injected at the Vfs seam. No test here may
// kill the process — malformed file input must always come back as a
// Status or a damage report.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
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

/** A sealed container of `n` records, 4 records per chunk. */
std::vector<uint8_t>
SealedContainer(uint32_t n)
{
    MemoryByteSink sink;
    EXPECT_TRUE(WriteAtf2(sink, TestRecords(n), {.chunk_records = 4}).ok());
    return sink.bytes();
}

ScanReport
Scan(const std::vector<uint8_t>& bytes, std::vector<Record>* out = nullptr)
{
    MemoryByteSource source(bytes);
    return ScanTrace(source, out);
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
    MemoryByteSink sink;
    ASSERT_TRUE(WriteAtf2(sink, {}, {.chunk_records = 4}).ok());
    const ScanReport report = Scan(sink.bytes());
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

constexpr char kTrace[] = "trace.atf2";

io::ChaosSchedule
Schedule(const char* text)
{
    util::StatusOr<io::ChaosSchedule> schedule =
        io::ChaosSchedule::Parse(text);
    EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
    return schedule.ok() ? *schedule : io::ChaosSchedule{};
}

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

TEST(Container, SalvageOfDamagedFileVerifiesIntact)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1 + 20] ^= 0x80;

    std::vector<Record> salvaged;
    const ScanReport damaged = Scan(bytes, &salvaged);
    ASSERT_FALSE(damaged.intact());
    ASSERT_GE(salvaged.size(), damaged.valid_prefix_records);

    MemoryByteSink repaired;
    ASSERT_TRUE(WriteAtf2(repaired, salvaged).ok());
    std::vector<Record> back;
    const ScanReport report = Scan(repaired.bytes(), &back);
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

}  // namespace
}  // namespace atum::trace
