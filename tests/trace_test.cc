// Unit tests for the trace library: record packing, sinks, file
// round-trips, and the trace statistics accumulator.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "trace/compress.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "trace/stats.h"

namespace atum::trace {
namespace {

std::string
TempPath(const char* name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Record, FlagsEncodeKernelAndSize)
{
    EXPECT_EQ(MakeFlags(false, 1), 0x00);
    EXPECT_EQ(MakeFlags(true, 1), 0x01);
    EXPECT_EQ(MakeFlags(false, 2), 0x02);
    EXPECT_EQ(MakeFlags(true, 4), 0x05);

    Record r;
    r.flags = MakeFlags(true, 4);
    EXPECT_TRUE(r.kernel());
    EXPECT_EQ(r.size(), 4);
    r.flags = MakeFlags(false, 2);
    EXPECT_FALSE(r.kernel());
    EXPECT_EQ(r.size(), 2);
}

TEST(RecordDeath, BadSizePanics)
{
    EXPECT_DEATH(MakeFlags(false, 3), "unsupported access size");
}

TEST(Record, FromMemAccessMapsKinds)
{
    ucode::MemAccess a;
    a.vaddr = 0x1234;
    a.size = 4;
    a.kernel = true;

    a.kind = ucode::MemAccessKind::kIFetch;
    EXPECT_EQ(FromMemAccess(a).type, RecordType::kIFetch);
    a.kind = ucode::MemAccessKind::kRead;
    EXPECT_EQ(FromMemAccess(a).type, RecordType::kRead);
    a.kind = ucode::MemAccessKind::kWrite;
    EXPECT_EQ(FromMemAccess(a).type, RecordType::kWrite);
    a.kind = ucode::MemAccessKind::kPte;
    EXPECT_EQ(FromMemAccess(a).type, RecordType::kPte);

    const Record r = FromMemAccess(a);
    EXPECT_EQ(r.addr, 0x1234u);
    EXPECT_TRUE(r.kernel());
    EXPECT_TRUE(r.IsMemory());
}

TEST(Record, MarkersAreNotMemory)
{
    EXPECT_FALSE(MakeCtxSwitch(2, 0x100).IsMemory());
    EXPECT_FALSE(MakeException(5).IsMemory());
    EXPECT_FALSE(MakeTlbMiss(0x1000, false).IsMemory());
    EXPECT_EQ(MakeCtxSwitch(2, 0x100).info, 2u);
    EXPECT_EQ(MakeException(5).info, 5u);
}

TEST(Record, PackUnpackRoundTrip)
{
    Record r;
    r.addr = 0xdeadbeef;
    r.type = RecordType::kWrite;
    r.flags = MakeFlags(true, 4);
    r.info = 0xabcd;
    uint8_t buf[kRecordBytes];
    PackRecord(r, buf);
    EXPECT_EQ(UnpackRecord(buf), r);
    // Little-endian layout.
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[3], 0xde);
    EXPECT_EQ(buf[4], static_cast<uint8_t>(RecordType::kWrite));
    EXPECT_EQ(buf[6], 0xcd);
    EXPECT_EQ(buf[7], 0xab);
}

TEST(Sinks, VectorSinkCollects)
{
    VectorSink sink;
    sink.Append(MakeException(1));
    sink.Append(MakeException(2));
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[1].info, 2u);
}

TEST(Sinks, CountingSinkCounts)
{
    CountingSink sink;
    for (int i = 0; i < 7; ++i)
        sink.Append(MakeException(0));
    EXPECT_EQ(sink.count(), 7u);
}

TEST(Sinks, FileRoundTrip)
{
    const std::string path = TempPath("roundtrip.atum");
    std::vector<Record> records;
    for (uint32_t i = 0; i < 100; ++i) {
        Record r;
        r.addr = i * 4;
        r.type = i % 2 ? RecordType::kRead : RecordType::kWrite;
        r.flags = MakeFlags(i % 3 == 0, 4);
        r.info = static_cast<uint16_t>(i);
        records.push_back(r);
    }
    {
        auto sink = FileSink::Open(path);
        ASSERT_TRUE(sink.ok());
        for (const Record& r : records)
            ASSERT_TRUE((*sink)->Append(r).ok());
        ASSERT_TRUE((*sink)->Close().ok());
    }
    auto back = LoadTrace(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, records);
    std::remove(path.c_str());
}

TEST(Sinks, BadMagicIsInvalidArgument)
{
    const std::string path = TempPath("notatrace.bin");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("garbage!", 1, 8, f);
    std::fclose(f);
    auto loaded = LoadTrace(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    std::remove(path.c_str());
}

TEST(Sinks, MissingFileIsNotFound)
{
    auto loaded = LoadTrace("/nonexistent/path/x.atum");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(Stats, CountsByType)
{
    TraceStats stats;
    ucode::MemAccess a;
    a.size = 4;
    a.kind = ucode::MemAccessKind::kIFetch;
    stats.Accumulate(FromMemAccess(a));
    a.kind = ucode::MemAccessKind::kRead;
    stats.Accumulate(FromMemAccess(a));
    a.kind = ucode::MemAccessKind::kWrite;
    a.kernel = true;
    stats.Accumulate(FromMemAccess(a));
    stats.Accumulate(MakeException(3));

    EXPECT_EQ(stats.total(), 4u);
    EXPECT_EQ(stats.mem_refs(), 3u);
    EXPECT_EQ(stats.kernel_refs(), 1u);
    EXPECT_EQ(stats.user_refs(), 2u);
    EXPECT_EQ(stats.CountOf(RecordType::kException), 1u);
    EXPECT_DOUBLE_EQ(stats.KernelFraction(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(stats.WriteFraction(), 0.5);
}

TEST(Stats, TracksPidAttribution)
{
    TraceStats stats;
    ucode::MemAccess a;
    a.size = 4;
    a.kind = ucode::MemAccessKind::kRead;
    stats.Accumulate(FromMemAccess(a));  // pid 0 (pre-switch)
    stats.Accumulate(MakeCtxSwitch(1, 0));
    stats.Accumulate(FromMemAccess(a));
    stats.Accumulate(FromMemAccess(a));
    stats.Accumulate(MakeCtxSwitch(2, 0));
    stats.Accumulate(FromMemAccess(a));

    EXPECT_EQ(stats.context_switches(), 2u);
    EXPECT_EQ(stats.refs_by_pid().at(0), 1u);
    EXPECT_EQ(stats.refs_by_pid().at(1), 2u);
    EXPECT_EQ(stats.refs_by_pid().at(2), 1u);
    EXPECT_EQ(stats.switch_interval_refs().count(), 2u);
}

TEST(Stats, CopiesKeepCountingPerPid)
{
    // A copy taken between switches carries the running pid's pending
    // count, and both copies go on counting on their own.
    ucode::MemAccess a;
    a.size = 4;
    a.kind = ucode::MemAccessKind::kRead;
    TraceStats stats;
    stats.Accumulate(MakeCtxSwitch(3, 0));
    stats.Accumulate(FromMemAccess(a));
    stats.Accumulate(MakeCtxSwitch(4, 0));
    stats.Accumulate(FromMemAccess(a));
    TraceStats copy = stats;
    stats.Accumulate(FromMemAccess(a));
    copy.Accumulate(MakeCtxSwitch(3, 0));
    copy.Accumulate(FromMemAccess(a));
    copy.Accumulate(FromMemAccess(a));

    const std::map<uint16_t, uint64_t> want_stats = {{3, 1}, {4, 2}};
    const std::map<uint16_t, uint64_t> want_copy = {{3, 3}, {4, 1}};
    EXPECT_EQ(stats.refs_by_pid(), want_stats);
    EXPECT_EQ(copy.refs_by_pid(), want_copy);
    EXPECT_EQ(stats.mem_refs(), 3u);
    EXPECT_EQ(copy.mem_refs(), 4u);
}

TEST(Stats, ToStringMentionsCounts)
{
    TraceStats stats;
    ucode::MemAccess a;
    a.size = 4;
    a.kind = ucode::MemAccessKind::kRead;
    stats.Accumulate(FromMemAccess(a));
    const std::string s = stats.ToString();
    EXPECT_NE(s.find("memory refs:    1"), std::string::npos);
}


/** DecompressTrace on a stream that must decode. */
std::vector<Record>
MustDecompress(const std::vector<uint8_t>& bytes)
{
    util::StatusOr<std::vector<Record>> out = DecompressTrace(bytes);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? std::move(out).value() : std::vector<Record>{};
}

TEST(Compress, EmptyTrace)
{
    EXPECT_TRUE(CompressTrace({}).empty());
    EXPECT_TRUE(MustDecompress({}).empty());
}

TEST(Compress, RoundTripMixedRecords)
{
    std::vector<Record> records;
    ucode::MemAccess a;
    a.size = 4;
    for (uint32_t i = 0; i < 64; ++i) {
        a.vaddr = 0x1000 + 4 * i;
        a.kind = ucode::MemAccessKind::kIFetch;
        a.kernel = i % 2;
        records.push_back(FromMemAccess(a));
        a.vaddr = 0x80000000 + 512 * i;
        a.kind = ucode::MemAccessKind::kWrite;
        records.push_back(FromMemAccess(a));
    }
    records.push_back(MakeCtxSwitch(3, 0xc00));
    records.push_back(MakeException(9));
    records.push_back(MakeTlbMiss(0x40000123, false));

    const auto bytes = CompressTrace(records);
    EXPECT_EQ(MustDecompress(bytes), records);
}

TEST(Compress, SequentialStreamBeatsRawFormat)
{
    // A sequential istream compresses to ~2 bytes/record.
    TraceCompressor compressor;
    ucode::MemAccess a;
    a.size = 4;
    a.kind = ucode::MemAccessKind::kIFetch;
    for (uint32_t i = 0; i < 10000; ++i) {
        a.vaddr = 0x2000 + 4 * i;
        compressor.Append(FromMemAccess(a));
    }
    EXPECT_LT(compressor.BytesPerRecord(), 2.5);
    EXPECT_EQ(MustDecompress(compressor.bytes()).size(), 10000u);
}

TEST(Compress, LargeDeltasStillRoundTrip)
{
    std::vector<Record> records;
    ucode::MemAccess a;
    a.size = 1;
    a.kind = ucode::MemAccessKind::kRead;
    for (uint32_t addr : {0u, 0xffffffffu, 0x80000000u, 1u, 0x7fffffffu}) {
        a.vaddr = addr;
        records.push_back(FromMemAccess(a));
    }
    EXPECT_EQ(MustDecompress(CompressTrace(records)), records);
}

TEST(Compress, TruncatedStreamIsDataLoss)
{
    auto bytes = CompressTrace({MakeCtxSwitch(1, 0)});
    bytes.pop_back();
    const auto out = DecompressTrace(bytes);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(out.status().message().find("truncated"), std::string::npos);
}

TEST(Compress, OverlongVarintIsDataLoss)
{
    // Header: a 4-byte user read (type 1, log2 size 2). A fifth varint
    // byte may carry only the top four address bits.
    const uint8_t kRead4 = 0x41;
    EXPECT_TRUE(DecompressTrace({kRead4, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}).ok());
    for (uint8_t fifth : {0x10, 0x7F, 0x80, 0xFF}) {
        const auto out =
            DecompressTrace({kRead4, 0xFF, 0xFF, 0xFF, 0xFF, fifth});
        ASSERT_FALSE(out.ok()) << "fifth byte " << unsigned{fifth};
        EXPECT_EQ(out.status().code(), util::StatusCode::kDataLoss);
        EXPECT_NE(out.status().message().find("overlong"), std::string::npos);
    }
}

TEST(Compress, BadRecordTypeIsDataLoss)
{
    for (uint8_t header : {0x0A, 0x0F, 0x4A}) {
        const auto out = DecompressTrace({header, 0x00});
        ASSERT_FALSE(out.ok()) << "header " << unsigned{header};
        EXPECT_EQ(out.status().code(), util::StatusCode::kDataLoss);
        EXPECT_NE(out.status().message().find("record type"),
                  std::string::npos);
    }
}

TEST(Compress, BadAccessSizeIsDataLoss)
{
    // log2 size 3 (an 8-byte access) is not an encoding the tracer makes.
    const auto out = DecompressTrace({0x61, 0x00});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(out.status().message().find("access size"), std::string::npos);
}

}  // namespace
}  // namespace atum::trace
