// Unit tests for the util library: bit ops, RNG determinism, statistics
// accumulators, and the table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/bitops.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace atum {
namespace {

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(IsPowerOfTwo(1));
    EXPECT_TRUE(IsPowerOfTwo(2));
    EXPECT_TRUE(IsPowerOfTwo(512));
    EXPECT_TRUE(IsPowerOfTwo(1ull << 40));
    EXPECT_FALSE(IsPowerOfTwo(0));
    EXPECT_FALSE(IsPowerOfTwo(3));
    EXPECT_FALSE(IsPowerOfTwo(513));
}

TEST(Bitops, Log2Floor)
{
    EXPECT_EQ(Log2Floor(1), 0u);
    EXPECT_EQ(Log2Floor(2), 1u);
    EXPECT_EQ(Log2Floor(3), 1u);
    EXPECT_EQ(Log2Floor(512), 9u);
    EXPECT_EQ(Log2Floor(1ull << 33), 33u);
}

TEST(Bitops, Log2FloorAtEveryPowerOfTwo)
{
    static_assert(Log2Floor(0) == 0);
    static_assert(Log2Floor(UINT64_MAX) == 63);
    EXPECT_EQ(Log2Floor(0), 0u);
    EXPECT_EQ(Log2Floor(1), 0u);
    for (unsigned k = 1; k < 64; ++k) {
        const uint64_t p = uint64_t{1} << k;
        EXPECT_EQ(Log2Floor(p), k) << "2^" << k;
        EXPECT_EQ(Log2Floor(p - 1), k - 1) << "2^" << k << "-1";
    }
    EXPECT_EQ(Log2Floor(UINT64_MAX), 63u);
}

TEST(Bitops, Align)
{
    EXPECT_EQ(AlignDown(513, 512), 512u);
    EXPECT_EQ(AlignDown(512, 512), 512u);
    EXPECT_EQ(AlignUp(513, 512), 1024u);
    EXPECT_EQ(AlignUp(512, 512), 512u);
    EXPECT_EQ(AlignUp(0, 512), 0u);
}

TEST(Bitops, BitsExtract)
{
    EXPECT_EQ(Bits(0xdeadbeef, 31, 0), 0xdeadbeefu);
    EXPECT_EQ(Bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(Bits(0xdeadbeef, 3, 0), 0xfu);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(SignExtend(0x7f, 8), 127);
    EXPECT_EQ(SignExtend(0x80, 8), -128);
    EXPECT_EQ(SignExtend(0xff, 8), -1);
    EXPECT_EQ(SignExtend(0xffff, 16), -1);
    EXPECT_EQ(SignExtend(0x8000, 16), -32768);
    EXPECT_EQ(SignExtend(5, 16), 5);
}

TEST(ParseUint, DigitsThatFitOnly)
{
    EXPECT_EQ(util::ParseUint("0").value(), 0u);
    EXPECT_EQ(util::ParseUint("007").value(), 7u);
    EXPECT_EQ(util::ParseUint("18446744073709551615").value(), UINT64_MAX);
    EXPECT_EQ(util::ParseUint("4294967295", UINT32_MAX).value(), UINT32_MAX);
    for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                            "18446744073709551616"})
        EXPECT_EQ(util::ParseUint(bad).status().code(),
                  util::StatusCode::kInvalidArgument)
            << "'" << bad << "'";
    EXPECT_FALSE(util::ParseUint("4294967296", UINT32_MAX).ok());
}

TEST(SplitCommas, KeepsEmptyFields)
{
    using Parts = std::vector<std::string>;
    EXPECT_EQ(util::SplitCommas("a,,b"), (Parts{"a", "", "b"}));
    EXPECT_EQ(util::SplitCommas("a,"), (Parts{"a", ""}));
    EXPECT_EQ(util::SplitCommas(""), (Parts{""}));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.Next64(), b.Next64());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.Below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const uint32_t v = r.Range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.NextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BelowZeroPanics)
{
    Rng r(1);
    EXPECT_DEATH(r.Below(0), "bound 0");
}

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, Basic)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 6.0})
        s.Add(v);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_NEAR(s.stddev(), 1.632993, 1e-5);
}

TEST(Log2Histogram, Buckets)
{
    Log2Histogram h;
    h.Add(0);
    h.Add(1);
    h.Add(2);
    h.Add(3);
    h.Add(1024);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.BucketCount(0), 2u);  // 0 and 1
    EXPECT_EQ(h.BucketCount(1), 2u);  // 2 and 3
    EXPECT_EQ(h.BucketCount(10), 1u);
    EXPECT_EQ(h.BucketCount(5), 0u);
}

TEST(CounterSet, AddAndGet)
{
    CounterSet c;
    c.Add("a");
    c.Add("a", 4);
    c.Add("b");
    EXPECT_EQ(c.Get("a"), 5u);
    EXPECT_EQ(c.Get("b"), 1u);
    EXPECT_EQ(c.Get("missing"), 0u);
}

TEST(Table, Render)
{
    Table t({"name", "value"});
    t.AddRow({"x", "1"});
    t.AddRow({"longer", "2.5"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Table, Csv)
{
    Table t({"a", "b"});
    t.AddRow({"1", "2"});
    EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::Fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::Fmt(2.0, 0), "2");
}

TEST(Table, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.AddRow({"only-one"}), "cells");
}

TEST(Crc32c, MatchesCheckValue)
{
    // RFC 3720's CRC32C check value for "123456789".
    EXPECT_EQ(util::Crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(util::Crc32c("", 0), 0u);
}

/** Bit-at-a-time CRC32C: the definition the fast paths must match. */
uint32_t
ReferenceCrc32c(const uint8_t* data, size_t len)
{
    uint32_t crc = ~0u;
    for (size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    return ~crc;
}

TEST(Crc32c, EveryLengthAndAlignmentMatchesReference)
{
    // Both the dispatching entry point (the SSE4.2 instruction where the
    // CPU has it) and the portable slicing-by-8 path, over every length
    // that exercises the 8-byte body and the byte tail, at every start
    // offset within a word.
    constexpr size_t kMaxLen = 1100;
    Rng rng(15);
    std::vector<uint8_t> buf(kMaxLen + 8);
    for (uint8_t& b : buf)
        b = static_cast<uint8_t>(rng.Next32());
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len <= kMaxLen; ++len) {
            const uint8_t* p = buf.data() + align;
            const uint32_t want = ReferenceCrc32c(p, len);
            ASSERT_EQ(util::Crc32cExtend(0, p, len), want)
                << "len " << len << " align " << align;
            ASSERT_EQ(util::Crc32cExtendPortable(0, p, len), want)
                << "len " << len << " align " << align;
        }
    }
}

TEST(Crc32c, RandomSplitsCompose)
{
    Rng rng(16);
    std::vector<uint8_t> buf(4096);
    for (uint8_t& b : buf)
        b = static_cast<uint8_t>(rng.Next32());
    const uint32_t want = ReferenceCrc32c(buf.data(), buf.size());
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t fast = 0;
        uint32_t portable = 0;
        for (size_t pos = 0; pos < buf.size();) {
            const size_t n = std::min<size_t>(buf.size() - pos,
                                              rng.Range(0, 100));
            fast = util::Crc32cExtend(fast, buf.data() + pos, n);
            portable = util::Crc32cExtendPortable(portable, buf.data() + pos,
                                                  n);
            pos += n;
        }
        ASSERT_EQ(fast, want) << "trial " << trial;
        ASSERT_EQ(portable, want) << "trial " << trial;
    }
}

TEST(Crc32c, ExtendComposes)
{
    const char* s = "123456789";
    uint32_t crc = util::Crc32cExtend(0, s, 4);
    crc = util::Crc32cExtend(crc, s + 4, 5);
    EXPECT_EQ(crc, util::Crc32c(s, 9));
}

TEST(Crc32c, DetectsSingleBitFlip)
{
    uint8_t data[64] = {0};
    for (size_t i = 0; i < sizeof data; ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    const uint32_t clean = util::Crc32c(data, sizeof data);
    for (int bit = 0; bit < 8; ++bit) {
        data[13] ^= static_cast<uint8_t>(1 << bit);
        EXPECT_NE(util::Crc32c(data, sizeof data), clean);
        data[13] ^= static_cast<uint8_t>(1 << bit);
    }
}

TEST(Status, OkAndErrors)
{
    EXPECT_TRUE(util::OkStatus().ok());
    EXPECT_EQ(util::OkStatus().ToString(), "ok");

    const util::Status s = util::DataLoss("lost ", 42, " records");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), util::StatusCode::kDataLoss);
    EXPECT_EQ(s.message(), "lost 42 records");
    EXPECT_EQ(s.ToString(), "data-loss: lost 42 records");
}

TEST(Status, StatusOrHoldsValueOrStatus)
{
    util::StatusOr<int> ok_value(7);
    ASSERT_TRUE(ok_value.ok());
    EXPECT_EQ(*ok_value, 7);
    EXPECT_EQ(ok_value.value(), 7);

    util::StatusOr<int> err(util::NotFound("nope"));
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.status().code(), util::StatusCode::kNotFound);
}

TEST(StatusDeath, ValueOfErrorPanics)
{
    util::StatusOr<int> err(util::NotFound("nope"));
    EXPECT_DEATH(err.value(), "nope");
}

TEST(Status, ExitCodesFollowTheToolContract)
{
    EXPECT_EQ(util::ExitCodeFor(util::OkStatus()), util::kExitOk);
    EXPECT_EQ(util::ExitCodeFor(util::NotFound("x")), util::kExitIo);
    EXPECT_EQ(util::ExitCodeFor(util::IoError("x")), util::kExitIo);
    EXPECT_EQ(util::ExitCodeFor(util::Unavailable("x")),
              util::kExitUnavailable);
    EXPECT_EQ(util::ExitCodeFor(util::ResourceExhausted("x")),
              util::kExitResourceExhausted);
    EXPECT_EQ(util::ExitCodeFor(util::DataLoss("x")), util::kExitCorrupt);
    EXPECT_EQ(util::ExitCodeFor(util::InvalidArgument("x")),
              util::kExitCorrupt);
    EXPECT_EQ(util::ExitCodeFor(util::InternalError("x")), util::kExitError);
    EXPECT_EQ(util::StatusCodeName(util::StatusCode::kResourceExhausted),
              std::string("resource-exhausted"));
}

}  // namespace
}  // namespace atum
