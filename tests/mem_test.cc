// Unit tests for PhysicalMemory: endianness, bounds, block copies, and the
// reserved (ATUM buffer) region accounting.

#include <gtest/gtest.h>

#include "mem/physical_memory.h"

namespace atum {
namespace {

TEST(PhysicalMemory, StartsZeroed)
{
    PhysicalMemory mem(4 * kPageBytes);
    for (uint32_t a = 0; a < mem.size(); a += 97)
        EXPECT_EQ(mem.Read8(a), 0);
}

TEST(PhysicalMemory, LittleEndianScalars)
{
    PhysicalMemory mem(kPageBytes);
    mem.Write32(0, 0x01020304);
    EXPECT_EQ(mem.Read8(0), 0x04);
    EXPECT_EQ(mem.Read8(1), 0x03);
    EXPECT_EQ(mem.Read8(2), 0x02);
    EXPECT_EQ(mem.Read8(3), 0x01);
    EXPECT_EQ(mem.Read16(0), 0x0304);
    EXPECT_EQ(mem.Read16(2), 0x0102);
    EXPECT_EQ(mem.Read32(0), 0x01020304u);
}

TEST(PhysicalMemory, UnalignedAccess)
{
    PhysicalMemory mem(kPageBytes);
    mem.Write32(3, 0xa1b2c3d4);
    EXPECT_EQ(mem.Read32(3), 0xa1b2c3d4u);
    mem.Write16(9, 0xbeef);
    EXPECT_EQ(mem.Read16(9), 0xbeef);
}

TEST(PhysicalMemory, BlockCopy)
{
    PhysicalMemory mem(kPageBytes);
    const uint8_t src[5] = {1, 2, 3, 4, 5};
    mem.WriteBlock(100, src, sizeof src);
    uint8_t dst[5] = {};
    mem.ReadBlock(100, dst, sizeof dst);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(dst[i], src[i]);
}

TEST(PhysicalMemory, ZeroLengthBlockOk)
{
    PhysicalMemory mem(kPageBytes);
    mem.WriteBlock(0, nullptr, 0);
    mem.ReadBlock(0, nullptr, 0);
}

TEST(PhysicalMemory, Contains)
{
    PhysicalMemory mem(kPageBytes);
    EXPECT_TRUE(mem.Contains(0));
    EXPECT_TRUE(mem.Contains(kPageBytes - 1));
    EXPECT_TRUE(mem.Contains(kPageBytes - 4, 4));
    EXPECT_FALSE(mem.Contains(kPageBytes));
    EXPECT_FALSE(mem.Contains(kPageBytes - 3, 4));
}

TEST(PhysicalMemoryDeath, OutOfRangePanics)
{
    PhysicalMemory mem(kPageBytes);
    EXPECT_DEATH(mem.Read8(kPageBytes), "out of range");
    EXPECT_DEATH(mem.Write32(kPageBytes - 2, 1), "out of range");
    EXPECT_DEATH(mem.Read32(0xffffffff), "out of range");
}

TEST(PhysicalMemoryDeath, EveryAccessorChecksItsRange)
{
    // The accessors are inline; each must still reach the same panic,
    // both for an access ending one byte past the end and for a pa at
    // the top of the address space.
    PhysicalMemory mem(kPageBytes);
    uint8_t buf[4] = {};
    const char* msg = "physical access out of range";
    EXPECT_DEATH(mem.Read16(kPageBytes - 1), msg);
    EXPECT_DEATH(mem.Read16(0xffffffff), msg);
    EXPECT_DEATH(mem.Write8(kPageBytes, 1), msg);
    EXPECT_DEATH(mem.Write8(0xffffffff, 1), msg);
    EXPECT_DEATH(mem.Write16(kPageBytes - 1, 1), msg);
    EXPECT_DEATH(mem.Write16(0xffffffff, 1), msg);
    EXPECT_DEATH(mem.ReadBlock(kPageBytes - 3, buf, sizeof buf), msg);
    EXPECT_DEATH(mem.ReadBlock(0xffffffff, buf, sizeof buf), msg);
    EXPECT_DEATH(mem.WriteBlock(kPageBytes - 3, buf, sizeof buf), msg);
    EXPECT_DEATH(mem.WriteBlock(0xffffffff, buf, sizeof buf), msg);
}

TEST(PhysicalMemoryDeath, BadSizeIsFatal)
{
    EXPECT_DEATH(PhysicalMemory(0), "page multiple");
    EXPECT_DEATH(PhysicalMemory(100), "page multiple");
}

TEST(PhysicalMemory, ReserveTop)
{
    PhysicalMemory mem(8 * kPageBytes);
    EXPECT_EQ(mem.NumUsableFrames(), 8u);
    const uint32_t base = mem.ReserveTop(2 * kPageBytes);
    EXPECT_EQ(base, 6 * kPageBytes);
    EXPECT_EQ(mem.reserved_base(), 6 * kPageBytes);
    EXPECT_EQ(mem.reserved_bytes(), 2 * kPageBytes);
    EXPECT_EQ(mem.NumUsableFrames(), 6u);
    mem.Unreserve();
    EXPECT_EQ(mem.NumUsableFrames(), 8u);
    EXPECT_EQ(mem.reserved_bytes(), 0u);
}

TEST(PhysicalMemoryDeath, DoubleReserveIsFatal)
{
    PhysicalMemory mem(8 * kPageBytes);
    mem.ReserveTop(kPageBytes);
    EXPECT_DEATH(mem.ReserveTop(kPageBytes), "already active");
}

TEST(PhysicalMemoryDeath, ReserveAllIsFatal)
{
    PhysicalMemory mem(2 * kPageBytes);
    EXPECT_DEATH(mem.ReserveTop(2 * kPageBytes), "usable memory");
}

}  // namespace
}  // namespace atum
