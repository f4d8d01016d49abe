// Unit tests for the microcode layer: cost model and control-store
// patching semantics.

#include <gtest/gtest.h>

#include "ucode/control_store.h"
#include "ucode/micro_op.h"

namespace atum::ucode {
namespace {

TEST(MicroOp, AllKindsHaveNonzeroCost)
{
    for (unsigned k = 0; k < static_cast<unsigned>(MicroOpKind::kNumKinds);
         ++k) {
        EXPECT_GT(CostOf(static_cast<MicroOpKind>(k)), 0u);
    }
}

TEST(MicroOp, MemoryOpsCostMoreThanAlu)
{
    EXPECT_GE(CostOf(MicroOpKind::kDRead), CostOf(MicroOpKind::kAlu));
    EXPECT_GE(CostOf(MicroOpKind::kCtxLoad), CostOf(MicroOpKind::kDRead));
}

/**
 * A patch overriding four of the five splice points; each records what it
 * saw and returns a distinct cost. OnExceptionDispatch is left to the
 * base class.
 */
struct FakePatch : Patch {
    MemAccess access;
    uint16_t pid = 0;
    uint32_t pcb_pa = 0;
    uint32_t miss_vaddr = 0;
    uint32_t decode_pc = 0;
    uint8_t decode_op = 0;
    bool decode_kernel = false;

    uint32_t OnMemAccess(const MemAccess& a) override
    {
        access = a;
        return 16;
    }
    uint32_t OnContextSwitch(uint16_t p, uint32_t pcb) override
    {
        pid = p;
        pcb_pa = pcb;
        return 2;
    }
    uint32_t OnTlbMiss(uint32_t vaddr, bool) override
    {
        miss_vaddr = vaddr;
        return 3;
    }
    uint32_t OnDecode(uint32_t pc, uint8_t op, bool kernel) override
    {
        decode_pc = pc;
        decode_op = op;
        decode_kernel = kernel;
        return 5;
    }
};

void
ExpectAllFiresReturnZero(ControlStore& cs)
{
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 0u);
    EXPECT_EQ(cs.FireContextSwitch(1, 0x100), 0u);
    EXPECT_EQ(cs.FireTlbMiss(0x200, false), 0u);
    EXPECT_EQ(cs.FireExceptionDispatch(3), 0u);
    EXPECT_EQ(cs.FireDecode(0x300, 0x10, false), 0u);
}

TEST(ControlStore, UnpatchedFiresReturnZero)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    EXPECT_FALSE(cs.installed());
    ExpectAllFiresReturnZero(cs);
}

TEST(ControlStore, EachSplicePointReachesItsOverride)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    FakePatch patch;
    cs.Install(patch);
    EXPECT_TRUE(cs.installed());

    MemAccess access;
    access.vaddr = 0x1234;
    access.paddr = 0x5678;
    access.size = 4;
    access.kind = MemAccessKind::kWrite;
    access.kernel = true;
    EXPECT_EQ(cs.FireMemAccess(access), 16u);
    EXPECT_EQ(patch.access.vaddr, 0x1234u);
    EXPECT_EQ(patch.access.paddr, 0x5678u);
    EXPECT_EQ(patch.access.kind, MemAccessKind::kWrite);
    EXPECT_TRUE(patch.access.kernel);

    EXPECT_EQ(cs.FireContextSwitch(7, 0x4000), 2u);
    EXPECT_EQ(patch.pid, 7u);
    EXPECT_EQ(patch.pcb_pa, 0x4000u);

    EXPECT_EQ(cs.FireTlbMiss(0x8000, true), 3u);
    EXPECT_EQ(patch.miss_vaddr, 0x8000u);

    EXPECT_EQ(cs.FireDecode(0x1234, 0x10, true), 5u);
    EXPECT_EQ(patch.decode_pc, 0x1234u);
    EXPECT_EQ(patch.decode_op, 0x10);
    EXPECT_TRUE(patch.decode_kernel);
}

TEST(ControlStore, PointNotOverriddenReturnsZero)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    FakePatch patch;
    cs.Install(patch);
    EXPECT_EQ(cs.FireExceptionDispatch(3), 0u);
}

TEST(ControlStore, PointLeftOutOfSplicesIsNeverCalled)
{
    // FakePatch overrides OnTlbMiss and OnDecode, but this one splices
    // only the memory-access and context-switch points, so neither
    // override runs and both points read as unpatched.
    struct TwoPointPatch : FakePatch {
        uint8_t splices() const override
        {
            return kSpliceMemAccess | kSpliceContextSwitch;
        }
    };
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    TwoPointPatch patch;
    cs.Install(patch);
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 16u);
    EXPECT_EQ(cs.FireContextSwitch(7, 0x4000), 2u);
    EXPECT_EQ(cs.FireTlbMiss(0x8000, true), 0u);
    EXPECT_EQ(patch.miss_vaddr, 0u);
    EXPECT_EQ(cs.FireDecode(0x1234, 0x10, true), 0u);
    EXPECT_EQ(patch.decode_pc, 0u);
    EXPECT_EQ(cs.FireExceptionDispatch(3), 0u);
}

TEST(ControlStore, RemoveRestoresZero)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    FakePatch patch;
    cs.Install(patch);
    cs.Remove();
    EXPECT_FALSE(cs.installed());
    ExpectAllFiresReturnZero(cs);
    cs.Install(patch);  // the store is free again
    EXPECT_EQ(cs.FireTlbMiss(0, false), 3u);
}

/**
 * A patch with a record buffer: its OnMemAccess stands in for the
 * tracer's buffer-filling store, storing nothing and emptying the buffer.
 */
struct BufferedPatch : Patch {
    RecordBuffer buffer;
    unsigned fills = 0;

    RecordBuffer* record_buffer() override { return &buffer; }
    uint32_t OnMemAccess(const MemAccess&) override
    {
        ++fills;
        buffer.head = 0;
        return 1000;
    }
};

TEST(ControlStore, RecordBufferIsAppendedInLineUntilTheFillingStore)
{
    PhysicalMemory memory(4 * kPageBytes);
    ControlStore cs(memory);
    BufferedPatch patch;
    patch.buffer = {.base = kPageBytes,
                    .bytes = 8 * trace::kRecordBytes,
                    .cost_per_record = 3};
    cs.Install(patch);

    // Seven of the eight slots take records in line, every kind alike;
    // the routine is not called and the cost is the per-record cost.
    for (uint32_t i = 0; i < 7; ++i) {
        const MemAccess access{0x1000 + 4 * i, 0, 4,
                               static_cast<MemAccessKind>(i % 5), i % 2 == 0};
        EXPECT_EQ(cs.FireMemAccess(access), 3u);
        uint64_t stored = 0;
        memory.ReadBlock(kPageBytes + i * trace::kRecordBytes, &stored,
                         sizeof stored);
        EXPECT_EQ(stored, trace::PackMemAccess(access)) << i;
    }
    EXPECT_EQ(patch.fills, 0u);
    EXPECT_EQ(patch.buffer.head, 7 * trace::kRecordBytes);
    EXPECT_EQ(patch.buffer.records, 7u);
    EXPECT_EQ(patch.buffer.overhead_ucycles, 21u);

    // The eighth record would fill the buffer: that reference, of any
    // kind, is the routine's. Here it empties the buffer, so the next
    // record goes in line at the base again.
    const MemAccess read{0x3000, 0, 4, MemAccessKind::kRead, false};
    EXPECT_EQ(cs.FireMemAccess(read), 1000u);
    EXPECT_EQ(patch.fills, 1u);
    EXPECT_EQ(patch.buffer.records, 7u);
    EXPECT_EQ(cs.FireMemAccess(read), 3u);
    EXPECT_EQ(patch.buffer.head, trace::kRecordBytes);
    EXPECT_EQ(patch.buffer.records, 8u);

    // Removed, the buffer is no longer appended to.
    cs.Remove();
    EXPECT_EQ(cs.FireMemAccess(read), 0u);
    EXPECT_EQ(patch.buffer.records, 8u);
}

TEST(ControlStoreDeath, RecordBufferOutsideMemoryIsFatal)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    BufferedPatch patch;
    patch.buffer = {.base = kPageBytes / 2, .bytes = kPageBytes};
    EXPECT_DEATH(cs.Install(patch), "inside physical memory");
}

TEST(ControlStoreDeath, SecondInstallIsFatal)
{
    PhysicalMemory memory(kPageBytes);
    ControlStore cs(memory);
    FakePatch first;
    FakePatch second;
    cs.Install(first);
    EXPECT_DEATH(cs.Install(second), "already patched");
}

}  // namespace
}  // namespace atum::ucode
