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
    ControlStore cs;
    EXPECT_FALSE(cs.installed());
    ExpectAllFiresReturnZero(cs);
}

TEST(ControlStore, EachSplicePointReachesItsOverride)
{
    ControlStore cs;
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
    ControlStore cs;
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
    ControlStore cs;
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
    ControlStore cs;
    FakePatch patch;
    cs.Install(patch);
    cs.Remove();
    EXPECT_FALSE(cs.installed());
    ExpectAllFiresReturnZero(cs);
    cs.Install(patch);  // the store is free again
    EXPECT_EQ(cs.FireTlbMiss(0, false), 3u);
}

TEST(ControlStoreDeath, SecondInstallIsFatal)
{
    ControlStore cs;
    FakePatch first;
    FakePatch second;
    cs.Install(first);
    EXPECT_DEATH(cs.Install(second), "already patched");
}

}  // namespace
}  // namespace atum::ucode
