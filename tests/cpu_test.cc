// Unit tests for the executor: instruction semantics with the MMU off
// (identity translation, kernel mode), covering data movement, arithmetic,
// flags, addressing-mode side effects, control transfer, and MOVC3.

#include <gtest/gtest.h>

#include <memory>

#include "assembler/assembler.h"
#include "cpu/machine.h"

namespace atum::cpu {
namespace {

using assembler::Abs;
using assembler::AbsRef;
using assembler::Assembler;
using assembler::Dec;
using assembler::Def;
using assembler::Disp;
using assembler::DispDef;
using assembler::Imm;
using assembler::Inc;
using assembler::Label;
using assembler::Program;
using assembler::R;
using assembler::Ref;
using isa::Opcode;

constexpr uint32_t kCodeBase = 0x1000;
constexpr uint32_t kStackTop = 0x8000;
constexpr uint32_t kDataBase = 0x9000;

class CpuTest : public ::testing::Test
{
  protected:
    CpuTest()
    {
        Machine::Config config;
        config.mem_bytes = 256 * kPageBytes;  // 128 KiB
        machine_ = std::make_unique<Machine>(config);
        machine_->set_reg(isa::kRegSp, kStackTop);
    }

    /** Assembles `build`'s output at kCodeBase and runs it to HALT. */
    void RunProgram(const std::function<void(Assembler&)>& build,
                    uint64_t max_instructions = 100000)
    {
        Assembler a(kCodeBase);
        build(a);
        a.Emit(Opcode::kHalt);
        Program p = a.Finish();
        machine_->memory().WriteBlock(p.origin, p.bytes.data(), p.size());
        machine_->set_pc(p.origin);
        const auto result = machine_->Run(max_instructions);
        ASSERT_EQ(result.reason, Machine::StopReason::kHalted)
            << "program did not halt";
    }

    Machine& m() { return *machine_; }

    std::unique_ptr<Machine> machine_;
};

TEST_F(CpuTest, MovlImmediateToRegister)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0xdeadbeef), R(3)});
    });
    EXPECT_EQ(m().reg(3), 0xdeadbeefu);
    EXPECT_TRUE(m().psl().n);
    EXPECT_FALSE(m().psl().z);
}

TEST_F(CpuTest, MovlZeroSetsZ)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0), R(1)});
    });
    EXPECT_TRUE(m().psl().z);
    EXPECT_FALSE(m().psl().n);
}

TEST_F(CpuTest, MemoryRoundTrip)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(1234), Abs(kDataBase)});
        a.Emit(Opcode::kMovl, {Abs(kDataBase), R(5)});
    });
    EXPECT_EQ(m().reg(5), 1234u);
    EXPECT_EQ(m().memory().Read32(kDataBase), 1234u);
}

TEST_F(CpuTest, ByteOpsPreserveUpperRegisterBits)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x11223344), R(2)});
        a.Emit(Opcode::kMovb, {Imm(0x99), R(2)});
    });
    EXPECT_EQ(m().reg(2), 0x11223399u);
}

TEST_F(CpuTest, Movzbl)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovb, {Imm(0xfe), Abs(kDataBase)});
        a.Emit(Opcode::kMovzbl, {Abs(kDataBase), R(1)});
    });
    EXPECT_EQ(m().reg(1), 0xfeu);
    EXPECT_FALSE(m().psl().n);
}

TEST_F(CpuTest, AutoIncrementAndDecrement)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(kDataBase), R(1)});
        a.Emit(Opcode::kMovl, {Imm(7), Inc(1)});
        a.Emit(Opcode::kMovl, {Imm(8), Inc(1)});
        a.Emit(Opcode::kMovl, {Imm(9), Dec(1)});  // overwrites the 8
    });
    EXPECT_EQ(m().memory().Read32(kDataBase), 7u);
    EXPECT_EQ(m().memory().Read32(kDataBase + 4), 9u);
    EXPECT_EQ(m().reg(1), kDataBase + 4);
}

TEST_F(CpuTest, ByteAutoIncrementStepsByOne)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(kDataBase), R(1)});
        a.Emit(Opcode::kMovb, {Imm(0xaa), Inc(1)});
        a.Emit(Opcode::kMovb, {Imm(0xbb), Inc(1)});
    });
    EXPECT_EQ(m().memory().Read8(kDataBase), 0xaa);
    EXPECT_EQ(m().memory().Read8(kDataBase + 1), 0xbb);
    EXPECT_EQ(m().reg(1), kDataBase + 2);
}

TEST_F(CpuTest, DisplacementAddressing)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(kDataBase + 16), R(2)});
        a.Emit(Opcode::kMovl, {Imm(77), Disp(-16, 2)});
        a.Emit(Opcode::kMovl, {Imm(88), Disp(1000, 2)});
    });
    EXPECT_EQ(m().memory().Read32(kDataBase), 77u);
    EXPECT_EQ(m().memory().Read32(kDataBase + 1016), 88u);
}

TEST_F(CpuTest, DisplacementDeferred)
{
    RunProgram([](Assembler& a) {
        // mem[kDataBase] = kDataBase+0x20 (a pointer); then store through it.
        a.Emit(Opcode::kMovl, {Imm(kDataBase + 0x20), Abs(kDataBase)});
        a.Emit(Opcode::kMovl, {Imm(kDataBase), R(3)});
        a.Emit(Opcode::kMovl, {Imm(555), DispDef(0, 3)});
    });
    EXPECT_EQ(m().memory().Read32(kDataBase + 0x20), 555u);
}

TEST_F(CpuTest, PcRelativeLoad)
{
    RunProgram([](Assembler& a) {
        Label data = a.NewLabel("data");
        Label code = a.NewLabel("code");
        a.Emit(Opcode::kBrb, {}, code);
        a.Bind(data);
        a.Long(0xcafef00d);
        a.Bind(code);
        a.Emit(Opcode::kMovl, {Ref(data), R(4)});
    });
    EXPECT_EQ(m().reg(4), 0xcafef00du);
}

TEST_F(CpuTest, MovalTakesAddress)
{
    RunProgram([](Assembler& a) {
        Label data = a.NewLabel("data");
        Label code = a.NewLabel("code");
        a.Emit(Opcode::kBrb, {}, code);
        a.Bind(data);
        a.Long(1);
        a.Bind(code);
        a.Emit(Opcode::kMoval, {Ref(data), R(6)});
    });
    EXPECT_EQ(m().reg(6), kCodeBase + 2);
}

TEST_F(CpuTest, AddSubFlags)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x7fffffff), R(1)});
        a.Emit(Opcode::kAddl2, {Imm(1), R(1)});
    });
    EXPECT_EQ(m().reg(1), 0x80000000u);
    EXPECT_TRUE(m().psl().n);
    EXPECT_TRUE(m().psl().v);  // signed overflow
    EXPECT_FALSE(m().psl().c);
}

TEST_F(CpuTest, SubBorrowSetsCarry)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
        a.Emit(Opcode::kSubl2, {Imm(2), R(1)});  // r1 = 1 - 2
    });
    EXPECT_EQ(m().reg(1), 0xffffffffu);
    EXPECT_TRUE(m().psl().c);
    EXPECT_TRUE(m().psl().n);
}

TEST_F(CpuTest, ThreeOperandForms)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(10), R(1)});
        a.Emit(Opcode::kMovl, {Imm(3), R(2)});
        a.Emit(Opcode::kAddl3, {R(1), R(2), R(3)});   // r3 = 13
        a.Emit(Opcode::kSubl3, {R(2), R(1), R(4)});   // r4 = r1 - r2 = 7
        a.Emit(Opcode::kMull3, {R(1), R(2), R(5)});   // r5 = 30
        a.Emit(Opcode::kDivl3, {R(2), R(1), R(6)});   // r6 = r1 / r2 = 3
    });
    EXPECT_EQ(m().reg(3), 13u);
    EXPECT_EQ(m().reg(4), 7u);
    EXPECT_EQ(m().reg(5), 30u);
    EXPECT_EQ(m().reg(6), 3u);
}

TEST_F(CpuTest, MulOverflowSetsV)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x10000), R(1)});
        a.Emit(Opcode::kMull2, {R(1), R(1)});
    });
    EXPECT_EQ(m().reg(1), 0u);
    EXPECT_TRUE(m().psl().v);
}

TEST_F(CpuTest, NegativeDivisionTruncatesTowardZero)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(static_cast<uint32_t>(-7)), R(1)});
        a.Emit(Opcode::kDivl3, {Imm(2), R(1), R(2)});  // -7 / 2 = -3
    });
    EXPECT_EQ(static_cast<int32_t>(m().reg(2)), -3);
}

TEST_F(CpuTest, IncDecl)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(5), R(1)});
        a.Emit(Opcode::kIncl, {R(1)});
        a.Emit(Opcode::kMovl, {Imm(1), R(2)});
        a.Emit(Opcode::kDecl, {R(2)});
    });
    EXPECT_EQ(m().reg(1), 6u);
    EXPECT_EQ(m().reg(2), 0u);
    EXPECT_TRUE(m().psl().z);
}

TEST_F(CpuTest, MneglAndClr)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(5), R(1)});
        a.Emit(Opcode::kMnegl, {R(1), R(2)});
        a.Emit(Opcode::kMovl, {Imm(3), R(3)});
        a.Emit(Opcode::kClrl, {R(3)});
    });
    EXPECT_EQ(static_cast<int32_t>(m().reg(2)), -5);
    EXPECT_EQ(m().reg(3), 0u);
}

TEST_F(CpuTest, LogicalOps)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x0f0f), R(1)});
        a.Emit(Opcode::kBisl2, {Imm(0xf000), R(1)});     // or
        a.Emit(Opcode::kMovl, {Imm(0xffff), R(2)});
        a.Emit(Opcode::kBicl2, {Imm(0x00ff), R(2)});     // and-not
        a.Emit(Opcode::kMovl, {Imm(0xff00), R(3)});
        a.Emit(Opcode::kXorl2, {Imm(0x0ff0), R(3)});
        a.Emit(Opcode::kBisl3, {Imm(1), R(1), R(4)});
        a.Emit(Opcode::kBicl3, {Imm(0xff), R(2), R(5)});
        a.Emit(Opcode::kXorl3, {Imm(0xf), R(3), R(6)});
    });
    EXPECT_EQ(m().reg(1), 0xff0fu);
    EXPECT_EQ(m().reg(2), 0xff00u);
    EXPECT_EQ(m().reg(3), 0xf0f0u);
    EXPECT_EQ(m().reg(4), 0xff0fu | 1u);
    EXPECT_EQ(m().reg(5), 0xff00u);
    EXPECT_EQ(m().reg(6), 0xf0ffu);
}

TEST_F(CpuTest, AshlShifts)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
        a.Emit(Opcode::kAshl, {Imm(8), R(1), R(2)});           // 256
        a.Emit(Opcode::kMovl, {Imm(0x80000000), R(3)});
        a.Emit(Opcode::kAshl, {Imm(0xff /* -1 */), R(3), R(4)});  // asr
        a.Emit(Opcode::kMovl, {Imm(256), R(5)});
        a.Emit(Opcode::kAshl, {Imm(0xf8 /* -8 */), R(5), R(6)});
    });
    EXPECT_EQ(m().reg(2), 256u);
    EXPECT_EQ(m().reg(4), 0xc0000000u);  // arithmetic shift keeps the sign
    EXPECT_EQ(m().reg(6), 1u);
}

TEST_F(CpuTest, CompareAndConditionalBranches)
{
    RunProgram([](Assembler& a) {
        // r1 = (3 < 5 signed) ? 1 : 0 via blss.
        Label less = a.NewLabel("less");
        Label after = a.NewLabel("after");
        a.Emit(Opcode::kClrl, {R(1)});
        a.Emit(Opcode::kCmpl, {Imm(3), Imm(5)});
        a.Emit(Opcode::kBlss, {}, less);
        a.Emit(Opcode::kBrb, {}, after);
        a.Bind(less);
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
        a.Bind(after);
        // r2 = (-1 < 1 unsigned) ? 1 : 0 (it is not: 0xffffffff > 1).
        Label lssu = a.NewLabel("lssu");
        Label after2 = a.NewLabel("after2");
        a.Emit(Opcode::kClrl, {R(2)});
        a.Emit(Opcode::kCmpl, {Imm(0xffffffff), Imm(1)});
        a.Emit(Opcode::kBlssu, {}, lssu);
        a.Emit(Opcode::kBrb, {}, after2);
        a.Bind(lssu);
        a.Emit(Opcode::kMovl, {Imm(1), R(2)});
        a.Bind(after2);
    });
    EXPECT_EQ(m().reg(1), 1u);
    EXPECT_EQ(m().reg(2), 0u);
}

TEST_F(CpuTest, SobgtrLoop)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(10), R(1)});
        a.Emit(Opcode::kClrl, {R(2)});
        Label loop = a.Here("loop");
        a.Emit(Opcode::kAddl2, {R(1), R(2)});
        a.Emit(Opcode::kSobgtr, {R(1)}, loop);
    });
    // Sum of 10..1 = 55.
    EXPECT_EQ(m().reg(2), 55u);
    EXPECT_EQ(m().reg(1), 0u);
}

TEST_F(CpuTest, AoblssLoop)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kClrl, {R(1)});
        a.Emit(Opcode::kClrl, {R(2)});
        Label loop = a.Here("loop");
        a.Emit(Opcode::kIncl, {R(2)});
        a.Emit(Opcode::kAoblss, {Imm(5), R(1)}, loop);
    });
    EXPECT_EQ(m().reg(1), 5u);
    EXPECT_EQ(m().reg(2), 5u);
}

TEST_F(CpuTest, PushAndStack)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kPushl, {Imm(11)});
        a.Emit(Opcode::kPushl, {Imm(22)});
        a.Emit(Opcode::kMovl, {Inc(isa::kRegSp), R(1)});  // pop 22
        a.Emit(Opcode::kMovl, {Inc(isa::kRegSp), R(2)});  // pop 11
    });
    EXPECT_EQ(m().reg(1), 22u);
    EXPECT_EQ(m().reg(2), 11u);
    EXPECT_EQ(m().reg(isa::kRegSp), kStackTop);
}

TEST_F(CpuTest, JsbRsb)
{
    RunProgram([](Assembler& a) {
        Label sub = a.NewLabel("sub");
        Label over = a.NewLabel("over");
        a.Emit(Opcode::kJsb, {Ref(sub)});
        a.Emit(Opcode::kBrb, {}, over);
        a.Bind(sub);
        a.Emit(Opcode::kMovl, {Imm(42), R(1)});
        a.Emit(Opcode::kRsb);
        a.Bind(over);
        a.Emit(Opcode::kMovl, {Imm(7), R(2)});
    });
    EXPECT_EQ(m().reg(1), 42u);
    EXPECT_EQ(m().reg(2), 7u);
    EXPECT_EQ(m().reg(isa::kRegSp), kStackTop);
}

TEST_F(CpuTest, CallsRetWithArguments)
{
    RunProgram([](Assembler& a) {
        Label fn = a.NewLabel("fn");
        Label over = a.NewLabel("over");
        // Push two args, call; callee reads args relative to FP.
        a.Emit(Opcode::kPushl, {Imm(30)});
        a.Emit(Opcode::kPushl, {Imm(12)});
        a.Emit(Opcode::kCalls, {Imm(2), Ref(fn)});
        a.Emit(Opcode::kBrb, {}, over);
        a.Bind(fn);
        // Frame: narg at 0(fp), old fp at 4, ret pc at 8, args at 12, 16.
        a.Emit(Opcode::kAddl3,
               {Disp(12, isa::kRegFp), Disp(16, isa::kRegFp), R(1)});
        a.Emit(Opcode::kRet);
        a.Bind(over);
        a.Emit(Opcode::kMovl, {Imm(1), R(2)});
    });
    EXPECT_EQ(m().reg(1), 42u);
    EXPECT_EQ(m().reg(2), 1u);
    // RET pops the frame *and* the arguments.
    EXPECT_EQ(m().reg(isa::kRegSp), kStackTop);
}

TEST_F(CpuTest, Movc3CopiesAndSetsRegisters)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x61626364), Abs(kDataBase)});
        a.Emit(Opcode::kMovl, {Imm(0x65666768), Abs(kDataBase + 4)});
        a.Emit(Opcode::kMovc3, {Imm(8), Abs(kDataBase), Abs(kDataBase + 64)});
    });
    EXPECT_EQ(m().memory().Read32(kDataBase + 64), 0x61626364u);
    EXPECT_EQ(m().memory().Read32(kDataBase + 68), 0x65666768u);
    EXPECT_EQ(m().reg(0), 0u);
    EXPECT_EQ(m().reg(1), kDataBase + 8);
    EXPECT_EQ(m().reg(3), kDataBase + 64 + 8);
    EXPECT_TRUE(m().psl().z);
}

TEST_F(CpuTest, JmpAbsolute)
{
    RunProgram([](Assembler& a) {
        Label target = a.NewLabel("target");
        a.Emit(Opcode::kJmp, {AbsRef(target)});
        a.Emit(Opcode::kMovl, {Imm(99), R(1)});  // skipped
        a.Bind(target);
        a.Emit(Opcode::kMovl, {Imm(5), R(2)});
    });
    EXPECT_EQ(m().reg(1), 0u);
    EXPECT_EQ(m().reg(2), 5u);
}

TEST_F(CpuTest, BrwLongBranch)
{
    RunProgram([](Assembler& a) {
        Label far = a.NewLabel("far");
        a.Emit(Opcode::kBrw, {}, far);
        for (int i = 0; i < 100; ++i)
            a.Emit(Opcode::kMovl, {Imm(1), R(1)});  // skipped
        a.Bind(far);
        a.Emit(Opcode::kMovl, {Imm(2), R(2)});
    });
    EXPECT_EQ(m().reg(1), 0u);
    EXPECT_EQ(m().reg(2), 2u);
}

TEST_F(CpuTest, TstAndBit)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x80), R(1)});
        a.Emit(Opcode::kBitl, {Imm(0x80), R(1)});
        a.Emit(Opcode::kMovl, {Imm(0), R(2)});
        a.Emit(Opcode::kTstl, {R(2)});
    });
    EXPECT_TRUE(m().psl().z);  // from the final TSTL
}

TEST_F(CpuTest, CmpbSignedAndUnsigned)
{
    RunProgram([](Assembler& a) {
        // 0x80 as signed byte is -128, less than 1; unsigned it is greater.
        Label signed_less = a.NewLabel("sl");
        Label next = a.NewLabel("next");
        a.Emit(Opcode::kClrl, {R(1)});
        a.Emit(Opcode::kClrl, {R(2)});
        a.Emit(Opcode::kCmpb, {Imm(0x80), Imm(1)});
        a.Emit(Opcode::kBlss, {}, signed_less);
        a.Emit(Opcode::kBrb, {}, next);
        a.Bind(signed_less);
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
        a.Bind(next);
        a.Emit(Opcode::kCmpb, {Imm(0x80), Imm(1)});
        Label not_lssu = a.NewLabel("nlu");
        a.Emit(Opcode::kBlssu, {}, not_lssu);
        a.Emit(Opcode::kMovl, {Imm(1), R(2)});  // taken: unsigned >=
        a.Bind(not_lssu);
    });
    EXPECT_EQ(m().reg(1), 1u);
    EXPECT_EQ(m().reg(2), 1u);
}

TEST_F(CpuTest, CyclesAdvance)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
    });
    EXPECT_GT(m().ucycles(), 0u);
    EXPECT_EQ(m().icount(), 2u);  // movl + halt
}

TEST_F(CpuTest, UnalignedCrossPageAccess)
{
    // A longword access straddling a page boundary must work (two bus
    // cycles in the microcode).
    const uint32_t addr = kDataBase + kPageBytes - 2;
    RunProgram([addr](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x12345678), Abs(addr)});
        a.Emit(Opcode::kMovl, {Abs(addr), R(9)});
    });
    EXPECT_EQ(m().reg(9), 0x12345678u);
    EXPECT_EQ(m().memory().Read32(addr), 0x12345678u);
}

TEST_F(CpuTest, WordMovesAndCompares)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x11223344), R(2)});
        a.Emit(Opcode::kMovw, {Imm(0xbeef), R(2)});  // low 16 only
        a.Emit(Opcode::kMovw, {R(2), Abs(kDataBase)});
        a.Emit(Opcode::kMovzwl, {Abs(kDataBase), R(3)});
    });
    EXPECT_EQ(m().reg(2), 0x1122beefu);
    EXPECT_EQ(m().memory().Read16(kDataBase), 0xbeef);
    EXPECT_EQ(m().reg(3), 0xbeefu);
    EXPECT_FALSE(m().psl().n);  // movzwl clears N
}

TEST_F(CpuTest, CmpwSignedVsUnsigned)
{
    RunProgram([](Assembler& a) {
        Label sl = a.NewLabel("sl");
        Label next = a.NewLabel("next");
        a.Emit(Opcode::kClrl, {R(1)});
        // 0x8000 as a signed word is negative, so signed-less-than 1.
        a.Emit(Opcode::kCmpw, {Imm(0x8000), Imm(1)});
        a.Emit(Opcode::kBlss, {}, sl);
        a.Emit(Opcode::kBrb, {}, next);
        a.Bind(sl);
        a.Emit(Opcode::kMovl, {Imm(1), R(1)});
        a.Bind(next);
        a.Emit(Opcode::kTstw, {Imm(0)});
    });
    EXPECT_EQ(m().reg(1), 1u);
    EXPECT_TRUE(m().psl().z);  // from tstw #0
}

TEST_F(CpuTest, CaselDispatchesThroughTable)
{
    // Direct construction with precomputed displacements.
    Assembler a(kCodeBase);
    a.Emit(Opcode::kMovl, {Imm(1), R(1)});  // selector = 1
    a.Emit(Opcode::kCasel, {R(1), Imm(0), Imm(2)});
    // Table start = here(); entries: case i at table+6 + i*9 (movl is
    // 7 bytes: opcode+spec+imm4+spec, brb 2 bytes -> body is 9 bytes).
    const uint32_t table = a.here() - kCodeBase;
    (void)table;
    a.Byte(6);
    a.Byte(0);  // case 0 -> +6
    a.Byte(15);
    a.Byte(0);  // case 1 -> +15
    a.Byte(24);
    a.Byte(0);  // case 2 -> +24
    Label out = a.NewLabel("out");
    a.Emit(Opcode::kMovl, {Imm(10), R(5)});  // +6: case 0
    a.Emit(Opcode::kBrb, {}, out);
    a.Emit(Opcode::kMovl, {Imm(20), R(5)});  // +15: case 1
    a.Emit(Opcode::kBrb, {}, out);
    a.Emit(Opcode::kMovl, {Imm(30), R(5)});  // +24: case 2
    a.Bind(out);
    a.Emit(Opcode::kHalt);
    assembler::Program p = a.Finish();
    machine_->memory().WriteBlock(p.origin, p.bytes.data(), p.size());
    machine_->set_pc(p.origin);
    ASSERT_EQ(machine_->Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().reg(5), 20u);
}

TEST_F(CpuTest, CaselOutOfRangeFallsPastTable)
{
    Assembler a(kCodeBase);
    a.Emit(Opcode::kMovl, {Imm(7), R(1)});  // selector out of range
    a.Emit(Opcode::kCasel, {R(1), Imm(0), Imm(1)});
    a.Byte(0);
    a.Byte(0);
    a.Byte(0);
    a.Byte(0);  // 2-entry table, never used
    a.Emit(Opcode::kMovl, {Imm(77), R(5)});  // fallthrough
    a.Emit(Opcode::kHalt);
    assembler::Program p = a.Finish();
    machine_->memory().WriteBlock(p.origin, p.bytes.data(), p.size());
    machine_->set_pc(p.origin);
    ASSERT_EQ(machine_->Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().reg(5), 77u);
}

TEST_F(CpuTest, CaselTableReadIsTheOnlyIFetchThatIsNoRefill)
{
    // cpu.ev.ifetches counts every i-stream reference: the prefetch
    // refills, plus the displacement-table word an in-range CASEL reads.
    // An out-of-range CASEL skips its table and reads nothing.
    Assembler a(kCodeBase);
    a.Emit(Opcode::kMovl, {Imm(1), R(1)});  // in range
    a.Emit(Opcode::kCasel, {R(1), Imm(0), Imm(1)});
    a.Byte(4);
    a.Byte(0);  // case 0 -> +4, past the table
    a.Byte(4);
    a.Byte(0);  // case 1 -> +4
    a.Emit(Opcode::kMovl, {Imm(7), R(2)});  // out of range
    a.Emit(Opcode::kCasel, {R(2), Imm(0), Imm(1)});
    a.Byte(0);
    a.Byte(0);
    a.Byte(0);
    a.Byte(0);  // 2-entry table, never read
    a.Emit(Opcode::kHalt);
    assembler::Program p = a.Finish();
    machine_->memory().WriteBlock(p.origin, p.bytes.data(), p.size());
    machine_->set_pc(p.origin);
    ASSERT_EQ(machine_->Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().event_counters().instructions, 5u);
    EXPECT_EQ(m().event_counters().ifetches - m().ibuf_refills(), 1u);
}

TEST_F(CpuTest, InsqueRemqueMaintainDoublyLinkedQueue)
{
    // Header at kDataBase (self-linked); entries at +0x20 and +0x40.
    const uint32_t head = kDataBase;
    const uint32_t e1 = kDataBase + 0x20;
    const uint32_t e2 = kDataBase + 0x40;
    RunProgram([&](Assembler& a) {
        // Initialize the header to an empty (self-pointing) queue.
        a.Emit(Opcode::kMovl, {Imm(head), Abs(head)});
        a.Emit(Opcode::kMovl, {Imm(head), Abs(head + 4)});
        a.Emit(Opcode::kInsque, {Abs(e1), Abs(head)});
        a.Emit(Opcode::kMovl, {Imm(0), R(6)});
        Label skip = a.NewLabel("skip");
        a.Emit(Opcode::kBneq, {}, skip);   // Z set: queue was empty
        a.Emit(Opcode::kMovl, {Imm(1), R(6)});
        a.Bind(skip);
        a.Emit(Opcode::kInsque, {Abs(e2), Abs(head)});  // e2 at front
        // Remove e1 (the tail) and keep its address in r7.
        a.Emit(Opcode::kRemque, {Abs(e1), R(7)});
    });
    EXPECT_EQ(m().reg(6), 1u);  // first insert saw an empty queue
    EXPECT_EQ(m().reg(7), e1);
    // Queue is now head <-> e2.
    EXPECT_EQ(m().memory().Read32(head), e2);       // head.next
    EXPECT_EQ(m().memory().Read32(e2), head);       // e2.next
    EXPECT_EQ(m().memory().Read32(e2 + 4), head);   // e2.prev
    EXPECT_EQ(m().memory().Read32(head + 4), e2);   // head.prev
}

TEST_F(CpuTest, Cmpc3FindsFirstDifference)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x64636261), Abs(kDataBase)});      // abcd
        a.Emit(Opcode::kMovl, {Imm(0x64586261), Abs(kDataBase + 16)}); // abXd
        a.Emit(Opcode::kCmpc3,
               {Imm(4), Abs(kDataBase), Abs(kDataBase + 16)});
    });
    EXPECT_FALSE(m().psl().z);
    EXPECT_EQ(m().reg(0), 2u);               // mismatch at byte 2 of 4
    EXPECT_EQ(m().reg(1), kDataBase + 2);
    EXPECT_EQ(m().reg(3), kDataBase + 16 + 2);
}

TEST_F(CpuTest, Cmpc3EqualSetsZ)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x11223344), Abs(kDataBase)});
        a.Emit(Opcode::kMovl, {Imm(0x11223344), Abs(kDataBase + 8)});
        a.Emit(Opcode::kCmpc3, {Imm(4), Abs(kDataBase), Abs(kDataBase + 8)});
    });
    EXPECT_TRUE(m().psl().z);
    EXPECT_EQ(m().reg(0), 0u);
}

TEST_F(CpuTest, LoccLocatesByte)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x415a5a5a), Abs(kDataBase)});  // ZZZA
        a.Emit(Opcode::kLocc, {Imm('A'), Imm(4), Abs(kDataBase)});
    });
    EXPECT_FALSE(m().psl().z);
    EXPECT_EQ(m().reg(0), 1u);               // found at the last byte
    EXPECT_EQ(m().reg(1), kDataBase + 3);
}

TEST_F(CpuTest, LoccNotFoundSetsZ)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kClrl, {Abs(kDataBase)});
        a.Emit(Opcode::kLocc, {Imm('A'), Imm(4), Abs(kDataBase)});
    });
    EXPECT_TRUE(m().psl().z);
    EXPECT_EQ(m().reg(0), 0u);
    EXPECT_EQ(m().reg(1), kDataBase + 4);
}

TEST_F(CpuTest, AluGoldenModelSweep)
{
    // Table-driven cross-check of the three-operand ALU instructions and
    // their condition codes against a host-side golden model, over a grid
    // of interesting operand values.
    struct Golden {
        uint32_t result;
        bool n, z, v, c;
        bool valid = true;  // false: skip (trapping case)
    };
    struct OpSpec {
        Opcode op;
        Golden (*model)(uint32_t a, uint32_t b);
    };
    // Operand order matches the guest program below: op s1=a, s2=b, dst.
    static const OpSpec kOps[] = {
        {Opcode::kAddl3,
         [](uint32_t a, uint32_t b) -> Golden {
             const uint32_t r = b + a;
             return {r, (r >> 31) != 0, r == 0,
                     (((b ^ r) & (a ^ r)) >> 31) != 0, r < b};
         }},
        {Opcode::kSubl3,
         [](uint32_t a, uint32_t b) -> Golden {
             const uint32_t r = b - a;  // dif = s2 - s1
             return {r, (r >> 31) != 0, r == 0,
                     (((b ^ a) & (b ^ r)) >> 31) != 0, b < a};
         }},
        {Opcode::kMull3,
         [](uint32_t a, uint32_t b) -> Golden {
             const int64_t wide = static_cast<int64_t>(
                                      static_cast<int32_t>(a)) *
                                  static_cast<int32_t>(b);
             const uint32_t r = static_cast<uint32_t>(wide);
             return {r, (r >> 31) != 0, r == 0,
                     wide != static_cast<int32_t>(r), false};
         }},
        {Opcode::kDivl3,
         [](uint32_t a, uint32_t b) -> Golden {
             if (a == 0)
                 return {0, false, false, false, false, false};  // traps
             if (b == 0x80000000u && a == 0xffffffffu)
                 return {b, true, false, true, false};
             const uint32_t r = static_cast<uint32_t>(
                 static_cast<int32_t>(b) / static_cast<int32_t>(a));
             return {r, (r >> 31) != 0, r == 0, false, false};
         }},
        {Opcode::kBisl3,
         [](uint32_t a, uint32_t b) -> Golden {
             const uint32_t r = b | a;
             return {r, (r >> 31) != 0, r == 0, false, false};
         }},
        {Opcode::kBicl3,
         [](uint32_t a, uint32_t b) -> Golden {
             const uint32_t r = b & ~a;
             return {r, (r >> 31) != 0, r == 0, false, false};
         }},
        {Opcode::kXorl3,
         [](uint32_t a, uint32_t b) -> Golden {
             const uint32_t r = b ^ a;
             return {r, (r >> 31) != 0, r == 0, false, false};
         }},
    };
    static const uint32_t kValues[] = {
        0,          1,          2,          7,          0x7fffffff,
        0x80000000, 0xffffffff, 0xfffffff9, 0x12345678, 0x80000001,
    };

    for (const OpSpec& spec : kOps) {
        for (uint32_t a : kValues) {
            for (uint32_t b : kValues) {
                const Golden want = spec.model(a, b);
                if (!want.valid)
                    continue;
                // Fresh machine per case: no flag leakage between cases.
                Machine::Config config;
                config.mem_bytes = 64 * kPageBytes;
                Machine machine(config);
                Assembler asmr(0x1000);
                asmr.Emit(Opcode::kMovl, {Imm(a), R(1)});
                asmr.Emit(Opcode::kMovl, {Imm(b), R(2)});
                asmr.Emit(spec.op, {R(1), R(2), R(3)});
                asmr.Emit(Opcode::kHalt);
                Program p = asmr.Finish();
                machine.memory().WriteBlock(p.origin, p.bytes.data(),
                                            p.size());
                machine.set_pc(p.origin);
                ASSERT_EQ(machine.Run(10).reason,
                          Machine::StopReason::kHalted);
                const std::string ctx =
                    std::string(isa::GetInstrInfo(spec.op).mnemonic) +
                    "(" + std::to_string(a) + ", " + std::to_string(b) +
                    ")";
                EXPECT_EQ(machine.reg(3), want.result) << ctx;
                EXPECT_EQ(machine.psl().n, want.n) << ctx << " N";
                EXPECT_EQ(machine.psl().z, want.z) << ctx << " Z";
                EXPECT_EQ(machine.psl().v, want.v) << ctx << " V";
                EXPECT_EQ(machine.psl().c, want.c) << ctx << " C";
            }
        }
    }
}

TEST_F(CpuTest, Movc3ZeroLengthIsNoop)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(0x11111111), Abs(kDataBase + 64)});
        a.Emit(Opcode::kMovc3, {Imm(0), Abs(kDataBase), Abs(kDataBase + 64)});
    });
    EXPECT_EQ(m().memory().Read32(kDataBase + 64), 0x11111111u);
    EXPECT_EQ(m().reg(0), 0u);
    EXPECT_EQ(m().reg(1), kDataBase);       // src + 0
    EXPECT_EQ(m().reg(3), kDataBase + 64);  // dst + 0
    EXPECT_TRUE(m().psl().z);
}

TEST_F(CpuTest, Movc3ForwardOverlapPropagates)
{
    // Forward byte-at-a-time copy with dst = src+1 smears the first byte,
    // the documented behaviour of a forward-only microcoded copy.
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kMovb, {Imm(0xab), Abs(kDataBase)});
        a.Emit(Opcode::kMovc3,
               {Imm(4), Abs(kDataBase), Abs(kDataBase + 1)});
    });
    for (uint32_t i = 0; i <= 4; ++i)
        EXPECT_EQ(m().memory().Read8(kDataBase + i), 0xab) << i;
}

TEST_F(CpuTest, LoccZeroLengthNotFound)
{
    RunProgram([](Assembler& a) {
        a.Emit(Opcode::kLocc, {Imm('A'), Imm(0), Abs(kDataBase)});
    });
    EXPECT_TRUE(m().psl().z);
    EXPECT_EQ(m().reg(0), 0u);
    EXPECT_EQ(m().reg(1), kDataBase);
}

TEST_F(CpuTest, RemqueOnSoleEntrySetsZ)
{
    const uint32_t head = kDataBase;
    const uint32_t e1 = kDataBase + 0x20;
    RunProgram([&](Assembler& a) {
        a.Emit(Opcode::kMovl, {Imm(head), Abs(head)});
        a.Emit(Opcode::kMovl, {Imm(head), Abs(head + 4)});
        a.Emit(Opcode::kInsque, {Abs(e1), Abs(head)});
        a.Emit(Opcode::kRemque, {Abs(e1), R(7)});
    });
    EXPECT_TRUE(m().psl().z);  // queue empty again
    EXPECT_EQ(m().memory().Read32(head), head);      // self-linked
    EXPECT_EQ(m().memory().Read32(head + 4), head);
}

}  // namespace
}  // namespace atum::cpu
