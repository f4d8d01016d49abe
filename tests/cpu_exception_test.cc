// Tests for the exception/interrupt machinery: CHMK dispatch and return,
// mode/stack banking, restartable page faults with side-effect rollback,
// privileged-instruction enforcement, timer interrupts, and the
// SVPCTX/LDPCTX context-switch microcode.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "assembler/assembler.h"
#include "cpu/machine.h"
#include "mmu/mmu.h"
#include "util/serialize.h"

namespace atum::cpu {
namespace {

using assembler::Abs;
using assembler::Assembler;
using assembler::Imm;
using assembler::Inc;
using assembler::Label;
using assembler::Program;
using assembler::R;
using isa::Opcode;

constexpr uint32_t kScb = 0x0;
constexpr uint32_t kKernelStackTop = 0x900;
constexpr uint32_t kMark0 = 0x5000;
constexpr uint32_t kMark1 = 0x5004;
constexpr uint32_t kMark2 = 0x5008;

class ExceptionTest : public ::testing::Test
{
  protected:
    ExceptionTest()
    {
        Machine::Config config;
        config.mem_bytes = 256 * kPageBytes;
        machine_ = std::make_unique<Machine>(config);
        machine_->WriteIpr(isa::Ipr::kScbb, kScb);
        machine_->WriteIpr(isa::Ipr::kKsp, kKernelStackTop);
    }

    void Load(const Program& p)
    {
        machine_->memory().WriteBlock(p.origin, p.bytes.data(), p.size());
    }

    void SetVector(ExcVector v, uint32_t handler)
    {
        machine_->memory().Write32(kScb + 4 * static_cast<uint32_t>(v),
                                   handler);
    }

    /** Installs a HALT at `addr` and points every vector at it, so any
     *  unexpected exception terminates the run visibly. */
    void DefaultVectors(uint32_t addr = 0x7f0)
    {
        machine_->memory().Write8(addr, static_cast<uint8_t>(Opcode::kHalt));
        for (uint32_t v = 0;
             v < static_cast<uint32_t>(ExcVector::kNumVectors); ++v) {
            machine_->memory().Write32(kScb + 4 * v, addr);
        }
    }

    Machine& m() { return *machine_; }

    std::unique_ptr<Machine> machine_;
};

TEST_F(ExceptionTest, ChmkRoundTripThroughUserMode)
{
    DefaultVectors();

    // Kernel entry: set USP, push a user-mode frame, REI into user code.
    Assembler kcode(0x1000);
    Psl user_psl;
    user_psl.cur_mode = CpuMode::kUser;
    user_psl.prev_mode = CpuMode::kUser;
    kcode.Emit(Opcode::kMtpr,
               {Imm(0x7000), Imm(static_cast<uint32_t>(isa::Ipr::kUsp))});
    kcode.Emit(Opcode::kPushl, {Imm(user_psl.ToWord())});
    kcode.Emit(Opcode::kPushl, {Imm(0x3000)});
    kcode.Emit(Opcode::kRei);
    Load(kcode.Finish());

    // User code: make a syscall, record that it returned, then exit.
    Assembler ucode(0x3000);
    ucode.Emit(Opcode::kChmk, {Imm(42)});
    ucode.Emit(Opcode::kMovl, {Imm(1), Abs(kMark0)});
    ucode.Emit(Opcode::kChmk, {Imm(0)});
    Load(ucode.Finish());

    // CHMK handler: code 0 halts, anything else is recorded and returned.
    Assembler handler(0x2000);
    Label do_halt = handler.NewLabel("do_halt");
    handler.Emit(Opcode::kMovl, {Inc(isa::kRegSp), R(10)});
    handler.Emit(Opcode::kTstl, {R(10)});
    handler.Emit(Opcode::kBeql, {}, do_halt);
    handler.Emit(Opcode::kMovl, {R(10), Abs(kMark1)});
    handler.Emit(Opcode::kMovl, {R(isa::kRegSp), Abs(kMark2)});
    handler.Emit(Opcode::kRei);
    handler.Bind(do_halt);
    handler.Emit(Opcode::kHalt);
    Load(handler.Finish());
    SetVector(ExcVector::kChmk, 0x2000);

    m().set_pc(0x1000);
    const auto result = m().Run(10000);
    ASSERT_EQ(result.reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().memory().Read32(kMark1), 42u);
    EXPECT_EQ(m().memory().Read32(kMark0), 1u);
    // Handler ran on the kernel stack (frame of 2 longs below the top).
    EXPECT_EQ(m().memory().Read32(kMark2), kKernelStackTop - 8);
    EXPECT_EQ(m().psl().cur_mode, CpuMode::kKernel);
}

TEST_F(ExceptionTest, UserStackIsBankedSeparately)
{
    DefaultVectors();

    Assembler kcode(0x1000);
    Psl user_psl;
    user_psl.cur_mode = CpuMode::kUser;
    user_psl.prev_mode = CpuMode::kUser;
    kcode.Emit(Opcode::kMtpr,
               {Imm(0x7000), Imm(static_cast<uint32_t>(isa::Ipr::kUsp))});
    kcode.Emit(Opcode::kPushl, {Imm(user_psl.ToWord())});
    kcode.Emit(Opcode::kPushl, {Imm(0x3000)});
    kcode.Emit(Opcode::kRei);
    Load(kcode.Finish());

    Assembler ucode(0x3000);
    ucode.Emit(Opcode::kPushl, {Imm(1234)});  // uses the user stack
    ucode.Emit(Opcode::kChmk, {Imm(0)});
    Load(ucode.Finish());

    Assembler handler(0x2000);
    handler.Emit(Opcode::kHalt);
    Load(handler.Finish());
    SetVector(ExcVector::kChmk, 0x2000);

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(10000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().memory().Read32(0x7000 - 4), 1234u);
    // While halted in the handler, the banked user SP reflects the push.
    EXPECT_EQ(m().ReadIpr(isa::Ipr::kUsp), 0x7000u - 4);
}

TEST_F(ExceptionTest, PrivilegedInstructionFromUserVectors)
{
    DefaultVectors();

    Assembler kcode(0x1000);
    Psl user_psl;
    user_psl.cur_mode = CpuMode::kUser;
    user_psl.prev_mode = CpuMode::kUser;
    kcode.Emit(Opcode::kMtpr,
               {Imm(0x7000), Imm(static_cast<uint32_t>(isa::Ipr::kUsp))});
    kcode.Emit(Opcode::kPushl, {Imm(user_psl.ToWord())});
    kcode.Emit(Opcode::kPushl, {Imm(0x3000)});
    kcode.Emit(Opcode::kRei);
    Load(kcode.Finish());

    Assembler ucode(0x3000);
    ucode.Emit(Opcode::kMtpr,
               {Imm(1), Imm(static_cast<uint32_t>(isa::Ipr::kMapen))});
    Load(ucode.Finish());

    Assembler handler(0x2100);
    handler.Emit(Opcode::kMovl, {Imm(0xbad), Abs(kMark0)});
    handler.Emit(Opcode::kHalt);
    Load(handler.Finish());
    SetVector(ExcVector::kPrivInstr, 0x2100);

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(10000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().memory().Read32(kMark0), 0xbadu);
    // MAPEN must not have been written.
    EXPECT_EQ(m().ReadIpr(isa::Ipr::kMapen), 0u);
}

TEST_F(ExceptionTest, ReservedOperandVectors)
{
    DefaultVectors();
    Assembler code(0x1000);
    // jmp r3: a register has no address -> reserved operand.
    code.Emit(Opcode::kNop);
    Program p = code.Finish();
    Load(p);
    // Hand-assemble the illegal form (the assembler refuses to emit it).
    m().memory().Write8(0x1001, static_cast<uint8_t>(Opcode::kJmp));
    m().memory().Write8(0x1002, isa::SpecifierByte(isa::AddrMode::kReg, 3));

    Assembler handler(0x2200);
    handler.Emit(Opcode::kMovl, {Imm(77), Abs(kMark0)});
    handler.Emit(Opcode::kHalt);
    Load(handler.Finish());
    SetVector(ExcVector::kReservedOperand, 0x2200);

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().memory().Read32(kMark0), 77u);
}

TEST_F(ExceptionTest, DivideByZeroTraps)
{
    DefaultVectors();
    Assembler code(0x1000);
    code.Emit(Opcode::kClrl, {R(1)});
    code.Emit(Opcode::kDivl2, {R(1), R(2)});
    code.Emit(Opcode::kHalt);  // never reached; trap handler halts
    Load(code.Finish());

    Assembler handler(0x2300);
    handler.Emit(Opcode::kMovl, {Imm(55), Abs(kMark0)});
    handler.Emit(Opcode::kHalt);
    Load(handler.Finish());
    SetVector(ExcVector::kArith, 0x2300);

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().memory().Read32(kMark0), 55u);
}

TEST_F(ExceptionTest, TimerInterruptFiresAndReturns)
{
    DefaultVectors();
    // Handler: count ticks, REI.
    Assembler handler(0x2400);
    handler.Emit(Opcode::kIncl, {Abs(kMark0)});
    handler.Emit(Opcode::kRei);
    Load(handler.Finish());
    SetVector(ExcVector::kTimer, 0x2400);

    // Main: enable the clock, spin, halt.
    Assembler code(0x1000);
    code.Emit(Opcode::kMtpr,
              {Imm(100), Imm(static_cast<uint32_t>(isa::Ipr::kIcr))});
    code.Emit(Opcode::kMtpr,
              {Imm(1), Imm(static_cast<uint32_t>(isa::Ipr::kIccs))});
    code.Emit(Opcode::kMovl, {Imm(2000), R(1)});
    Label loop = code.Here("loop");
    code.Emit(Opcode::kSobgtr, {R(1)}, loop);
    code.Emit(Opcode::kHalt);
    Load(code.Finish());

    // Interrupts are only delivered below the timer IPL.
    m().psl().ipl = 0;
    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(100000).reason, Machine::StopReason::kHalted);
    EXPECT_GE(m().memory().Read32(kMark0), 15u);
}

TEST_F(ExceptionTest, PageFaultRestartRollsBackAutoincrement)
{
    DefaultVectors();
    // P0 maps pages 0..63 identity except page 8, which the fault handler
    // installs on demand. The P0 table lives at physical 0x7000 (page 56),
    // itself identity-mapped so the handler can write the missing PTE.
    const uint32_t table = 0x7000;
    constexpr uint32_t kFaultPage = 45;  // va 0x5a00, away from the code
    for (uint32_t page = 0; page < 64; ++page) {
        const uint32_t pte =
            page == kFaultPage ? 0 : mmu::MakePte(page, /*user=*/true, true);
        m().memory().Write32(table + 4 * page, pte);
    }
    m().WriteIpr(isa::Ipr::kP0Br, table);
    m().WriteIpr(isa::Ipr::kP0Lr, 64);

    // Fault handler: install the PTE for page 8, TBIS, count, REI.
    Assembler handler(0x2500);
    handler.Emit(Opcode::kMovl, {Inc(isa::kRegSp), R(10)});  // va
    handler.Emit(Opcode::kMovl, {Inc(isa::kRegSp), R(11)});  // reason
    handler.Emit(Opcode::kMovl,
                 {Imm(mmu::MakePte(60, true, true)),
                  Abs(table + 4 * kFaultPage)});
    handler.Emit(Opcode::kMtpr,
                 {R(10), Imm(static_cast<uint32_t>(isa::Ipr::kTbis))});
    handler.Emit(Opcode::kIncl, {Abs(kMark1)});
    handler.Emit(Opcode::kRei);
    Load(handler.Finish());
    SetVector(ExcVector::kTnv, 0x2500);

    // Main: autoincrement load from the unmapped page; the specifier's
    // side effect must be rolled back and re-applied exactly once.
    Assembler code(0x1000);
    code.Emit(Opcode::kMovl, {Imm(kFaultPage * kPageBytes), R(2)});
    code.Emit(Opcode::kMovl, {Inc(2), R(3)});
    code.Emit(Opcode::kHalt);
    Load(code.Finish());

    m().set_pc(0x1000);
    m().WriteIpr(isa::Ipr::kMapen, 1);
    ASSERT_EQ(m().Run(1000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().reg(2), kFaultPage * kPageBytes + 4);  // one increment
    EXPECT_EQ(m().reg(3), 0u);  // frame 60 is untouched (zero)
    EXPECT_EQ(m().memory().Read32(kMark1), 1u);  // exactly one fault
}

TEST_F(ExceptionTest, SvpctxLdpctxRoundTrip)
{
    DefaultVectors();
    const uint32_t pcb_a = 0x4000;
    const uint32_t pcb_b = 0x4100;

    // PCB B describes a "process" that runs at 0x3000 in kernel mode
    // with r5 preloaded.
    Psl b_psl;
    b_psl.cur_mode = CpuMode::kKernel;
    b_psl.prev_mode = CpuMode::kKernel;
    m().memory().Write32(pcb_b + PcbLayout::kRegs + 4 * 5, 4242);
    m().memory().Write32(pcb_b + PcbLayout::kPc, 0x3000);
    m().memory().Write32(pcb_b + PcbLayout::kPsl, b_psl.ToWord());
    m().memory().Write32(pcb_b + PcbLayout::kPid, 7);

    // Code at 0x3000: the target context stores r5 and halts.
    Assembler target(0x3000);
    target.Emit(Opcode::kMovl, {R(5), Abs(kMark0)});
    target.Emit(Opcode::kHalt);
    Load(target.Finish());

    // Main: fake an interrupt frame, SVPCTX into A, switch PCBB to B,
    // LDPCTX, REI -> runs the target.
    Assembler code(0x1000);
    code.Emit(Opcode::kMtpr,
              {Imm(pcb_a), Imm(static_cast<uint32_t>(isa::Ipr::kPcbb))});
    code.Emit(Opcode::kMovl, {Imm(111), R(3)});
    code.Emit(Opcode::kPushl, {Imm(m().psl().ToWord())});  // frame: psl
    code.Emit(Opcode::kPushl, {Imm(0x1f00)});              // frame: pc
    code.Emit(Opcode::kSvpctx);
    code.Emit(Opcode::kMtpr,
              {Imm(pcb_b), Imm(static_cast<uint32_t>(isa::Ipr::kPcbb))});
    code.Emit(Opcode::kLdpctx);
    code.Emit(Opcode::kRei);
    Load(code.Finish());

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(1000).reason, Machine::StopReason::kHalted);
    // Context A captured r3 and the fake frame.
    EXPECT_EQ(m().memory().Read32(pcb_a + PcbLayout::kRegs + 4 * 3), 111u);
    EXPECT_EQ(m().memory().Read32(pcb_a + PcbLayout::kPc), 0x1f00u);
    // Context B ran with its saved register and pid.
    EXPECT_EQ(m().memory().Read32(kMark0), 4242u);
    EXPECT_EQ(m().ReadIpr(isa::Ipr::kPid), 7u);
}

TEST_F(ExceptionTest, ContextSwitchPatchFiresOnLdpctx)
{
    DefaultVectors();
    const uint32_t pcb = 0x4000;
    Psl psl;
    psl.cur_mode = CpuMode::kKernel;
    m().memory().Write32(pcb + PcbLayout::kPc, 0x3000);
    m().memory().Write32(pcb + PcbLayout::kPsl, psl.ToWord());
    m().memory().Write32(pcb + PcbLayout::kPid, 3);

    Assembler target(0x3000);
    target.Emit(Opcode::kHalt);
    Load(target.Finish());

    Assembler code(0x1000);
    code.Emit(Opcode::kMtpr,
              {Imm(pcb), Imm(static_cast<uint32_t>(isa::Ipr::kPcbb))});
    code.Emit(Opcode::kLdpctx);
    code.Emit(Opcode::kRei);
    Load(code.Finish());

    uint16_t seen_pid = 0;
    uint32_t seen_pcb = 0;
    m().control_store().PatchContextSwitch(
        [&](uint16_t pid, uint32_t pcb_pa) -> uint32_t {
            seen_pid = pid;
            seen_pcb = pcb_pa;
            return 0;
        });

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(1000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(seen_pid, 3u);
    EXPECT_EQ(seen_pcb, pcb);
}

TEST_F(ExceptionTest, IprConsoleAndPidRoundTrip)
{
    m().WriteIpr(isa::Ipr::kConsTx, 'h');
    m().WriteIpr(isa::Ipr::kConsTx, 'i');
    EXPECT_EQ(m().console_output(), "hi");
    m().WriteIpr(isa::Ipr::kPid, 9);
    EXPECT_EQ(m().ReadIpr(isa::Ipr::kPid), 9u);
    EXPECT_EQ(m().ReadIpr(isa::Ipr::kConsTx), 0u);
}

TEST_F(ExceptionTest, HaltedMachineStaysHalted)
{
    DefaultVectors();
    Assembler code(0x1000);
    code.Emit(Opcode::kHalt);
    Load(code.Finish());
    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(10).reason, Machine::StopReason::kHalted);
    const uint64_t icount = m().icount();
    m().StepOne();  // no-op
    EXPECT_EQ(m().icount(), icount);
    m().ClearHalt();
    EXPECT_FALSE(m().halted());
}


/** The machine's complete state, through the checkpoint serializer. */
std::vector<uint8_t>
SaveState(const Machine& machine)
{
    util::StateWriter w;
    EXPECT_TRUE(machine.Save(w).ok());
    return w.Take();
}

void
RestoreState(Machine& machine, const std::vector<uint8_t>& bytes)
{
    util::StateReader r(bytes);
    const util::Status status = machine.Restore(r);
    EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ExceptionTest, SnapshotRestoreReplaysDeterministically)
{
    // Run a self-modifying-ish program with interrupts, snapshot mid-way,
    // finish, then restore and finish again: identical end state.
    DefaultVectors();
    Assembler handler(0x2400);
    handler.Emit(Opcode::kIncl, {Abs(kMark0)});
    handler.Emit(Opcode::kRei);
    Load(handler.Finish());
    SetVector(ExcVector::kTimer, 0x2400);

    Assembler code(0x1000);
    code.Emit(Opcode::kMtpr,
              {Imm(50), Imm(static_cast<uint32_t>(isa::Ipr::kIcr))});
    code.Emit(Opcode::kMtpr,
              {Imm(1), Imm(static_cast<uint32_t>(isa::Ipr::kIccs))});
    code.Emit(Opcode::kMovl, {Imm(3000), R(1)});
    code.Emit(Opcode::kClrl, {R(2)});
    Label loop = code.Here("loop");
    code.Emit(Opcode::kAddl2, {R(1), R(2)});
    code.Emit(Opcode::kSobgtr, {R(1)}, loop);
    code.Emit(Opcode::kHalt);
    Load(code.Finish());

    m().psl().ipl = 0;
    m().set_pc(0x1000);
    m().Run(1000);  // part-way through
    const std::vector<uint8_t> snap = SaveState(m());
    ASSERT_FALSE(m().halted());

    ASSERT_EQ(m().Run(1'000'000).reason, Machine::StopReason::kHalted);
    const uint32_t first_r2 = m().reg(2);
    const uint32_t first_ticks = m().memory().Read32(kMark0);
    const uint64_t first_icount = m().icount();

    RestoreState(m(), snap);
    ASSERT_FALSE(m().halted());
    ASSERT_EQ(m().Run(1'000'000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m().reg(2), first_r2);
    EXPECT_EQ(m().memory().Read32(kMark0), first_ticks);
    EXPECT_EQ(m().icount(), first_icount);
}

TEST_F(ExceptionTest, SnapshotRestoresConsoleAndHaltState)
{
    DefaultVectors();
    Assembler code(0x1000);
    code.Emit(Opcode::kMtpr,
              {Imm('a'), Imm(static_cast<uint32_t>(isa::Ipr::kConsTx))});
    code.Emit(Opcode::kHalt);
    Load(code.Finish());
    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(10).reason, Machine::StopReason::kHalted);
    const std::vector<uint8_t> snap = SaveState(m());

    m().ClearHalt();
    m().WriteIpr(isa::Ipr::kConsTx, 'z');
    RestoreState(m(), snap);
    EXPECT_TRUE(m().halted());
    EXPECT_EQ(m().console_output(), "a");
}

}  // namespace
}  // namespace atum::cpu
