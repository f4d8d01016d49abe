// Tests for the exception/interrupt machinery: CHMK dispatch and return,
// mode/stack banking, restartable page faults with side-effect rollback,
// privileged-instruction enforcement, timer interrupts, and the
// SVPCTX/LDPCTX context-switch microcode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
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

// --- Operand-specifier legality -----------------------------------------
//
// One hand-assembled instruction per case, run on a fresh machine with
// r1 = 0, r2 = kSpecData and a small data image around kSpecData. Every
// SCB vector points at its own stub, which stores the vector number at
// kMark0 and halts, so a case asserts either the vector taken (with the
// rolled-back registers and the restart PC on the kernel stack) or the
// operand value and the register side effects of a completed instruction.

constexpr uint32_t kSpecCode = 0x1000;
constexpr uint32_t kSpecData = 0x6000;
constexpr uint32_t kSpecStubs = 0x2000;
constexpr uint32_t kNoVector = 0xffffffffu;

struct SpecCase {
    std::string name;
    std::vector<uint8_t> code;  ///< one instruction; zero bytes (HALT) follow
    uint32_t vector;            ///< ExcVector taken, or kNoVector
    uint32_t r1;
    uint32_t r2;
    uint32_t mem_addr = 0;      ///< a longword to check, if nonzero
    uint32_t mem_value = 0;
};

std::vector<uint8_t>
Bytes(std::initializer_list<uint32_t> parts)
{
    std::vector<uint8_t> out;
    for (uint32_t p : parts)
        out.push_back(static_cast<uint8_t>(p));
    return out;
}

std::vector<uint8_t>
Le32(uint32_t v)
{
    return Bytes({v, v >> 8, v >> 16, v >> 24});
}

std::vector<uint8_t>
Cat(std::initializer_list<std::vector<uint8_t>> parts)
{
    std::vector<uint8_t> out;
    for (const auto& p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

uint8_t
Op(Opcode op)
{
    return static_cast<uint8_t>(op);
}

uint8_t
Sp(isa::AddrMode mode, unsigned reg)
{
    return isa::SpecifierByte(mode, reg);
}

void
RunSpecCase(const SpecCase& c)
{
    SCOPED_TRACE(c.name);
    Machine::Config config;
    config.mem_bytes = 256 * kPageBytes;
    Machine m(config);
    m.WriteIpr(isa::Ipr::kScbb, kScb);
    m.WriteIpr(isa::Ipr::kKsp, kKernelStackTop);
    for (uint32_t v = 0; v < static_cast<uint32_t>(ExcVector::kNumVectors);
         ++v) {
        Assembler stub(kSpecStubs + 0x10 * v);
        stub.Emit(Opcode::kMovl, {Imm(v), Abs(kMark0)});
        stub.Emit(Opcode::kHalt);
        const Program p = stub.Finish();
        m.memory().WriteBlock(p.origin, p.bytes.data(), p.size());
        m.memory().Write32(kScb + 4 * v, p.origin);
    }
    m.memory().Write32(kMark0, kNoVector);
    m.memory().Write32(kSpecData - 4, 0xa0a1a2a3);
    m.memory().Write32(kSpecData, 0x11223344);
    m.memory().Write32(kSpecData + 4, 0x55667788);
    m.memory().Write32(kSpecData + 8, kSpecData + 0x10);  // a pointer
    m.memory().Write32(kSpecData + 0x10, 0x99aabbcc);
    m.memory().WriteBlock(kSpecCode, c.code.data(), c.code.size());
    m.set_reg(1, 0);
    m.set_reg(2, kSpecData);
    m.set_pc(kSpecCode);

    ASSERT_EQ(m.Run(100).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(m.memory().Read32(kMark0), c.vector);
    if (c.vector != kNoVector) {
        // The fault frame restarts the instruction itself.
        EXPECT_EQ(m.reg(isa::kRegSp), kKernelStackTop - 8);
        EXPECT_EQ(m.memory().Read32(kKernelStackTop - 8), kSpecCode);
    } else {
        EXPECT_EQ(m.pc(), kSpecCode + c.code.size() + 1);  // past the HALT
    }
    EXPECT_EQ(m.reg(1), c.r1);
    EXPECT_EQ(m.reg(2), c.r2);
    if (c.mem_addr != 0) {
        EXPECT_EQ(m.memory().Read32(c.mem_addr), c.mem_value);
    }
}

TEST(SpecifierLegality, EveryModeAndAccessClass)
{
    using isa::AddrMode;
    constexpr uint32_t kRo = static_cast<uint32_t>(ExcVector::kReservedOperand);
    constexpr uint32_t kNone = kNoVector;
    constexpr uint32_t d = kSpecData;
    const uint8_t r1 = Sp(AddrMode::kReg, 1);
    const uint8_t movl = Op(Opcode::kMovl);
    const uint8_t movb = Op(Opcode::kMovb);
    const uint8_t movw = Op(Opcode::kMovw);
    const uint8_t clrl = Op(Opcode::kClrl);
    const uint8_t incl = Op(Opcode::kIncl);
    const uint8_t moval = Op(Opcode::kMoval);

    // Read (movl/movb/movw SPEC, r1), write (clrl SPEC), modify
    // (incl SPEC) and address (moval SPEC, r1) for each mode.
    std::vector<SpecCase> cases = {
        // Rn: no address.
        {"reg/read", Bytes({movl, Sp(AddrMode::kReg, 2), r1}), kNone, d, d},
        {"reg/write", Bytes({clrl, Sp(AddrMode::kReg, 2)}), kNone, 0, 0},
        {"reg/modify", Bytes({incl, Sp(AddrMode::kReg, 2)}), kNone, 0, d + 1},
        {"reg/address", Bytes({moval, Sp(AddrMode::kReg, 2), r1}), kRo, 0, d},
        {"reg/read-byte-merges",
         Bytes({movb, Sp(AddrMode::kRegDef, 2), Sp(AddrMode::kReg, 2)}),
         kNone, 0, (d & ~0xffu) | 0x44},

        // (Rn)
        {"regdef/read", Bytes({movl, Sp(AddrMode::kRegDef, 2), r1}), kNone,
         0x11223344, d},
        {"regdef/write", Bytes({clrl, Sp(AddrMode::kRegDef, 2)}), kNone, 0, d,
         d, 0},
        {"regdef/modify", Bytes({incl, Sp(AddrMode::kRegDef, 2)}), kNone, 0,
         d, d, 0x11223345},
        {"regdef/address", Bytes({moval, Sp(AddrMode::kRegDef, 2), r1}),
         kNone, d, d},

        // (Rn)+ steps by the operand size, once, for every access class.
        {"autoinc/read-long", Bytes({movl, Sp(AddrMode::kAutoInc, 2), r1}),
         kNone, 0x11223344, d + 4},
        {"autoinc/read-byte", Bytes({movb, Sp(AddrMode::kAutoInc, 2), r1}),
         kNone, 0x44, d + 1},
        {"autoinc/read-word", Bytes({movw, Sp(AddrMode::kAutoInc, 2), r1}),
         kNone, 0x3344, d + 2},
        {"autoinc/write", Bytes({clrl, Sp(AddrMode::kAutoInc, 2)}), kNone, 0,
         d + 4, d, 0},
        {"autoinc/modify", Bytes({incl, Sp(AddrMode::kAutoInc, 2)}), kNone, 0,
         d + 4, d, 0x11223345},
        {"autoinc/address", Bytes({moval, Sp(AddrMode::kAutoInc, 2), r1}),
         kNone, d, d + 4},
        {"autoinc-pc/read", Bytes({movl, Sp(AddrMode::kAutoInc, 15), r1}),
         kRo, 0, d},
        {"autoinc-pc/write", Bytes({clrl, Sp(AddrMode::kAutoInc, 15)}), kRo,
         0, d},
        {"autoinc-pc/modify", Bytes({incl, Sp(AddrMode::kAutoInc, 15)}), kRo,
         0, d},
        {"autoinc-pc/address", Bytes({moval, Sp(AddrMode::kAutoInc, 15), r1}),
         kRo, 0, d},

        // -(Rn)
        {"autodec/read-long", Bytes({movl, Sp(AddrMode::kAutoDec, 2), r1}),
         kNone, 0xa0a1a2a3, d - 4},
        {"autodec/read-byte", Bytes({movb, Sp(AddrMode::kAutoDec, 2), r1}),
         kNone, 0xa0, d - 1},
        {"autodec/read-word", Bytes({movw, Sp(AddrMode::kAutoDec, 2), r1}),
         kNone, 0xa0a1, d - 2},
        {"autodec/write", Bytes({clrl, Sp(AddrMode::kAutoDec, 2)}), kNone, 0,
         d - 4, d - 4, 0},
        {"autodec/modify", Bytes({incl, Sp(AddrMode::kAutoDec, 2)}), kNone, 0,
         d - 4, d - 4, 0xa0a1a2a4},
        {"autodec/address", Bytes({moval, Sp(AddrMode::kAutoDec, 2), r1}),
         kNone, d - 4, d - 4},
        {"autodec-pc/read", Bytes({movl, Sp(AddrMode::kAutoDec, 15), r1}),
         kRo, 0, d},
        {"autodec-pc/write", Bytes({clrl, Sp(AddrMode::kAutoDec, 15)}), kRo,
         0, d},
        {"autodec-pc/modify", Bytes({incl, Sp(AddrMode::kAutoDec, 15)}), kRo,
         0, d},
        {"autodec-pc/address", Bytes({moval, Sp(AddrMode::kAutoDec, 15), r1}),
         kRo, 0, d},

        // d8(Rn), sign-extended; PC-based uses the PC past the displacement.
        {"disp8/read", Bytes({movl, Sp(AddrMode::kDisp8, 2), 4, r1}), kNone,
         0x55667788, d},
        {"disp8/read-negative", Bytes({movl, Sp(AddrMode::kDisp8, 2), 0xfc, r1}),
         kNone, 0xa0a1a2a3, d},
        {"disp8/write", Bytes({clrl, Sp(AddrMode::kDisp8, 2), 4}), kNone, 0, d,
         d + 4, 0},
        {"disp8/modify", Bytes({incl, Sp(AddrMode::kDisp8, 2), 4}), kNone, 0,
         d, d + 4, 0x55667789},
        {"disp8/address", Bytes({moval, Sp(AddrMode::kDisp8, 2), 4, r1}),
         kNone, d + 4, d},
        {"disp8-pc/address", Bytes({moval, Sp(AddrMode::kDisp8, 15), 0x10, r1}),
         kNone, kSpecCode + 3 + 0x10, d},

        // d32(Rn)
        {"disp32/read",
         Cat({Bytes({movl, Sp(AddrMode::kDisp32, 2)}), Le32(8), Bytes({r1})}),
         kNone, d + 0x10, d},
        {"disp32/write", Cat({Bytes({clrl, Sp(AddrMode::kDisp32, 2)}), Le32(4)}),
         kNone, 0, d, d + 4, 0},
        {"disp32/modify",
         Cat({Bytes({incl, Sp(AddrMode::kDisp32, 2)}), Le32(4)}), kNone, 0, d,
         d + 4, 0x55667789},
        {"disp32/address",
         Cat({Bytes({moval, Sp(AddrMode::kDisp32, 2)}), Le32(0x100),
              Bytes({r1})}),
         kNone, d + 0x100, d},
        {"disp32-pc/address",
         Cat({Bytes({moval, Sp(AddrMode::kDisp32, 15)}), Le32(0x20),
              Bytes({r1})}),
         kNone, kSpecCode + 6 + 0x20, d},

        // @d32(Rn): one indirection through memory.
        {"disp32def/read",
         Cat({Bytes({movl, Sp(AddrMode::kDisp32Def, 2)}), Le32(8),
              Bytes({r1})}),
         kNone, 0x99aabbcc, d},
        {"disp32def/write",
         Cat({Bytes({clrl, Sp(AddrMode::kDisp32Def, 2)}), Le32(8)}), kNone, 0,
         d, d + 0x10, 0},
        {"disp32def/modify",
         Cat({Bytes({incl, Sp(AddrMode::kDisp32Def, 2)}), Le32(8)}), kNone, 0,
         d, d + 0x10, 0x99aabbcd},
        {"disp32def/address",
         Cat({Bytes({moval, Sp(AddrMode::kDisp32Def, 2)}), Le32(8),
              Bytes({r1})}),
         kNone, d + 0x10, d},

        // #literal: read only; the extension is operand-sized.
        {"imm/read-long",
         Cat({Bytes({movl, Sp(AddrMode::kImm, 0)}), Le32(0xdeadbeef),
              Bytes({r1})}),
         kNone, 0xdeadbeef, d},
        {"imm/read-byte", Bytes({movb, Sp(AddrMode::kImm, 0), 0x7f, r1}),
         kNone, 0x7f, d},
        {"imm/read-word", Bytes({movw, Sp(AddrMode::kImm, 0), 0x34, 0x12, r1}),
         kNone, 0x1234, d},
        {"imm/write", Cat({Bytes({clrl, Sp(AddrMode::kImm, 0)}), Le32(1)}),
         kRo, 0, d},
        {"imm/modify", Cat({Bytes({incl, Sp(AddrMode::kImm, 0)}), Le32(1)}),
         kRo, 0, d},
        {"imm/address",
         Cat({Bytes({moval, Sp(AddrMode::kImm, 0)}), Le32(1), Bytes({r1})}),
         kRo, 0, d},

        // @#address
        {"abs/read",
         Cat({Bytes({movl, Sp(AddrMode::kAbs, 0)}), Le32(d + 4), Bytes({r1})}),
         kNone, 0x55667788, d},
        {"abs/write", Cat({Bytes({clrl, Sp(AddrMode::kAbs, 0)}), Le32(d + 4)}),
         kNone, 0, d, d + 4, 0},
        {"abs/modify", Cat({Bytes({incl, Sp(AddrMode::kAbs, 0)}), Le32(d + 4)}),
         kNone, 0, d, d + 4, 0x55667789},
        {"abs/address",
         Cat({Bytes({moval, Sp(AddrMode::kAbs, 0)}), Le32(d + 4),
              Bytes({r1})}),
         kNone, d + 4, d},

        // An earlier operand's autoincrement/decrement and its memory read
        // are rolled back when a later specifier faults.
        {"rollback/autoinc-then-reserved-mode",
         Bytes({movl, Sp(AddrMode::kAutoInc, 2), 0x92}), kRo, 0, d},
        {"rollback/autoinc-then-imm-write",
         Cat({Bytes({movl, Sp(AddrMode::kAutoInc, 2), Sp(AddrMode::kImm, 0)}),
              Le32(5)}),
         kRo, 0, d},
        {"rollback/autodec-then-imm-modify",
         Cat({Bytes({Op(Opcode::kAddl2), Sp(AddrMode::kAutoDec, 2),
                     Sp(AddrMode::kImm, 0)}),
              Le32(1)}),
         kRo, 0, d, d - 4, 0xa0a1a2a3},
        {"rollback/autoinc-then-autoinc-pc",
         Bytes({Op(Opcode::kAddl3), Sp(AddrMode::kAutoInc, 2),
                Sp(AddrMode::kAutoInc, 2), Sp(AddrMode::kAutoInc, 15)}),
         kRo, 0, d},
        {"rollback/autoinc-then-reg-address",
         Bytes({Op(Opcode::kMovc3), Sp(AddrMode::kAutoInc, 2),
                Sp(AddrMode::kReg, 3), Sp(AddrMode::kReg, 4)}),
         kRo, 0, d},
    };

    // Mode bits 9..15 are reserved for every access class.
    for (unsigned mode = isa::kNumAddrModes; mode < 16; ++mode) {
        const uint8_t spec = static_cast<uint8_t>(mode << 4 | 2);
        const std::string m = "mode" + std::to_string(mode);
        cases.push_back({m + "/read", Bytes({movl, spec, r1}), kRo, 0, d});
        cases.push_back({m + "/write", Bytes({clrl, spec}), kRo, 0, d});
        cases.push_back({m + "/modify", Bytes({incl, spec}), kRo, 0, d});
        cases.push_back({m + "/address", Bytes({moval, spec, r1}), kRo, 0, d});
    }

    for (const SpecCase& c : cases)
        RunSpecCase(c);
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

TEST(InterruptPriority, PendingLatchesDeliverByIplMask)
{
    constexpr uint32_t kHandlers = 0x2000;
    const ExcVector kDma = ExcVector::kDmaDone;
    const ExcVector kTimer = ExcVector::kTimer;
    const ExcVector kSoft = ExcVector::kSoftware;

    // At each IPL, the interrupts deliverable there (in priority order),
    // then those left pending, delivered once IPL drops to 0.
    struct Level {
        uint8_t ipl;
        std::vector<ExcVector> delivered;
        std::vector<ExcVector> still_pending;
    };
    const std::vector<Level> levels = {
        {0, {kDma, kTimer, kSoft}, {}},
        {4, {kDma, kTimer}, {kSoft}},
        {20, {kDma}, {kTimer, kSoft}},
        {21, {}, {kDma, kTimer, kSoft}},
    };

    for (const Level& level : levels) {
        SCOPED_TRACE("ipl " + std::to_string(level.ipl));
        Machine::Config config;
        config.mem_bytes = 256 * kPageBytes;
        Machine m(config);
        m.WriteIpr(isa::Ipr::kScbb, kScb);
        m.WriteIpr(isa::Ipr::kKsp, kKernelStackTop);
        // Every handler and the main code are NOPs: a step either takes
        // one interrupt (landing on its handler) or retires one NOP.
        for (uint32_t a = 0; a < 0x100; ++a) {
            m.memory().Write8(0x1000 + a, static_cast<uint8_t>(Opcode::kNop));
            m.memory().Write8(kHandlers + a,
                              static_cast<uint8_t>(Opcode::kNop));
        }
        for (uint32_t v = 0; v < static_cast<uint32_t>(ExcVector::kNumVectors);
             ++v) {
            m.memory().Write32(kScb + 4 * v, kHandlers + 0x10 * v);
        }
        auto handler_of = [&](ExcVector v) {
            return kHandlers + 0x10 * static_cast<uint32_t>(v);
        };

        // Latch all three at IPL 31: a software request now, a clock
        // tick after the first instruction, DMA completion after nine.
        m.psl().ipl = 31;
        m.set_pc(0x1000);
        m.WriteIpr(isa::Ipr::kSirr, 1);
        m.WriteIpr(isa::Ipr::kIcr, 1);
        m.WriteIpr(isa::Ipr::kIccs, 1);
        m.WriteIpr(isa::Ipr::kDmaSrc, 0x6000);
        m.WriteIpr(isa::Ipr::kDmaDst, 0x6100);
        m.WriteIpr(isa::Ipr::kDmaLen, 4);
        m.WriteIpr(isa::Ipr::kDmaCtl, 1);
        for (int i = 0; i < 12; ++i) {
            m.StepOne();
            ASSERT_FALSE(m.LastStepFaulted());
        }
        ASSERT_EQ(m.ReadIpr(isa::Ipr::kDmaCtl), 0u);  // transfer complete
        m.WriteIpr(isa::Ipr::kIccs, 0);  // stop the clock; its latch stays
        const uint64_t icount = m.icount();

        // Deliveries at this level: each raises IPL to 31, so the test
        // drops it back before every step, until a step retires a NOP.
        for (ExcVector v : level.delivered) {
            m.psl().ipl = level.ipl;
            m.StepOne();
            ASSERT_TRUE(m.LastStepFaulted());
            EXPECT_EQ(m.pc(), handler_of(v));
        }
        m.psl().ipl = level.ipl;
        m.StepOne();
        EXPECT_FALSE(m.LastStepFaulted());
        EXPECT_EQ(m.icount(), icount + 1);  // deliveries retire nothing

        // What stayed pending is delivered at IPL 0, highest first.
        for (ExcVector v : level.still_pending) {
            m.psl().ipl = 0;
            m.StepOne();
            ASSERT_TRUE(m.LastStepFaulted());
            EXPECT_EQ(m.pc(), handler_of(v));
        }
        m.psl().ipl = 0;
        m.StepOne();
        EXPECT_FALSE(m.LastStepFaulted());
        EXPECT_EQ(m.icount(), icount + 2);
    }
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

    struct SwitchPatch : ucode::Patch {
        uint16_t seen_pid = 0;
        uint32_t seen_pcb = 0;
        uint32_t OnContextSwitch(uint16_t pid, uint32_t pcb_pa) override
        {
            seen_pid = pid;
            seen_pcb = pcb_pa;
            return 0;
        }
    } patch;
    m().control_store().Install(patch);

    m().set_pc(0x1000);
    ASSERT_EQ(m().Run(1000).reason, Machine::StopReason::kHalted);
    EXPECT_EQ(patch.seen_pid, 3u);
    EXPECT_EQ(patch.seen_pcb, pcb);
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
