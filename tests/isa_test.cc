// Unit tests for the ISA tables, the decoder, and the disassembler.

#include <gtest/gtest.h>

#include "isa/decoder.h"
#include "isa/disassembler.h"
#include "isa/isa.h"

namespace atum::isa {
namespace {

TEST(IsaTables, AllAssignedOpcodesHaveInfo)
{
    for (Opcode op : AllOpcodes()) {
        const InstrInfo& info = GetInstrInfo(op);
        EXPECT_TRUE(info.valid);
        EXPECT_NE(info.mnemonic[0], '?');
    }
    EXPECT_GE(AllOpcodes().size(), 55u);
}

TEST(IsaTables, UnassignedAreInvalid)
{
    EXPECT_FALSE(GetInstrInfo(uint8_t{0xff}).valid);
    EXPECT_FALSE(GetInstrInfo(uint8_t{0x0f}).valid);
    EXPECT_EQ(MnemonicOf(static_cast<Opcode>(0xff)), "?ff");
}

TEST(IsaTables, PrivilegedFlags)
{
    EXPECT_TRUE(GetInstrInfo(Opcode::kHalt).privileged);
    EXPECT_TRUE(GetInstrInfo(Opcode::kMtpr).privileged);
    EXPECT_TRUE(GetInstrInfo(Opcode::kLdpctx).privileged);
    EXPECT_FALSE(GetInstrInfo(Opcode::kMovl).privileged);
    EXPECT_FALSE(GetInstrInfo(Opcode::kChmk).privileged);
}

TEST(IsaTables, OpcodeGatesMatchInstrInfo)
{
    const uint8_t* gates = OpcodeGates();
    for (unsigned raw = 0; raw < 256; ++raw) {
        const InstrInfo& info = GetInstrInfo(static_cast<uint8_t>(raw));
        const uint8_t want = static_cast<uint8_t>(
            (info.valid ? kGateValid : 0) |
            (info.valid && info.privileged ? kGatePrivileged : 0));
        EXPECT_EQ(gates[raw], want) << "opcode 0x" << std::hex << raw;
    }
    EXPECT_EQ(OpcodeGates(), gates);  // one table, built once
}

TEST(IsaTables, BranchShapes)
{
    const InstrInfo& sob = GetInstrInfo(Opcode::kSobgtr);
    ASSERT_EQ(sob.operands.size(), 2u);
    EXPECT_EQ(sob.operands[0].access, Access::kModify);
    EXPECT_EQ(sob.operands[1].access, Access::kBranch8);

    const InstrInfo& brw = GetInstrInfo(Opcode::kBrw);
    ASSERT_EQ(brw.operands.size(), 1u);
    EXPECT_EQ(brw.operands[0].access, Access::kBranch16);
}

TEST(IsaTables, SpecifierByteEncoding)
{
    EXPECT_EQ(SpecifierByte(AddrMode::kReg, 3), 0x03);
    EXPECT_EQ(SpecifierByte(AddrMode::kAutoDec, 14), 0x3e);
    EXPECT_EQ(SpecifierByte(AddrMode::kAbs, 0), 0x80);
}

// --- decoder ----------------------------------------------------------

TEST(Decoder, RegisterToRegisterMove)
{
    // movl r1, r2
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kMovl),
        SpecifierByte(AddrMode::kReg, 1),
        SpecifierByte(AddrMode::kReg, 2),
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    EXPECT_EQ(inst->opcode, Opcode::kMovl);
    ASSERT_EQ(inst->operands.size(), 2u);
    EXPECT_EQ(inst->operands[0].mode, AddrMode::kReg);
    EXPECT_EQ(inst->operands[0].reg, 1);
    EXPECT_EQ(inst->operands[1].reg, 2);
    EXPECT_EQ(inst->length, 3u);
}

TEST(Decoder, ImmediateLong)
{
    // movl #0x11223344, r0
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kMovl),
        SpecifierByte(AddrMode::kImm, 0),
        0x44, 0x33, 0x22, 0x11,
        SpecifierByte(AddrMode::kReg, 0),
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    EXPECT_EQ(inst->operands[0].imm, 0x11223344u);
    EXPECT_EQ(inst->length, 7u);
}

TEST(Decoder, ImmediateByteUsesOneByte)
{
    // cmpb #0x41, r2
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kCmpb),
        SpecifierByte(AddrMode::kImm, 0),
        0x41,
        SpecifierByte(AddrMode::kReg, 2),
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    EXPECT_EQ(inst->operands[0].imm, 0x41u);
    EXPECT_EQ(inst->length, 4u);
}

TEST(Decoder, Displacements)
{
    // addl2 -4(r1), 1000(r2)
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kAddl2),
        SpecifierByte(AddrMode::kDisp8, 1),
        0xfc,
        SpecifierByte(AddrMode::kDisp32, 2),
        0xe8, 0x03, 0x00, 0x00,
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    EXPECT_EQ(inst->operands[0].disp, -4);
    EXPECT_EQ(inst->operands[1].disp, 1000);
}

TEST(Decoder, BranchDisplacement)
{
    // bneq -2
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kBneq), 0xfe,
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    ASSERT_TRUE(inst->branch_disp.has_value());
    EXPECT_EQ(*inst->branch_disp, -2);
    EXPECT_EQ(inst->length, 2u);
}

TEST(Decoder, RejectsUnassignedOpcode)
{
    EXPECT_FALSE(DecodeBuffer({0xff}, 0).has_value());
}

TEST(Decoder, RejectsReservedMode)
{
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kTstl), 0x90,  // mode 9: reserved
    };
    EXPECT_FALSE(DecodeBuffer(bytes, 0).has_value());
}

TEST(Decoder, RejectsImmediateDestination)
{
    // clrl #5 is a reserved operand
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kClrl),
        SpecifierByte(AddrMode::kImm, 0),
        0x05, 0x00, 0x00, 0x00,
    };
    EXPECT_FALSE(DecodeBuffer(bytes, 0).has_value());
}

TEST(Decoder, RejectsRegisterForAddressOperand)
{
    // jmp r3 is a reserved operand (registers have no address)
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kJmp),
        SpecifierByte(AddrMode::kReg, 3),
    };
    EXPECT_FALSE(DecodeBuffer(bytes, 0).has_value());
}

TEST(Decoder, TruncatedBufferRejected)
{
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kMovl),
        SpecifierByte(AddrMode::kImm, 0),
        0x44, 0x33,  // missing immediate bytes and destination
    };
    EXPECT_FALSE(DecodeBuffer(bytes, 0).has_value());
}

// --- disassembler ------------------------------------------------------

TEST(Disassembler, Operands)
{
    Operand op;
    op.mode = AddrMode::kAutoDec;
    op.reg = 3;
    EXPECT_EQ(FormatOperand(op), "-(r3)");
    op.mode = AddrMode::kAutoInc;
    op.reg = kRegSp;
    EXPECT_EQ(FormatOperand(op), "(sp)+");
    op.mode = AddrMode::kImm;
    op.imm = 16;
    EXPECT_EQ(FormatOperand(op), "#0x10");
    op.mode = AddrMode::kDisp8;
    op.reg = 2;
    op.disp = -4;
    EXPECT_EQ(FormatOperand(op), "-4(r2)");
    op.mode = AddrMode::kAbs;
    op.imm = 0x1200;
    EXPECT_EQ(FormatOperand(op), "@#0x1200");
}

TEST(Disassembler, FullInstruction)
{
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kAddl3),
        SpecifierByte(AddrMode::kReg, 1),
        SpecifierByte(AddrMode::kRegDef, 2),
        SpecifierByte(AddrMode::kReg, 3),
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    EXPECT_EQ(FormatInst(*inst, 0x100), "addl3  r1, (r2), r3");
}

TEST(Disassembler, BranchTargetIsAbsolute)
{
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(Opcode::kBrb), 0x10,
    };
    auto inst = DecodeBuffer(bytes, 0);
    ASSERT_TRUE(inst.has_value());
    // Target = pc + length + disp = 0x100 + 2 + 0x10.
    EXPECT_EQ(FormatInst(*inst, 0x100), "brb  0x112");
}

}  // namespace
}  // namespace atum::isa
