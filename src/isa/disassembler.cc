#include "isa/disassembler.h"

#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace atum::isa {

namespace {

std::string
RegName(unsigned reg)
{
    switch (reg) {
      case kRegFp:
        return "fp";
      case kRegSp:
        return "sp";
      case kRegPc:
        return "pc";
      default: {
        std::string name = "r";
        name += std::to_string(reg);
        return name;
      }
    }
}

/** `v` in hex after `prefix` ("#0x1f"). */
std::string
Hex(uint32_t v, const char* prefix = "")
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%s0x%x", prefix, v);
    return buf;
}

}  // namespace

std::string
FormatOperand(const Operand& op)
{
    const std::string r = RegName(op.reg);
    switch (op.mode) {
      case AddrMode::kReg:
        return r;
      case AddrMode::kRegDef:
        return "(" + r + ")";
      case AddrMode::kAutoInc:
        return "(" + r + ")+";
      case AddrMode::kAutoDec:
        return "-(" + r + ")";
      case AddrMode::kDisp8:
      case AddrMode::kDisp32:
        return std::to_string(op.disp) + "(" + r + ")";
      case AddrMode::kDisp32Def: {
        std::string s = "@";
        s += std::to_string(op.disp);
        return s + "(" + r + ")";
      }
      case AddrMode::kImm:
        return Hex(op.imm, "#");
      case AddrMode::kAbs:
        return Hex(op.imm, "@#");
    }
    Panic("unreachable addressing mode");
}

std::string
FormatInst(const DecodedInst& inst, uint32_t pc)
{
    std::ostringstream os;
    os << MnemonicOf(inst.opcode);
    bool first = true;
    auto sep = [&]() {
        os << (first ? "  " : ", ");
        first = false;
    };
    for (const Operand& op : inst.operands) {
        sep();
        os << FormatOperand(op);
    }
    if (inst.branch_disp) {
        sep();
        // Branch displacements are relative to the end of the instruction.
        os << Hex(pc + inst.length + *inst.branch_disp);
    }
    return os.str();
}

}  // namespace atum::isa
