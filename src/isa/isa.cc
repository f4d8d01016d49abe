#include "isa/isa.h"

#include <array>
#include <cstdio>

#include "util/logging.h"

namespace atum::isa {

namespace {

using OD = OperandDesc;
constexpr DataType kB = DataType::kByte;
constexpr DataType kW = DataType::kWord;
constexpr DataType kL = DataType::kLong;

struct TableEntry {
    Opcode op;
    const char* mnemonic;
    std::vector<OperandDesc> operands;
    bool privileged;
};

std::vector<TableEntry>
MakeEntries()
{
    const OD rd_l{Access::kRead, kL};
    const OD rd_b{Access::kRead, kB};
    const OD rd_w{Access::kRead, kW};
    const OD wr_l{Access::kWrite, kL};
    const OD wr_b{Access::kWrite, kB};
    const OD wr_w{Access::kWrite, kW};
    const OD mod_l{Access::kModify, kL};
    const OD addr{Access::kAddress, kL};
    const OD b8{Access::kBranch8, kB};
    const OD b16{Access::kBranch16, kB};

    return {
        {Opcode::kHalt, "halt", {}, true},
        {Opcode::kNop, "nop", {}, false},
        {Opcode::kBpt, "bpt", {}, false},
        {Opcode::kRei, "rei", {}, false},
        {Opcode::kChmk, "chmk", {rd_l}, false},
        {Opcode::kMtpr, "mtpr", {rd_l, rd_l}, true},
        {Opcode::kMfpr, "mfpr", {rd_l, wr_l}, true},
        {Opcode::kSvpctx, "svpctx", {}, true},
        {Opcode::kLdpctx, "ldpctx", {}, true},

        {Opcode::kMovl, "movl", {rd_l, wr_l}, false},
        {Opcode::kMovb, "movb", {rd_b, wr_b}, false},
        {Opcode::kMovzbl, "movzbl", {rd_b, wr_l}, false},
        {Opcode::kMoval, "moval", {addr, wr_l}, false},
        {Opcode::kPushl, "pushl", {rd_l}, false},
        {Opcode::kClrl, "clrl", {wr_l}, false},
        {Opcode::kClrb, "clrb", {wr_b}, false},
        {Opcode::kMnegl, "mnegl", {rd_l, wr_l}, false},
        {Opcode::kMovw, "movw", {rd_w, wr_w}, false},
        {Opcode::kMovzwl, "movzwl", {rd_w, wr_l}, false},

        {Opcode::kAddl2, "addl2", {rd_l, mod_l}, false},
        {Opcode::kAddl3, "addl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kSubl2, "subl2", {rd_l, mod_l}, false},
        {Opcode::kSubl3, "subl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kMull2, "mull2", {rd_l, mod_l}, false},
        {Opcode::kMull3, "mull3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kDivl2, "divl2", {rd_l, mod_l}, false},
        {Opcode::kDivl3, "divl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kIncl, "incl", {mod_l}, false},
        {Opcode::kDecl, "decl", {mod_l}, false},
        {Opcode::kCmpl, "cmpl", {rd_l, rd_l}, false},
        {Opcode::kCmpb, "cmpb", {rd_b, rd_b}, false},
        {Opcode::kTstl, "tstl", {rd_l}, false},
        {Opcode::kTstb, "tstb", {rd_b}, false},
        {Opcode::kCmpw, "cmpw", {rd_w, rd_w}, false},
        {Opcode::kTstw, "tstw", {rd_w}, false},

        {Opcode::kBisl2, "bisl2", {rd_l, mod_l}, false},
        {Opcode::kBisl3, "bisl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kBicl2, "bicl2", {rd_l, mod_l}, false},
        {Opcode::kBicl3, "bicl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kXorl2, "xorl2", {rd_l, mod_l}, false},
        {Opcode::kXorl3, "xorl3", {rd_l, rd_l, wr_l}, false},
        {Opcode::kBitl, "bitl", {rd_l, rd_l}, false},
        {Opcode::kAshl, "ashl", {rd_b, rd_l, wr_l}, false},

        {Opcode::kBrb, "brb", {b8}, false},
        {Opcode::kBrw, "brw", {b16}, false},
        {Opcode::kBneq, "bneq", {b8}, false},
        {Opcode::kBeql, "beql", {b8}, false},
        {Opcode::kBgtr, "bgtr", {b8}, false},
        {Opcode::kBleq, "bleq", {b8}, false},
        {Opcode::kBgeq, "bgeq", {b8}, false},
        {Opcode::kBlss, "blss", {b8}, false},
        {Opcode::kBgtru, "bgtru", {b8}, false},
        {Opcode::kBlequ, "blequ", {b8}, false},
        {Opcode::kBgequ, "bgequ", {b8}, false},
        {Opcode::kBlssu, "blssu", {b8}, false},
        {Opcode::kBvc, "bvc", {b8}, false},
        {Opcode::kBvs, "bvs", {b8}, false},
        {Opcode::kJmp, "jmp", {addr}, false},
        {Opcode::kJsb, "jsb", {addr}, false},
        {Opcode::kRsb, "rsb", {}, false},
        {Opcode::kSobgtr, "sobgtr", {mod_l, b8}, false},
        {Opcode::kSobgeq, "sobgeq", {mod_l, b8}, false},
        {Opcode::kAoblss, "aoblss", {rd_l, mod_l, b8}, false},
        {Opcode::kCalls, "calls", {rd_l, addr}, false},
        {Opcode::kRet, "ret", {}, false},
        // CASEL's word displacement table follows the operands in the
        // instruction stream; its length is data-dependent, so the table
        // is not part of the decoded instruction length.
        {Opcode::kCasel, "casel", {rd_l, rd_l, rd_l}, false},

        {Opcode::kMovc3, "movc3", {rd_l, addr, addr}, false},
        {Opcode::kInsque, "insque", {addr, addr}, false},
        {Opcode::kRemque, "remque", {addr, wr_l}, false},
        {Opcode::kCmpc3, "cmpc3", {rd_l, addr, addr}, false},
        {Opcode::kLocc, "locc", {rd_b, rd_l, addr}, false},
    };
}

struct Tables {
    std::array<InstrInfo, 256> info;
    std::array<uint8_t, 256> gates{};
    std::vector<Opcode> assigned;

    Tables()
    {
        for (auto& e : info)
            e = InstrInfo{"?", {}, false, false};
        for (auto& e : MakeEntries()) {
            auto idx = static_cast<size_t>(e.op);
            if (info[idx].valid)
                Panic("duplicate opcode 0x", std::hex, idx);
            info[idx] = InstrInfo{e.mnemonic, std::move(e.operands),
                                  e.privileged, true};
            gates[idx] = static_cast<uint8_t>(
                kGateValid | (e.privileged ? kGatePrivileged : 0));
            assigned.push_back(e.op);
        }
    }
};

const Tables&
GetTables()
{
    static const Tables& tables = *new Tables();
    return tables;
}

}  // namespace

const InstrInfo&
GetInstrInfo(Opcode op)
{
    return GetTables().info[static_cast<size_t>(op)];
}

const uint8_t*
OpcodeGates()
{
    return GetTables().gates.data();
}

const std::vector<Opcode>&
AllOpcodes()
{
    return GetTables().assigned;
}

std::string
MnemonicOf(Opcode op)
{
    const InstrInfo& info = GetInstrInfo(op);
    if (info.valid)
        return info.mnemonic;
    char buf[8];
    std::snprintf(buf, sizeof buf, "?%02x", static_cast<unsigned>(op));
    return buf;
}

}  // namespace atum::isa
