#include <cstring>

#include "cpu/machine.h"
#include "cpu/machine_hot.h"
#include "util/bitops.h"
#include "util/logging.h"

/**
 * @file
 * The VCX-32 instruction executor: one macro-instruction per call,
 * realized as a micro-op sequence over Machine's MicroRead/MicroWrite/
 * FetchByte primitives. Faulting instructions roll back general-register
 * and PSL state and dispatch a restartable exception; traps (CHMK, BPT,
 * arithmetic) keep side effects and push the next PC.
 */

namespace atum::cpu {

using isa::Access;
using isa::AddrMode;
using isa::DataType;
using isa::Opcode;
using ucode::MemAccess;
using ucode::MemAccessKind;
using ucode::MicroOpKind;

namespace {
/** MOVC3 length limit; larger counts raise a reserved-operand fault. */
constexpr uint32_t kMaxMovcLen = 1u << 20;
}  // namespace

/** Executes exactly one instruction on behalf of Machine. */
class Executor
{
  public:
    explicit Executor(Machine& m) : m_(m) {}

    void Run();

  private:
    /** Evaluated operand: a register, a memory location, or a literal. */
    struct Ref {
        enum class Kind : uint8_t { kReg, kMem, kImm } kind = Kind::kReg;
        uint8_t reg = 0;
        uint32_t addr = 0;
        uint32_t imm = 0;
        DataType type = DataType::kLong;
    };

    /** Abort disposition of the in-flight instruction. */
    enum class Abort : uint8_t {
        kNone,
        kMicroFault,  ///< MMU fault recorded in m_.pending_fault_
        kFault,       ///< roll back, dispatch fault_vec_ at inst start
        kTrap,        ///< keep side effects, dispatch at next PC
    };

    // -- instruction-stream helpers ------------------------------------
    bool Fetch8(uint8_t* out);
    bool Fetch16(uint16_t* out);
    bool Fetch32(uint32_t* out);
    bool FetchBranch8(int32_t* disp);
    bool FetchBranch16(int32_t* disp);

    // -- operand machinery ----------------------------------------------
    bool Spec(DataType type, Access access, Ref* out);
    bool ReadVal(const Ref& ref, uint32_t* out);
    bool WriteVal(const Ref& ref, uint32_t value);

    // -- flag helpers ----------------------------------------------------
    void SetNZ(uint32_t v, bool clear_c = false);
    void SetNZByte(uint8_t v);
    void SetNZWord(uint16_t v);
    uint32_t DoAdd(uint32_t a, uint32_t b);
    uint32_t DoSub(uint32_t minuend, uint32_t subtrahend);

    // -- abort helpers ----------------------------------------------------
    bool RaiseFault(ExcVector vec);
    bool RaiseTrap(ExcVector vec, uint32_t extra, unsigned nextra);

    // -- heavyweight microcode --------------------------------------------
    bool ExecSvpctx();
    bool ExecLdpctx();
    bool ExecMovc3();
    bool ExecCmpc3();
    bool ExecLocc();
    bool ExecInsque();
    bool ExecRemque();
    bool ExecCasel();
    bool ExecCalls();
    bool ExecRet();

    bool PhysRead32Traced(uint32_t pa, uint32_t* out);
    void PhysWrite32Traced(uint32_t pa, uint32_t v);

    bool Dispatch(Opcode op);

    Machine& m_;
    uint32_t inst_pc_ = 0;
    Abort abort_ = Abort::kNone;
    ExcVector fault_vec_ = ExcVector::kStray;
    uint32_t trap_extra_ = 0;
    unsigned trap_nextra_ = 0;
};

bool
Executor::Fetch8(uint8_t* out)
{
    return m_.FetchByte(out);
}

bool
Executor::Fetch16(uint16_t* out)
{
    uint8_t lo, hi;
    if (!Fetch8(&lo) || !Fetch8(&hi))
        return false;
    *out = static_cast<uint16_t>(lo | (hi << 8));
    return true;
}

bool
Executor::Fetch32(uint32_t* out)
{
    uint16_t lo, hi;
    if (!Fetch16(&lo) || !Fetch16(&hi))
        return false;
    *out = lo | (static_cast<uint32_t>(hi) << 16);
    return true;
}

bool
Executor::FetchBranch8(int32_t* disp)
{
    uint8_t b;
    if (!Fetch8(&b))
        return false;
    *disp = SignExtend(b, 8);
    return true;
}

bool
Executor::FetchBranch16(int32_t* disp)
{
    uint16_t w;
    if (!Fetch16(&w))
        return false;
    *disp = SignExtend(w, 16);
    return true;
}

bool
Executor::RaiseFault(ExcVector vec)
{
    abort_ = Abort::kFault;
    fault_vec_ = vec;
    return false;
}

bool
Executor::RaiseTrap(ExcVector vec, uint32_t extra, unsigned nextra)
{
    abort_ = Abort::kTrap;
    fault_vec_ = vec;
    trap_extra_ = extra;
    trap_nextra_ = nextra;
    return false;
}

bool
Executor::Spec(DataType type, Access access, Ref* out)
{
    m_.AddCycles(ucode::CostOf(MicroOpKind::kSpecifier));
    uint8_t spec;
    if (!Fetch8(&spec))
        return false;
    const uint8_t mode_bits = spec >> 4;
    const uint8_t reg = spec & 0xf;
    if (mode_bits >= isa::kNumAddrModes)
        return RaiseFault(ExcVector::kReservedOperand);
    const auto mode = static_cast<AddrMode>(mode_bits);
    const uint8_t size = static_cast<uint8_t>(type);

    out->type = type;
    switch (mode) {
      case AddrMode::kReg:
        if (access == Access::kAddress)
            return RaiseFault(ExcVector::kReservedOperand);
        out->kind = Ref::Kind::kReg;
        out->reg = reg;
        return true;

      case AddrMode::kRegDef:
        out->kind = Ref::Kind::kMem;
        out->addr = m_.regs_[reg];
        return true;

      case AddrMode::kAutoInc:
        if (reg == isa::kRegPc)
            return RaiseFault(ExcVector::kReservedOperand);
        out->kind = Ref::Kind::kMem;
        out->addr = m_.regs_[reg];
        m_.regs_[reg] += size;
        return true;

      case AddrMode::kAutoDec:
        if (reg == isa::kRegPc)
            return RaiseFault(ExcVector::kReservedOperand);
        m_.regs_[reg] -= size;
        out->kind = Ref::Kind::kMem;
        out->addr = m_.regs_[reg];
        return true;

      case AddrMode::kDisp8: {
        uint8_t d;
        if (!Fetch8(&d))
            return false;
        // The base register is read after the extension bytes so that
        // PC-based addressing sees the address of the next specifier.
        out->kind = Ref::Kind::kMem;
        out->addr = m_.regs_[reg] + SignExtend(d, 8);
        return true;
      }

      case AddrMode::kDisp32: {
        uint32_t d;
        if (!Fetch32(&d))
            return false;
        out->kind = Ref::Kind::kMem;
        out->addr = m_.regs_[reg] + d;
        return true;
      }

      case AddrMode::kDisp32Def: {
        uint32_t d;
        if (!Fetch32(&d))
            return false;
        const uint32_t ptr = m_.regs_[reg] + d;
        uint32_t target;
        if (!m_.MicroRead(ptr, 4, MemAccessKind::kRead, &target))
            return false;
        out->kind = Ref::Kind::kMem;
        out->addr = target;
        return true;
      }

      case AddrMode::kImm: {
        if (access != Access::kRead)
            return RaiseFault(ExcVector::kReservedOperand);
        out->kind = Ref::Kind::kImm;
        if (type == DataType::kByte) {
            uint8_t b;
            if (!Fetch8(&b))
                return false;
            out->imm = b;
        } else if (type == DataType::kWord) {
            uint16_t w;
            if (!Fetch16(&w))
                return false;
            out->imm = w;
        } else {
            if (!Fetch32(&out->imm))
                return false;
        }
        return true;
      }

      case AddrMode::kAbs: {
        uint32_t a;
        if (!Fetch32(&a))
            return false;
        out->kind = Ref::Kind::kMem;
        out->addr = a;
        return true;
      }
    }
    Panic("unreachable addressing mode");
}

bool
Executor::ReadVal(const Ref& ref, uint32_t* out)
{
    const uint8_t size = static_cast<uint8_t>(ref.type);
    switch (ref.kind) {
      case Ref::Kind::kReg:
        *out = size == 1   ? (m_.regs_[ref.reg] & 0xff)
               : size == 2 ? (m_.regs_[ref.reg] & 0xffff)
                           : m_.regs_[ref.reg];
        return true;
      case Ref::Kind::kImm:
        *out = ref.imm;
        return true;
      case Ref::Kind::kMem:
        return m_.MicroRead(ref.addr, size, MemAccessKind::kRead, out);
    }
    Panic("unreachable ref kind");
}

bool
Executor::WriteVal(const Ref& ref, uint32_t value)
{
    const uint8_t size = static_cast<uint8_t>(ref.type);
    switch (ref.kind) {
      case Ref::Kind::kReg:
        if (size == 1)
            m_.regs_[ref.reg] = (m_.regs_[ref.reg] & ~0xffu) | (value & 0xff);
        else if (size == 2)
            m_.regs_[ref.reg] =
                (m_.regs_[ref.reg] & ~0xffffu) | (value & 0xffff);
        else
            m_.set_reg(ref.reg, value);  // set_reg handles PC writes
        return true;
      case Ref::Kind::kImm:
        Panic("write to immediate operand");
      case Ref::Kind::kMem:
        return m_.MicroWrite(ref.addr, size, value);
    }
    Panic("unreachable ref kind");
}

void
Executor::SetNZ(uint32_t v, bool clear_c)
{
    m_.psl_.n = (v >> 31) != 0;
    m_.psl_.z = v == 0;
    m_.psl_.v = false;
    if (clear_c)
        m_.psl_.c = false;
}

void
Executor::SetNZByte(uint8_t v)
{
    m_.psl_.n = (v >> 7) != 0;
    m_.psl_.z = v == 0;
    m_.psl_.v = false;
}

void
Executor::SetNZWord(uint16_t v)
{
    m_.psl_.n = (v >> 15) != 0;
    m_.psl_.z = v == 0;
    m_.psl_.v = false;
}

uint32_t
Executor::DoAdd(uint32_t a, uint32_t b)
{
    const uint32_t r = a + b;
    m_.psl_.n = (r >> 31) != 0;
    m_.psl_.z = r == 0;
    m_.psl_.c = r < a;
    m_.psl_.v = (((a ^ r) & (b ^ r)) >> 31) != 0;
    return r;
}

uint32_t
Executor::DoSub(uint32_t minuend, uint32_t subtrahend)
{
    const uint32_t r = minuend - subtrahend;
    m_.psl_.n = (r >> 31) != 0;
    m_.psl_.z = r == 0;
    m_.psl_.c = minuend < subtrahend;
    m_.psl_.v = (((minuend ^ subtrahend) & (minuend ^ r)) >> 31) != 0;
    return r;
}

bool
Executor::PhysRead32Traced(uint32_t pa, uint32_t* out)
{
    if (!m_.memory_.Contains(pa, 4))
        Panic("physical context access outside memory: 0x", std::hex, pa);
    *out = m_.memory_.Read32(pa);
    m_.AddCycles(ucode::CostOf(MicroOpKind::kDRead));
    ++m_.ev_.reads;
    m_.AddCycles(m_.control_store_.FireMemAccess(
        MemAccess{pa, pa, 4, MemAccessKind::kRead, true}));
    return true;
}

void
Executor::PhysWrite32Traced(uint32_t pa, uint32_t v)
{
    if (!m_.memory_.Contains(pa, 4))
        Panic("physical context access outside memory: 0x", std::hex, pa);
    m_.memory_.Write32(pa, v);
    m_.AddCycles(ucode::CostOf(MicroOpKind::kDWrite));
    ++m_.ev_.writes;
    m_.AddCycles(m_.control_store_.FireMemAccess(
        MemAccess{pa, pa, 4, MemAccessKind::kWrite, true}));
}

bool
Executor::ExecSvpctx()
{
    // Saves r0..r13, USP, the interrupt frame (PC, PSL popped from the
    // kernel stack) and the memory-management context into the PCB.
    const uint32_t pcb = m_.pcbb_;
    for (unsigned i = 0; i <= 13; ++i)
        PhysWrite32Traced(pcb + PcbLayout::kRegs + 4 * i, m_.regs_[i]);
    PhysWrite32Traced(pcb + PcbLayout::kUsp, m_.banked_sp_[1]);

    uint32_t frame_pc, frame_psl;
    if (!m_.MicroRead(m_.regs_[isa::kRegSp], 4, MemAccessKind::kRead,
                      &frame_pc) ||
        !m_.MicroRead(m_.regs_[isa::kRegSp] + 4, 4, MemAccessKind::kRead,
                      &frame_psl)) {
        return false;
    }
    m_.regs_[isa::kRegSp] += 8;
    PhysWrite32Traced(pcb + PcbLayout::kPc, frame_pc);
    PhysWrite32Traced(pcb + PcbLayout::kPsl, frame_psl);

    const mmu::RegionRegs p0 = m_.mmu_.GetRegion(mmu::Region::kP0);
    const mmu::RegionRegs p1 = m_.mmu_.GetRegion(mmu::Region::kP1);
    PhysWrite32Traced(pcb + PcbLayout::kP0Br, p0.base);
    PhysWrite32Traced(pcb + PcbLayout::kP0Lr, p0.length);
    PhysWrite32Traced(pcb + PcbLayout::kP1Br, p1.base);
    PhysWrite32Traced(pcb + PcbLayout::kP1Lr, p1.length);
    PhysWrite32Traced(pcb + PcbLayout::kPid, m_.pid_);

    m_.AddCycles(ucode::CostOf(MicroOpKind::kCtxSave));
    return true;
}

bool
Executor::ExecLdpctx()
{
    // Loads the context saved by SVPCTX and re-arms an interrupt frame on
    // the kernel stack so the following REI resumes the new process. This
    // is the microcode routine ATUM patched to record context switches.
    const uint32_t pcb = m_.pcbb_;
    for (unsigned i = 0; i <= 13; ++i) {
        uint32_t v;
        PhysRead32Traced(pcb + PcbLayout::kRegs + 4 * i, &v);
        m_.regs_[i] = v;
    }
    uint32_t usp, frame_pc, frame_psl, p0br, p0lr, p1br, p1lr, pid;
    PhysRead32Traced(pcb + PcbLayout::kUsp, &usp);
    PhysRead32Traced(pcb + PcbLayout::kPc, &frame_pc);
    PhysRead32Traced(pcb + PcbLayout::kPsl, &frame_psl);
    PhysRead32Traced(pcb + PcbLayout::kP0Br, &p0br);
    PhysRead32Traced(pcb + PcbLayout::kP0Lr, &p0lr);
    PhysRead32Traced(pcb + PcbLayout::kP1Br, &p1br);
    PhysRead32Traced(pcb + PcbLayout::kP1Lr, &p1lr);
    PhysRead32Traced(pcb + PcbLayout::kPid, &pid);

    m_.banked_sp_[1] = usp;
    m_.mmu_.SetRegion(mmu::Region::kP0, {p0br, p0lr});
    m_.mmu_.SetRegion(mmu::Region::kP1, {p1br, p1lr});
    m_.pid_ = pid;
    m_.mmu_.tlb().FlushProcessEntries();

    if (!m_.MicroWrite(m_.regs_[isa::kRegSp] - 4, 4, frame_psl) ||
        !m_.MicroWrite(m_.regs_[isa::kRegSp] - 8, 4, frame_pc)) {
        return false;
    }
    m_.regs_[isa::kRegSp] -= 8;

    m_.AddCycles(ucode::CostOf(MicroOpKind::kCtxLoad));
    m_.AddCycles(m_.control_store_.FireContextSwitch(
        static_cast<uint16_t>(pid), pcb));
    return true;
}

bool
Executor::ExecMovc3()
{
    Ref len_ref, src_ref, dst_ref;
    if (!Spec(DataType::kLong, Access::kRead, &len_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &src_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &dst_ref)) {
        return false;
    }
    uint32_t len;
    if (!ReadVal(len_ref, &len))
        return false;
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

    const uint32_t src = src_ref.addr;
    const uint32_t dst = dst_ref.addr;
    for (uint32_t i = 0; i < len; ++i) {
        uint32_t byte;
        if (!m_.MicroRead(src + i, 1, MemAccessKind::kRead, &byte))
            return false;
        if (!m_.MicroWrite(dst + i, 1, byte))
            return false;
    }
    // Architectural result registers, as on the VAX.
    m_.regs_[0] = 0;
    m_.regs_[1] = src + len;
    m_.regs_[2] = 0;
    m_.regs_[3] = dst + len;
    m_.regs_[4] = 0;
    m_.regs_[5] = 0;
    m_.psl_.z = true;
    m_.psl_.n = false;
    m_.psl_.v = false;
    m_.psl_.c = false;
    return true;
}

bool
Executor::ExecCmpc3()
{
    Ref len_ref, s1_ref, s2_ref;
    if (!Spec(DataType::kLong, Access::kRead, &len_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &s1_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &s2_ref)) {
        return false;
    }
    uint32_t len;
    if (!ReadVal(len_ref, &len))
        return false;
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

    const uint32_t s1 = s1_ref.addr;
    const uint32_t s2 = s2_ref.addr;
    for (uint32_t i = 0; i < len; ++i) {
        uint32_t b1, b2;
        if (!m_.MicroRead(s1 + i, 1, MemAccessKind::kRead, &b1) ||
            !m_.MicroRead(s2 + i, 1, MemAccessKind::kRead, &b2)) {
            return false;
        }
        if (b1 != b2) {
            m_.psl_.n = static_cast<int8_t>(b1) < static_cast<int8_t>(b2);
            m_.psl_.z = false;
            m_.psl_.c = (b1 & 0xff) < (b2 & 0xff);
            m_.psl_.v = false;
            m_.regs_[0] = len - i;  // bytes remaining, incl. the mismatch
            m_.regs_[1] = s1 + i;
            m_.regs_[2] = 0;
            m_.regs_[3] = s2 + i;
            return true;
        }
    }
    m_.psl_.n = false;
    m_.psl_.z = true;
    m_.psl_.c = false;
    m_.psl_.v = false;
    m_.regs_[0] = 0;
    m_.regs_[1] = s1 + len;
    m_.regs_[2] = 0;
    m_.regs_[3] = s2 + len;
    return true;
}

bool
Executor::ExecLocc()
{
    Ref char_ref, len_ref, addr_ref;
    uint32_t target, len;
    if (!Spec(DataType::kByte, Access::kRead, &char_ref) ||
        !ReadVal(char_ref, &target) ||
        !Spec(DataType::kLong, Access::kRead, &len_ref) ||
        !ReadVal(len_ref, &len) ||
        !Spec(DataType::kLong, Access::kAddress, &addr_ref)) {
        return false;
    }
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

    const uint32_t base = addr_ref.addr;
    for (uint32_t i = 0; i < len; ++i) {
        uint32_t b;
        if (!m_.MicroRead(base + i, 1, MemAccessKind::kRead, &b))
            return false;
        if ((b & 0xff) == (target & 0xff)) {
            m_.regs_[0] = len - i;  // bytes remaining from the match
            m_.regs_[1] = base + i;
            m_.psl_.z = false;
            m_.psl_.n = false;
            m_.psl_.v = false;
            m_.psl_.c = false;
            return true;
        }
    }
    m_.regs_[0] = 0;
    m_.regs_[1] = base + len;
    m_.psl_.z = true;  // Z set when the character was not found
    m_.psl_.n = false;
    m_.psl_.v = false;
    m_.psl_.c = false;
    return true;
}

bool
Executor::ExecInsque()
{
    // Queue entries are [next][prev] longword pairs, as on the VAX.
    Ref entry_ref, pred_ref;
    if (!Spec(DataType::kLong, Access::kAddress, &entry_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &pred_ref)) {
        return false;
    }
    const uint32_t e = entry_ref.addr;
    const uint32_t p = pred_ref.addr;
    uint32_t next;
    if (!m_.MicroRead(p, 4, MemAccessKind::kRead, &next))
        return false;
    if (!m_.MicroWrite(e, 4, next) || !m_.MicroWrite(e + 4, 4, p) ||
        !m_.MicroWrite(p, 4, e) || !m_.MicroWrite(next + 4, 4, e)) {
        return false;
    }
    m_.psl_.z = next == p;  // the queue was empty before the insert
    m_.psl_.n = false;
    m_.psl_.v = false;
    m_.psl_.c = false;
    return true;
}

bool
Executor::ExecRemque()
{
    Ref entry_ref, dst_ref;
    if (!Spec(DataType::kLong, Access::kAddress, &entry_ref))
        return false;
    const uint32_t e = entry_ref.addr;
    uint32_t next, prev;
    if (!m_.MicroRead(e, 4, MemAccessKind::kRead, &next) ||
        !m_.MicroRead(e + 4, 4, MemAccessKind::kRead, &prev)) {
        return false;
    }
    if (!m_.MicroWrite(prev, 4, next) || !m_.MicroWrite(next + 4, 4, prev))
        return false;
    if (!Spec(DataType::kLong, Access::kWrite, &dst_ref) ||
        !WriteVal(dst_ref, e)) {
        return false;
    }
    m_.psl_.z = next == prev;  // the queue is empty after the removal
    m_.psl_.n = false;
    m_.psl_.v = false;
    m_.psl_.c = false;
    return true;
}

bool
Executor::ExecCasel()
{
    // casel sel, base, limit -- a word displacement table follows the
    // operands in the instruction stream. Displacements are relative to
    // the table start; out-of-range selectors fall through past the table.
    Ref sel_ref, base_ref, limit_ref;
    uint32_t sel, base, limit;
    if (!Spec(DataType::kLong, Access::kRead, &sel_ref) ||
        !ReadVal(sel_ref, &sel) ||
        !Spec(DataType::kLong, Access::kRead, &base_ref) ||
        !ReadVal(base_ref, &base) ||
        !Spec(DataType::kLong, Access::kRead, &limit_ref) ||
        !ReadVal(limit_ref, &limit)) {
        return false;
    }
    const uint32_t tmp = sel - base;
    m_.psl_.n = static_cast<int32_t>(tmp) < static_cast<int32_t>(limit);
    m_.psl_.z = tmp == limit;
    m_.psl_.c = tmp < limit;
    m_.psl_.v = false;

    const uint32_t table = m_.regs_[isa::kRegPc];
    if (tmp <= limit) {
        uint32_t disp;
        if (!m_.MicroRead(table + 2 * tmp, 2, MemAccessKind::kIFetch,
                          &disp)) {
            return false;
        }
        m_.set_pc(table + static_cast<uint32_t>(SignExtend(disp, 16)));
    } else {
        m_.set_pc(table + 2 * (limit + 1));
    }
    return true;
}

bool
Executor::ExecCalls()
{
    Ref narg_ref, dst_ref;
    if (!Spec(DataType::kLong, Access::kRead, &narg_ref) ||
        !Spec(DataType::kLong, Access::kAddress, &dst_ref)) {
        return false;
    }
    uint32_t narg;
    if (!ReadVal(narg_ref, &narg))
        return false;

    uint32_t sp = m_.regs_[isa::kRegSp];
    if (!m_.MicroWrite(sp - 4, 4, m_.regs_[isa::kRegPc]) ||
        !m_.MicroWrite(sp - 8, 4, m_.regs_[isa::kRegFp]) ||
        !m_.MicroWrite(sp - 12, 4, narg)) {
        return false;
    }
    sp -= 12;
    m_.regs_[isa::kRegSp] = sp;
    m_.regs_[isa::kRegFp] = sp;
    m_.set_pc(dst_ref.addr);
    m_.AddCycles(ucode::CostOf(MicroOpKind::kCall));
    return true;
}

bool
Executor::ExecRet()
{
    uint32_t sp = m_.regs_[isa::kRegFp];
    uint32_t narg, old_fp, ret_pc;
    if (!m_.MicroRead(sp, 4, MemAccessKind::kRead, &narg) ||
        !m_.MicroRead(sp + 4, 4, MemAccessKind::kRead, &old_fp) ||
        !m_.MicroRead(sp + 8, 4, MemAccessKind::kRead, &ret_pc)) {
        return false;
    }
    sp += 12;
    sp += 4 * (narg & 0xffff);  // pop the arguments
    m_.regs_[isa::kRegSp] = sp;
    m_.regs_[isa::kRegFp] = old_fp;
    m_.set_pc(ret_pc);
    m_.AddCycles(ucode::CostOf(MicroOpKind::kCall));
    return true;
}

bool
Executor::Dispatch(Opcode op)
{
    Psl& psl = m_.psl_;
    const bool kernel = psl.cur_mode == CpuMode::kKernel;

    const isa::InstrInfo& info = isa::GetInstrInfo(op);
    if (!info.valid)
        return RaiseFault(ExcVector::kReservedInstr);
    if (info.privileged && !kernel)
        return RaiseFault(ExcVector::kPrivInstr);

    switch (op) {
      case Opcode::kHalt:
        m_.halted_ = true;
        return true;

      case Opcode::kNop:
        return true;

      case Opcode::kBpt:
        return RaiseTrap(ExcVector::kBpt, 0, 0);

      case Opcode::kRei:
        m_.DoRei();
        return true;

      case Opcode::kChmk: {
        Ref code_ref;
        uint32_t code;
        if (!Spec(DataType::kLong, Access::kRead, &code_ref) ||
            !ReadVal(code_ref, &code)) {
            return false;
        }
        return RaiseTrap(ExcVector::kChmk, code, 1);
      }

      case Opcode::kMtpr: {
        Ref src_ref, ipr_ref;
        uint32_t src, ipr;
        if (!Spec(DataType::kLong, Access::kRead, &src_ref) ||
            !ReadVal(src_ref, &src) ||
            !Spec(DataType::kLong, Access::kRead, &ipr_ref) ||
            !ReadVal(ipr_ref, &ipr)) {
            return false;
        }
        if (ipr >= static_cast<uint32_t>(isa::Ipr::kNumIprs))
            return RaiseFault(ExcVector::kReservedOperand);
        m_.WriteIpr(static_cast<isa::Ipr>(ipr), src);
        return true;
      }

      case Opcode::kMfpr: {
        Ref ipr_ref, dst_ref;
        uint32_t ipr;
        if (!Spec(DataType::kLong, Access::kRead, &ipr_ref) ||
            !ReadVal(ipr_ref, &ipr) ||
            !Spec(DataType::kLong, Access::kWrite, &dst_ref)) {
            return false;
        }
        if (ipr >= static_cast<uint32_t>(isa::Ipr::kNumIprs))
            return RaiseFault(ExcVector::kReservedOperand);
        return WriteVal(dst_ref, m_.ReadIpr(static_cast<isa::Ipr>(ipr)));
      }

      case Opcode::kSvpctx:
        return ExecSvpctx();

      case Opcode::kLdpctx:
        return ExecLdpctx();

      case Opcode::kMovl: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &v) ||
            !Spec(DataType::kLong, Access::kWrite, &d) || !WriteVal(d, v))
            return false;
        SetNZ(v);
        return true;
      }

      case Opcode::kMovb: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kByte, Access::kRead, &s) || !ReadVal(s, &v) ||
            !Spec(DataType::kByte, Access::kWrite, &d) || !WriteVal(d, v))
            return false;
        SetNZByte(static_cast<uint8_t>(v));
        return true;
      }

      case Opcode::kMovzbl: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kByte, Access::kRead, &s) || !ReadVal(s, &v) ||
            !Spec(DataType::kLong, Access::kWrite, &d) ||
            !WriteVal(d, v & 0xff))
            return false;
        psl.n = false;
        psl.z = (v & 0xff) == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kMoval: {
        Ref s, d;
        if (!Spec(DataType::kLong, Access::kAddress, &s) ||
            !Spec(DataType::kLong, Access::kWrite, &d) ||
            !WriteVal(d, s.addr))
            return false;
        SetNZ(s.addr);
        return true;
      }

      case Opcode::kPushl: {
        Ref s;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &v))
            return false;
        const uint32_t sp = m_.regs_[isa::kRegSp] - 4;
        if (!m_.MicroWrite(sp, 4, v))
            return false;
        m_.regs_[isa::kRegSp] = sp;
        SetNZ(v);
        return true;
      }

      case Opcode::kClrl: {
        Ref d;
        if (!Spec(DataType::kLong, Access::kWrite, &d) || !WriteVal(d, 0))
            return false;
        psl.n = false;
        psl.z = true;
        psl.v = false;
        return true;
      }

      case Opcode::kClrb: {
        Ref d;
        if (!Spec(DataType::kByte, Access::kWrite, &d) || !WriteVal(d, 0))
            return false;
        psl.n = false;
        psl.z = true;
        psl.v = false;
        return true;
      }

      case Opcode::kMovw: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kWord, Access::kRead, &s) || !ReadVal(s, &v) ||
            !Spec(DataType::kWord, Access::kWrite, &d) || !WriteVal(d, v))
            return false;
        SetNZWord(static_cast<uint16_t>(v));
        return true;
      }

      case Opcode::kMovzwl: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kWord, Access::kRead, &s) || !ReadVal(s, &v) ||
            !Spec(DataType::kLong, Access::kWrite, &d) ||
            !WriteVal(d, v & 0xffff))
            return false;
        psl.n = false;
        psl.z = (v & 0xffff) == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kCmpw: {
        Ref s1, s2;
        uint32_t a, b;
        if (!Spec(DataType::kWord, Access::kRead, &s1) || !ReadVal(s1, &a) ||
            !Spec(DataType::kWord, Access::kRead, &s2) || !ReadVal(s2, &b))
            return false;
        psl.n = static_cast<int16_t>(a) < static_cast<int16_t>(b);
        psl.z = (a & 0xffff) == (b & 0xffff);
        psl.c = (a & 0xffff) < (b & 0xffff);
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kTstw: {
        Ref s;
        uint32_t v;
        if (!Spec(DataType::kWord, Access::kRead, &s) || !ReadVal(s, &v))
            return false;
        SetNZWord(static_cast<uint16_t>(v));
        psl.c = false;
        return true;
      }

      case Opcode::kMnegl: {
        Ref s, d;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &v))
            return false;
        const uint32_t r = DoSub(0, v);
        if (!Spec(DataType::kLong, Access::kWrite, &d) || !WriteVal(d, r))
            return false;
        return true;
      }

      case Opcode::kAddl2:
      case Opcode::kSubl2:
      case Opcode::kMull2:
      case Opcode::kDivl2: {
        Ref s, d;
        uint32_t a, b;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &a) ||
            !Spec(DataType::kLong, Access::kModify, &d) || !ReadVal(d, &b))
            return false;
        uint32_t r;
        if (op == Opcode::kAddl2) {
            r = DoAdd(b, a);
            m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        } else if (op == Opcode::kSubl2) {
            r = DoSub(b, a);
            m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        } else if (op == Opcode::kMull2) {
            const int64_t wide = static_cast<int64_t>(static_cast<int32_t>(a)) *
                                 static_cast<int32_t>(b);
            r = static_cast<uint32_t>(wide);
            psl.n = (r >> 31) != 0;
            psl.z = r == 0;
            psl.v = wide != static_cast<int32_t>(r);
            psl.c = false;
            m_.AddCycles(ucode::CostOf(MicroOpKind::kMulDiv));
        } else {
            if (a == 0)
                return RaiseTrap(ExcVector::kArith, 0, 0);
            if (b == 0x80000000u && a == 0xffffffffu) {
                r = b;  // overflow: quotient unrepresentable
                psl.v = true;
            } else {
                r = static_cast<uint32_t>(static_cast<int32_t>(b) /
                                          static_cast<int32_t>(a));
                psl.v = false;
            }
            psl.n = (r >> 31) != 0;
            psl.z = r == 0;
            psl.c = false;
            m_.AddCycles(ucode::CostOf(MicroOpKind::kMulDiv));
        }
        return WriteVal(d, r);
      }

      case Opcode::kAddl3:
      case Opcode::kSubl3:
      case Opcode::kMull3:
      case Opcode::kDivl3: {
        Ref s1, s2, d;
        uint32_t a, b;
        if (!Spec(DataType::kLong, Access::kRead, &s1) || !ReadVal(s1, &a) ||
            !Spec(DataType::kLong, Access::kRead, &s2) || !ReadVal(s2, &b))
            return false;
        uint32_t r;
        if (op == Opcode::kAddl3) {
            r = DoAdd(b, a);
            m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        } else if (op == Opcode::kSubl3) {
            r = DoSub(b, a);  // dif = s2 - s1, as on the VAX
            m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        } else if (op == Opcode::kMull3) {
            const int64_t wide = static_cast<int64_t>(static_cast<int32_t>(a)) *
                                 static_cast<int32_t>(b);
            r = static_cast<uint32_t>(wide);
            psl.n = (r >> 31) != 0;
            psl.z = r == 0;
            psl.v = wide != static_cast<int32_t>(r);
            psl.c = false;
            m_.AddCycles(ucode::CostOf(MicroOpKind::kMulDiv));
        } else {
            if (a == 0)
                return RaiseTrap(ExcVector::kArith, 0, 0);
            if (b == 0x80000000u && a == 0xffffffffu) {
                r = b;
                psl.v = true;
            } else {
                r = static_cast<uint32_t>(static_cast<int32_t>(b) /
                                          static_cast<int32_t>(a));
                psl.v = false;
            }
            psl.n = (r >> 31) != 0;
            psl.z = r == 0;
            psl.c = false;
            m_.AddCycles(ucode::CostOf(MicroOpKind::kMulDiv));
        }
        if (!Spec(DataType::kLong, Access::kWrite, &d) || !WriteVal(d, r))
            return false;
        return true;
      }

      case Opcode::kIncl:
      case Opcode::kDecl: {
        Ref d;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kModify, &d) || !ReadVal(d, &v))
            return false;
        const uint32_t r =
            op == Opcode::kIncl ? DoAdd(v, 1) : DoSub(v, 1);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return WriteVal(d, r);
      }

      case Opcode::kCmpl: {
        Ref s1, s2;
        uint32_t a, b;
        if (!Spec(DataType::kLong, Access::kRead, &s1) || !ReadVal(s1, &a) ||
            !Spec(DataType::kLong, Access::kRead, &s2) || !ReadVal(s2, &b))
            return false;
        psl.n = static_cast<int32_t>(a) < static_cast<int32_t>(b);
        psl.z = a == b;
        psl.c = a < b;
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kCmpb: {
        Ref s1, s2;
        uint32_t a, b;
        if (!Spec(DataType::kByte, Access::kRead, &s1) || !ReadVal(s1, &a) ||
            !Spec(DataType::kByte, Access::kRead, &s2) || !ReadVal(s2, &b))
            return false;
        psl.n = static_cast<int8_t>(a) < static_cast<int8_t>(b);
        psl.z = (a & 0xff) == (b & 0xff);
        psl.c = (a & 0xff) < (b & 0xff);
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kTstl: {
        Ref s;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &v))
            return false;
        SetNZ(v, /*clear_c=*/true);
        return true;
      }

      case Opcode::kTstb: {
        Ref s;
        uint32_t v;
        if (!Spec(DataType::kByte, Access::kRead, &s) || !ReadVal(s, &v))
            return false;
        SetNZByte(static_cast<uint8_t>(v));
        psl.c = false;
        return true;
      }

      case Opcode::kBisl2:
      case Opcode::kBicl2:
      case Opcode::kXorl2: {
        Ref s, d;
        uint32_t mask, v;
        if (!Spec(DataType::kLong, Access::kRead, &s) || !ReadVal(s, &mask) ||
            !Spec(DataType::kLong, Access::kModify, &d) || !ReadVal(d, &v))
            return false;
        const uint32_t r = op == Opcode::kBisl2   ? (v | mask)
                           : op == Opcode::kBicl2 ? (v & ~mask)
                                                  : (v ^ mask);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        if (!WriteVal(d, r))
            return false;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kBisl3:
      case Opcode::kBicl3:
      case Opcode::kXorl3: {
        Ref s1, s2, d;
        uint32_t mask, v;
        if (!Spec(DataType::kLong, Access::kRead, &s1) ||
            !ReadVal(s1, &mask) ||
            !Spec(DataType::kLong, Access::kRead, &s2) || !ReadVal(s2, &v))
            return false;
        const uint32_t r = op == Opcode::kBisl3   ? (v | mask)
                           : op == Opcode::kBicl3 ? (v & ~mask)
                                                  : (v ^ mask);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        if (!Spec(DataType::kLong, Access::kWrite, &d) || !WriteVal(d, r))
            return false;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kBitl: {
        Ref s1, s2;
        uint32_t mask, v;
        if (!Spec(DataType::kLong, Access::kRead, &s1) ||
            !ReadVal(s1, &mask) ||
            !Spec(DataType::kLong, Access::kRead, &s2) || !ReadVal(s2, &v))
            return false;
        const uint32_t r = mask & v;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kAshl: {
        Ref cnt_ref, src_ref, dst_ref;
        uint32_t cnt_raw, src;
        if (!Spec(DataType::kByte, Access::kRead, &cnt_ref) ||
            !ReadVal(cnt_ref, &cnt_raw) ||
            !Spec(DataType::kLong, Access::kRead, &src_ref) ||
            !ReadVal(src_ref, &src))
            return false;
        const int32_t cnt = SignExtend(cnt_raw & 0xff, 8);
        uint32_t r;
        bool overflow = false;
        if (cnt >= 0) {
            if (cnt > 31) {
                r = 0;
                overflow = src != 0;
            } else {
                const int64_t wide =
                    static_cast<int64_t>(static_cast<int32_t>(src)) << cnt;
                r = static_cast<uint32_t>(wide);
                overflow = wide != static_cast<int32_t>(r);
            }
        } else {
            const int32_t sh = -cnt;
            const int32_t s = static_cast<int32_t>(src);
            r = static_cast<uint32_t>(sh > 31 ? (s < 0 ? -1 : 0) : (s >> sh));
        }
        m_.AddCycles(ucode::CostOf(MicroOpKind::kShift));
        if (!Spec(DataType::kLong, Access::kWrite, &dst_ref) ||
            !WriteVal(dst_ref, r))
            return false;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = overflow;
        psl.c = false;
        return true;
      }

      case Opcode::kBrb:
      case Opcode::kBneq:
      case Opcode::kBeql:
      case Opcode::kBgtr:
      case Opcode::kBleq:
      case Opcode::kBgeq:
      case Opcode::kBlss:
      case Opcode::kBgtru:
      case Opcode::kBlequ:
      case Opcode::kBgequ:
      case Opcode::kBlssu:
      case Opcode::kBvc:
      case Opcode::kBvs: {
        int32_t disp;
        if (!FetchBranch8(&disp))
            return false;
        bool take;
        switch (op) {
          case Opcode::kBrb:   take = true; break;
          case Opcode::kBneq:  take = !psl.z; break;
          case Opcode::kBeql:  take = psl.z; break;
          case Opcode::kBgtr:  take = !(psl.n || psl.z); break;
          case Opcode::kBleq:  take = psl.n || psl.z; break;
          case Opcode::kBgeq:  take = !psl.n; break;
          case Opcode::kBlss:  take = psl.n; break;
          case Opcode::kBgtru: take = !(psl.c || psl.z); break;
          case Opcode::kBlequ: take = psl.c || psl.z; break;
          case Opcode::kBgequ: take = !psl.c; break;
          case Opcode::kBlssu: take = psl.c; break;
          case Opcode::kBvc:   take = !psl.v; break;
          default:             take = psl.v; break;  // kBvs
        }
        if (take)
            m_.set_pc(m_.regs_[isa::kRegPc] + disp);
        return true;
      }

      case Opcode::kBrw: {
        int32_t disp;
        if (!FetchBranch16(&disp))
            return false;
        m_.set_pc(m_.regs_[isa::kRegPc] + disp);
        return true;
      }

      case Opcode::kJmp: {
        Ref d;
        if (!Spec(DataType::kLong, Access::kAddress, &d))
            return false;
        m_.set_pc(d.addr);
        return true;
      }

      case Opcode::kJsb: {
        Ref d;
        if (!Spec(DataType::kLong, Access::kAddress, &d))
            return false;
        const uint32_t sp = m_.regs_[isa::kRegSp] - 4;
        if (!m_.MicroWrite(sp, 4, m_.regs_[isa::kRegPc]))
            return false;
        m_.regs_[isa::kRegSp] = sp;
        m_.set_pc(d.addr);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kCall));
        return true;
      }

      case Opcode::kRsb: {
        uint32_t ret;
        if (!m_.MicroRead(m_.regs_[isa::kRegSp], 4, MemAccessKind::kRead,
                          &ret))
            return false;
        m_.regs_[isa::kRegSp] += 4;
        m_.set_pc(ret);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kCall));
        return true;
      }

      case Opcode::kSobgtr:
      case Opcode::kSobgeq: {
        Ref idx;
        uint32_t v;
        if (!Spec(DataType::kLong, Access::kModify, &idx) ||
            !ReadVal(idx, &v))
            return false;
        int32_t disp;
        if (!FetchBranch8(&disp))
            return false;
        const uint32_t r = DoSub(v, 1);
        if (!WriteVal(idx, r))
            return false;
        const bool take = op == Opcode::kSobgtr
                              ? static_cast<int32_t>(r) > 0
                              : static_cast<int32_t>(r) >= 0;
        if (take)
            m_.set_pc(m_.regs_[isa::kRegPc] + disp);
        return true;
      }

      case Opcode::kAoblss: {
        Ref limit_ref, idx;
        uint32_t limit, v;
        if (!Spec(DataType::kLong, Access::kRead, &limit_ref) ||
            !ReadVal(limit_ref, &limit) ||
            !Spec(DataType::kLong, Access::kModify, &idx) ||
            !ReadVal(idx, &v))
            return false;
        int32_t disp;
        if (!FetchBranch8(&disp))
            return false;
        const uint32_t r = DoAdd(v, 1);
        if (!WriteVal(idx, r))
            return false;
        if (static_cast<int32_t>(r) < static_cast<int32_t>(limit))
            m_.set_pc(m_.regs_[isa::kRegPc] + disp);
        return true;
      }

      case Opcode::kCalls:
        return ExecCalls();

      case Opcode::kRet:
        return ExecRet();

      case Opcode::kMovc3:
        return ExecMovc3();

      case Opcode::kCmpc3:
        return ExecCmpc3();

      case Opcode::kLocc:
        return ExecLocc();

      case Opcode::kInsque:
        return ExecInsque();

      case Opcode::kRemque:
        return ExecRemque();

      case Opcode::kCasel:
        return ExecCasel();
    }
    // GetInstrInfo(op).valid was true, so every case must be handled above.
    Panic("Dispatch: unhandled valid opcode 0x", std::hex,
          static_cast<unsigned>(op));
}

void
Executor::Run()
{
    std::memcpy(m_.journal_regs_, m_.regs_, sizeof m_.regs_);
    m_.journal_psl_ = m_.psl_;
    inst_pc_ = m_.pc();
    abort_ = Abort::kNone;

    m_.AddCycles(ucode::CostOf(MicroOpKind::kDispatch));

    uint8_t raw_op = 0;
    bool ok = Fetch8(&raw_op);
    if (ok) {
        // "Instructions" counts decode dispatches (opcode byte fetched),
        // mirroring the kDecode fire — not icount_, which also advances
        // when the initial ifetch faults before any decode happens.
        ++m_.ev_.instructions;
        m_.AddCycles(m_.control_store_.FireDecode(
            inst_pc_, raw_op, m_.psl_.cur_mode == CpuMode::kKernel));
        ok = Dispatch(static_cast<Opcode>(raw_op));
    }

    if (ok)
        return;

    if (m_.pending_fault_.active) {
        // MMU fault: restartable. Roll back and dispatch TNV/ACV with the
        // fault parameters on top of the exception frame.
        const auto fault = m_.pending_fault_;
        m_.pending_fault_.active = false;
        std::memcpy(m_.regs_, m_.journal_regs_, sizeof m_.regs_);
        m_.psl_ = m_.journal_psl_;
        m_.InvalidateIBuf();
        const ExcVector vec = fault.status == mmu::XlateStatus::kTnv
                                  ? ExcVector::kTnv
                                  : ExcVector::kAcv;
        m_.DispatchException(vec, fault.write ? 1 : 0, fault.va, 2, inst_pc_);
        return;
    }

    switch (abort_) {
      case Abort::kFault:
        std::memcpy(m_.regs_, m_.journal_regs_, sizeof m_.regs_);
        m_.psl_ = m_.journal_psl_;
        m_.InvalidateIBuf();
        m_.DispatchSimple(fault_vec_, inst_pc_);
        return;
      case Abort::kTrap:
        // Side effects stand; resume after the instruction.
        m_.DispatchException(fault_vec_, trap_extra_, 0, trap_nextra_,
                             m_.pc());
        return;
      case Abort::kMicroFault:
      case Abort::kNone:
        break;
    }
    Panic("executor aborted without a recorded cause");
}

void
Machine::ExecuteInstruction()
{
    Executor ex(*this);
    ex.Run();
    // Faulted executions count as steps too, so Run() always terminates
    // and the interval timer keeps advancing even in fault storms.
    ++icount_;
}

}  // namespace atum::cpu
