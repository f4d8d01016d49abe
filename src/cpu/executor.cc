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

constexpr DataType kB = DataType::kByte;
constexpr DataType kW = DataType::kWord;
constexpr DataType kL = DataType::kLong;

/** Operand size in bytes. */
template <DataType T>
constexpr uint8_t kSize = static_cast<uint8_t>(T);

/** The register bits an operand of type T reads and writes. */
template <DataType T>
constexpr uint32_t kMask = T == kB ? 0xffu : T == kW ? 0xffffu : ~0u;
}  // namespace

// The operand helpers below sit under every instruction. Inlining them
// into Dispatch lets each call site fold its type and access checks.
// MemAddress, the memory-mode decode, is left to the compiler: forcing it
// inline as well grew this file's code by two thirds, for no measured
// gain.
#define ATUM_OPERAND_INLINE inline __attribute__((always_inline))

/** Executes exactly one instruction on behalf of Machine. */
class Executor
{
  public:
    explicit Executor(Machine& m) : m_(m) {}

    void Run();

  private:
    /**
     * A decoded operand whose value is read or written later: register
     * `reg`, memory at `addr` (reg == kMemory), or an immediate held in
     * `addr` (reg == kImmediate; read access only).
     */
    struct Loc {
        static constexpr uint8_t kMemory = isa::kNumRegs;
        static constexpr uint8_t kImmediate = isa::kNumRegs + 1;
        uint8_t reg = kMemory;
        uint32_t addr = 0;
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
    template <DataType T> bool FetchImm(uint32_t* out);

    // -- operand machinery, specialized on type and access ---------------
    //
    // Read, Write, Modify and Address each decode one specifier under
    // their access class; Locate/Load/Store split a decode from its value
    // where an instruction does work in between. An illegal mode for the
    // access raises a reserved-operand fault: a register has no address,
    // and only a read may name an immediate.
    bool FetchSpec(uint8_t* spec);
    template <DataType T> bool MemAddress(uint8_t spec, uint32_t* addr);
    template <DataType T> bool Read(uint32_t* out);
    template <DataType T> bool Write(uint32_t value);
    template <DataType T> bool Modify(Loc* loc, uint32_t* value);
    bool Address(uint32_t* addr);
    template <DataType T, Access A> bool Locate(Loc* loc);
    template <DataType T> bool Load(const Loc& loc, uint32_t* out);
    template <DataType T> bool Store(const Loc& loc, uint32_t value);

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

ATUM_OPERAND_INLINE bool
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

/** Fetches an operand-sized immediate from the instruction stream. */
template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::FetchImm(uint32_t* out)
{
    if constexpr (T == kB) {
        uint8_t b;
        if (!Fetch8(&b))
            return false;
        *out = b;
        return true;
    } else if constexpr (T == kW) {
        uint16_t w;
        if (!Fetch16(&w))
            return false;
        *out = w;
        return true;
    } else {
        return Fetch32(out);
    }
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

/** Charges the specifier micro-op and fetches the specifier byte. */
ATUM_OPERAND_INLINE bool
Executor::FetchSpec(uint8_t* spec)
{
    m_.AddCycles(ucode::CostOf(MicroOpKind::kSpecifier));
    return Fetch8(spec);
}

/**
 * The effective address of a memory-mode specifier, with its register
 * side effects. Register and immediate modes have no address here, and
 * mode values 9..15 are reserved: all three raise a reserved operand.
 */
template <DataType T>
inline bool
Executor::MemAddress(uint8_t spec, uint32_t* addr)
{
    const uint8_t reg = spec & 0xf;
    switch (static_cast<AddrMode>(spec >> 4)) {
      case AddrMode::kRegDef:
        *addr = m_.regs_[reg];
        return true;

      case AddrMode::kAutoInc:
        if (reg == isa::kRegPc)
            return RaiseFault(ExcVector::kReservedOperand);
        *addr = m_.regs_[reg];
        m_.regs_[reg] += kSize<T>;
        return true;

      case AddrMode::kAutoDec:
        if (reg == isa::kRegPc)
            return RaiseFault(ExcVector::kReservedOperand);
        m_.regs_[reg] -= kSize<T>;
        *addr = m_.regs_[reg];
        return true;

      case AddrMode::kDisp8: {
        uint8_t d;
        if (!Fetch8(&d))
            return false;
        // The base register is read after the extension bytes so that
        // PC-based addressing sees the address of the next specifier.
        *addr = m_.regs_[reg] + SignExtend(d, 8);
        return true;
      }

      case AddrMode::kDisp32: {
        uint32_t d;
        if (!Fetch32(&d))
            return false;
        *addr = m_.regs_[reg] + d;
        return true;
      }

      case AddrMode::kDisp32Def: {
        uint32_t d;
        if (!Fetch32(&d))
            return false;
        return m_.MicroRead(m_.regs_[reg] + d, 4, MemAccessKind::kRead, addr);
      }

      case AddrMode::kAbs:
        return Fetch32(addr);

      default:
        return RaiseFault(ExcVector::kReservedOperand);
    }
}

/** Decodes a read operand and reads its value, in one step. */
template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::Read(uint32_t* out)
{
    uint8_t spec;
    if (!FetchSpec(&spec))
        return false;
    switch (static_cast<AddrMode>(spec >> 4)) {
      case AddrMode::kReg:
        *out = m_.regs_[spec & 0xf] & kMask<T>;
        return true;
      case AddrMode::kImm:
        return FetchImm<T>(out);
      default: {
        uint32_t addr;
        return MemAddress<T>(spec, &addr) &&
               m_.MicroRead(addr, kSize<T>, MemAccessKind::kRead, out);
      }
    }
}

/** Decodes a write operand and stores `value` to it. */
template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::Write(uint32_t value)
{
    Loc loc;
    return Locate<T, Access::kWrite>(&loc) && Store<T>(loc, value);
}

/** Decodes a modify operand and reads it; Store writes the result back. */
template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::Modify(Loc* loc, uint32_t* value)
{
    return Locate<T, Access::kModify>(loc) && Load<T>(*loc, value);
}

/** Decodes an address operand (always longword-sized). */
ATUM_OPERAND_INLINE bool
Executor::Address(uint32_t* addr)
{
    uint8_t spec;
    return FetchSpec(&spec) && MemAddress<kL>(spec, addr);
}

/** Decodes an operand under access A without touching its value. */
template <DataType T, Access A>
ATUM_OPERAND_INLINE bool
Executor::Locate(Loc* loc)
{
    static_assert(A == Access::kRead || A == Access::kWrite ||
                  A == Access::kModify);
    uint8_t spec;
    if (!FetchSpec(&spec))
        return false;
    switch (static_cast<AddrMode>(spec >> 4)) {
      case AddrMode::kReg:
        loc->reg = spec & 0xf;
        return true;
      case AddrMode::kImm:
        if constexpr (A != Access::kRead)
            return RaiseFault(ExcVector::kReservedOperand);
        loc->reg = Loc::kImmediate;
        return FetchImm<T>(&loc->addr);
      default:
        loc->reg = Loc::kMemory;
        return MemAddress<T>(spec, &loc->addr);
    }
}

template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::Load(const Loc& loc, uint32_t* out)
{
    if (loc.reg == Loc::kMemory)
        return m_.MicroRead(loc.addr, kSize<T>, MemAccessKind::kRead, out);
    *out = loc.reg == Loc::kImmediate ? loc.addr : m_.regs_[loc.reg] & kMask<T>;
    return true;
}

template <DataType T>
ATUM_OPERAND_INLINE bool
Executor::Store(const Loc& loc, uint32_t value)
{
    if (loc.reg == Loc::kMemory)
        return m_.MicroWrite(loc.addr, kSize<T>, value);
    uint32_t& reg = m_.regs_[loc.reg];
    reg = (reg & ~kMask<T>) | (value & kMask<T>);
    // A longword write to the PC is a jump; a byte or word write merges
    // into it without refetching.
    if (T == kL && loc.reg == isa::kRegPc)
        m_.InvalidateIBuf();
    return true;
}

#undef ATUM_OPERAND_INLINE

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
    // The length is read after both addresses are decoded.
    Loc len_loc;
    uint32_t src, dst, len;
    if (!Locate<kL, Access::kRead>(&len_loc) || !Address(&src) ||
        !Address(&dst) || !Load<kL>(len_loc, &len)) {
        return false;
    }
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

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
    Loc len_loc;
    uint32_t s1, s2, len;
    if (!Locate<kL, Access::kRead>(&len_loc) || !Address(&s1) ||
        !Address(&s2) || !Load<kL>(len_loc, &len)) {
        return false;
    }
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

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
    uint32_t target, len, base;
    if (!Read<kB>(&target) || !Read<kL>(&len) || !Address(&base))
        return false;
    if (len > kMaxMovcLen)
        return RaiseFault(ExcVector::kReservedOperand);

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
    uint32_t e, p, next;
    if (!Address(&e) || !Address(&p))
        return false;
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
    uint32_t e, next, prev;
    if (!Address(&e))
        return false;
    if (!m_.MicroRead(e, 4, MemAccessKind::kRead, &next) ||
        !m_.MicroRead(e + 4, 4, MemAccessKind::kRead, &prev)) {
        return false;
    }
    if (!m_.MicroWrite(prev, 4, next) || !m_.MicroWrite(next + 4, 4, prev))
        return false;
    if (!Write<kL>(e))
        return false;
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
    uint32_t sel, base, limit;
    if (!Read<kL>(&sel) || !Read<kL>(&base) || !Read<kL>(&limit))
        return false;
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
    // The argument count is read after the target address is decoded.
    Loc narg_loc;
    uint32_t dst, narg;
    if (!Locate<kL, Access::kRead>(&narg_loc) || !Address(&dst) ||
        !Load<kL>(narg_loc, &narg)) {
        return false;
    }

    uint32_t sp = m_.regs_[isa::kRegSp];
    if (!m_.MicroWrite(sp - 4, 4, m_.regs_[isa::kRegPc]) ||
        !m_.MicroWrite(sp - 8, 4, m_.regs_[isa::kRegFp]) ||
        !m_.MicroWrite(sp - 12, 4, narg)) {
        return false;
    }
    sp -= 12;
    m_.regs_[isa::kRegSp] = sp;
    m_.regs_[isa::kRegFp] = sp;
    m_.set_pc(dst);
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

    const uint8_t gate = m_.opcode_gates_[static_cast<uint8_t>(op)];
    if ((gate & isa::kGateValid) == 0)
        return RaiseFault(ExcVector::kReservedInstr);
    if ((gate & isa::kGatePrivileged) != 0 && !kernel)
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
        uint32_t code;
        if (!Read<kL>(&code))
            return false;
        return RaiseTrap(ExcVector::kChmk, code, 1);
      }

      case Opcode::kMtpr: {
        uint32_t src, ipr;
        if (!Read<kL>(&src) || !Read<kL>(&ipr))
            return false;
        if (ipr >= static_cast<uint32_t>(isa::Ipr::kNumIprs))
            return RaiseFault(ExcVector::kReservedOperand);
        m_.WriteIpr(static_cast<isa::Ipr>(ipr), src);
        return true;
      }

      case Opcode::kMfpr: {
        // The destination is decoded before the register number is checked.
        uint32_t ipr;
        Loc dst;
        if (!Read<kL>(&ipr) || !Locate<kL, Access::kWrite>(&dst))
            return false;
        if (ipr >= static_cast<uint32_t>(isa::Ipr::kNumIprs))
            return RaiseFault(ExcVector::kReservedOperand);
        return Store<kL>(dst, m_.ReadIpr(static_cast<isa::Ipr>(ipr)));
      }

      case Opcode::kSvpctx:
        return ExecSvpctx();

      case Opcode::kLdpctx:
        return ExecLdpctx();

      case Opcode::kMovl: {
        uint32_t v;
        if (!Read<kL>(&v) || !Write<kL>(v))
            return false;
        SetNZ(v);
        return true;
      }

      case Opcode::kMovb: {
        uint32_t v;
        if (!Read<kB>(&v) || !Write<kB>(v))
            return false;
        SetNZByte(static_cast<uint8_t>(v));
        return true;
      }

      case Opcode::kMovzbl: {
        uint32_t v;
        if (!Read<kB>(&v) || !Write<kL>(v & 0xff))
            return false;
        psl.n = false;
        psl.z = (v & 0xff) == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kMoval: {
        uint32_t addr;
        if (!Address(&addr) || !Write<kL>(addr))
            return false;
        SetNZ(addr);
        return true;
      }

      case Opcode::kPushl: {
        uint32_t v;
        if (!Read<kL>(&v))
            return false;
        const uint32_t sp = m_.regs_[isa::kRegSp] - 4;
        if (!m_.MicroWrite(sp, 4, v))
            return false;
        m_.regs_[isa::kRegSp] = sp;
        SetNZ(v);
        return true;
      }

      case Opcode::kClrl: {
        if (!Write<kL>(0))
            return false;
        psl.n = false;
        psl.z = true;
        psl.v = false;
        return true;
      }

      case Opcode::kClrb: {
        if (!Write<kB>(0))
            return false;
        psl.n = false;
        psl.z = true;
        psl.v = false;
        return true;
      }

      case Opcode::kMovw: {
        uint32_t v;
        if (!Read<kW>(&v) || !Write<kW>(v))
            return false;
        SetNZWord(static_cast<uint16_t>(v));
        return true;
      }

      case Opcode::kMovzwl: {
        uint32_t v;
        if (!Read<kW>(&v) || !Write<kL>(v & 0xffff))
            return false;
        psl.n = false;
        psl.z = (v & 0xffff) == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kCmpw: {
        uint32_t a, b;
        if (!Read<kW>(&a) || !Read<kW>(&b))
            return false;
        psl.n = static_cast<int16_t>(a) < static_cast<int16_t>(b);
        psl.z = (a & 0xffff) == (b & 0xffff);
        psl.c = (a & 0xffff) < (b & 0xffff);
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kTstw: {
        uint32_t v;
        if (!Read<kW>(&v))
            return false;
        SetNZWord(static_cast<uint16_t>(v));
        psl.c = false;
        return true;
      }

      case Opcode::kMnegl: {
        uint32_t v;
        if (!Read<kL>(&v))
            return false;
        return Write<kL>(DoSub(0, v));
      }

      case Opcode::kAddl2:
      case Opcode::kSubl2:
      case Opcode::kMull2:
      case Opcode::kDivl2: {
        uint32_t a, b;
        Loc d;
        if (!Read<kL>(&a) || !Modify<kL>(&d, &b))
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
        return Store<kL>(d, r);
      }

      case Opcode::kAddl3:
      case Opcode::kSubl3:
      case Opcode::kMull3:
      case Opcode::kDivl3: {
        uint32_t a, b;
        if (!Read<kL>(&a) || !Read<kL>(&b))
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
        return Write<kL>(r);
      }

      case Opcode::kIncl:
      case Opcode::kDecl: {
        uint32_t v;
        Loc d;
        if (!Modify<kL>(&d, &v))
            return false;
        const uint32_t r =
            op == Opcode::kIncl ? DoAdd(v, 1) : DoSub(v, 1);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return Store<kL>(d, r);
      }

      case Opcode::kCmpl: {
        uint32_t a, b;
        if (!Read<kL>(&a) || !Read<kL>(&b))
            return false;
        psl.n = static_cast<int32_t>(a) < static_cast<int32_t>(b);
        psl.z = a == b;
        psl.c = a < b;
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kCmpb: {
        uint32_t a, b;
        if (!Read<kB>(&a) || !Read<kB>(&b))
            return false;
        psl.n = static_cast<int8_t>(a) < static_cast<int8_t>(b);
        psl.z = (a & 0xff) == (b & 0xff);
        psl.c = (a & 0xff) < (b & 0xff);
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kTstl: {
        uint32_t v;
        if (!Read<kL>(&v))
            return false;
        SetNZ(v, /*clear_c=*/true);
        return true;
      }

      case Opcode::kTstb: {
        uint32_t v;
        if (!Read<kB>(&v))
            return false;
        SetNZByte(static_cast<uint8_t>(v));
        psl.c = false;
        return true;
      }

      case Opcode::kBisl2:
      case Opcode::kBicl2:
      case Opcode::kXorl2: {
        uint32_t mask, v;
        Loc d;
        if (!Read<kL>(&mask) || !Modify<kL>(&d, &v))
            return false;
        const uint32_t r = op == Opcode::kBisl2   ? (v | mask)
                           : op == Opcode::kBicl2 ? (v & ~mask)
                                                  : (v ^ mask);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        if (!Store<kL>(d, r))
            return false;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kBisl3:
      case Opcode::kBicl3:
      case Opcode::kXorl3: {
        uint32_t mask, v;
        if (!Read<kL>(&mask) || !Read<kL>(&v))
            return false;
        const uint32_t r = op == Opcode::kBisl3   ? (v | mask)
                           : op == Opcode::kBicl3 ? (v & ~mask)
                                                  : (v ^ mask);
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        if (!Write<kL>(r))
            return false;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        return true;
      }

      case Opcode::kBitl: {
        uint32_t mask, v;
        if (!Read<kL>(&mask) || !Read<kL>(&v))
            return false;
        const uint32_t r = mask & v;
        psl.n = (r >> 31) != 0;
        psl.z = r == 0;
        psl.v = false;
        m_.AddCycles(ucode::CostOf(MicroOpKind::kAlu));
        return true;
      }

      case Opcode::kAshl: {
        uint32_t cnt_raw, src;
        if (!Read<kB>(&cnt_raw) || !Read<kL>(&src))
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
        if (!Write<kL>(r))
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
        uint32_t addr;
        if (!Address(&addr))
            return false;
        m_.set_pc(addr);
        return true;
      }

      case Opcode::kJsb: {
        uint32_t addr;
        if (!Address(&addr))
            return false;
        const uint32_t sp = m_.regs_[isa::kRegSp] - 4;
        if (!m_.MicroWrite(sp, 4, m_.regs_[isa::kRegPc]))
            return false;
        m_.regs_[isa::kRegSp] = sp;
        m_.set_pc(addr);
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
        uint32_t v;
        Loc idx;
        if (!Modify<kL>(&idx, &v))
            return false;
        int32_t disp;
        if (!FetchBranch8(&disp))
            return false;
        const uint32_t r = DoSub(v, 1);
        if (!Store<kL>(idx, r))
            return false;
        const bool take = op == Opcode::kSobgtr
                              ? static_cast<int32_t>(r) > 0
                              : static_cast<int32_t>(r) >= 0;
        if (take)
            m_.set_pc(m_.regs_[isa::kRegPc] + disp);
        return true;
      }

      case Opcode::kAoblss: {
        uint32_t limit, v;
        Loc idx;
        if (!Read<kL>(&limit) || !Modify<kL>(&idx, &v))
            return false;
        int32_t disp;
        if (!FetchBranch8(&disp))
            return false;
        const uint32_t r = DoAdd(v, 1);
        if (!Store<kL>(idx, r))
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
    // The gate marked op valid, so every case must be handled above.
    Panic("Dispatch: unhandled valid opcode 0x", std::hex,
          static_cast<unsigned>(op));
}

// Run is inlined into StepOne below, so a step calls Dispatch directly.
[[gnu::always_inline]] inline void
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
Machine::StepOne()
{
    if (halted_)
        return;
    last_step_faulted_ = false;

    // The latches are tested here, inline; CheckInterrupts applies the
    // IPL mask and priority only when one of them is set.
    if ((dma_pending_ || timer_pending_ || software_pending_) &&
        CheckInterrupts())
        return;  // interrupt dispatch consumed this step

    Executor(*this).Run();
    // Faulted executions count as steps too, so Run() always terminates
    // and the interval timer keeps advancing even in fault storms.
    ++icount_;

    // Interval timer counts retired instructions (deterministic w.r.t.
    // the instruction stream, so tracing does not perturb scheduling).
    if ((iccs_ & 1) && !halted_) {
        if (--icr_count_ == 0) {
            icr_count_ = icr_reload_;
            timer_pending_ = true;
        }
    }

    // DMA completion countdown, same deterministic clock.
    if (dma_delay_ > 0 && !halted_) {
        if (--dma_delay_ == 0)
            dma_pending_ = true;
    }
}

}  // namespace atum::cpu
