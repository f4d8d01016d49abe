#ifndef ATUM_CPU_MACHINE_HOT_H_
#define ATUM_CPU_MACHINE_HOT_H_

/**
 * @file
 * The interpreter's reference path, inline: the prefetch-buffer byte
 * fetch, Translate, and MicroRead/MicroWrite. Internal to src/cpu.
 *
 * machine.h declares these members `inline`, and an inline function must
 * be defined in every translation unit that calls it, so machine.cc,
 * executor.cc and exceptions.cc all include this header. A caller that
 * forgets it gets an "inline function used but never defined" warning
 * (an error under -Werror), never a silent one-definition-rule break.
 *
 * Out of line stay the slow paths: the prefetch refill
 * (Machine::RefillIBuf), the TB-miss walk (mmu::Mmu::Walk), the
 * physical-memory range panic and the patch routines themselves.
 *
 * The rest of the per-instruction work is fixed at compile time too, so
 * no step makes an out-of-line call it does not need:
 *  - executor.cc's operand helpers (Read, Write, Modify, Address and the
 *    Locate/Load/Store halves) are templates on the data type, inlined
 *    into each Dispatch case with these primitives. A read operand is one
 *    call that decodes the specifier and reads it. The access checks
 *    (reserved operand for an immediate outside a read, for a register
 *    as an address) and the operand size are constants at each call.
 *  - Dispatch gates an opcode with one byte of isa::OpcodeGates(), whose
 *    pointer the Machine keeps, not through isa::GetInstrInfo.
 *  - StepOne tests the three interrupt latches inline and calls
 *    CheckInterrupts only when one is set.
 *  - set_pc is inline (machine.h), and the patch's record builders
 *    trace::FromMemAccess and MakeFlags are inline (trace/record.h).
 */

#include "cpu/machine.h"
#include "obs/spans.h"
#include "util/bitops.h"

namespace atum::cpu {

/**
 * Attributes the enclosing scope to `phase` iff the profiler has a
 * sampled window open. In unprofiled runs (and in -DATUM_TRACING=OFF
 * builds, where sampling() is constant false) this folds to nothing.
 */
struct PhaseScope {
    PhaseScope(obs::PhaseProfiler* profiler, obs::Phase phase)
        : profiler_(profiler != nullptr && profiler->sampling() ? profiler
                                                                : nullptr)
    {
        if (profiler_ != nullptr)
            profiler_->Enter(phase);
    }
    ~PhaseScope()
    {
        if (profiler_ != nullptr)
            profiler_->Exit();
    }

    obs::PhaseProfiler* profiler_;
};

inline bool
Machine::FetchByte(uint8_t* out)
{
    const uint32_t va = regs_[isa::kRegPc];
    const uint32_t aligned = static_cast<uint32_t>(AlignDown(va, 4));
    if (!ibuf_valid_ || ibuf_va_ != aligned) [[unlikely]] {
        if (!RefillIBuf(aligned))
            return false;
    }
    *out = ibuf_bytes_[va & 3];
    regs_[isa::kRegPc] = va + 1;
    return true;
}

inline bool
Machine::Translate(uint32_t va, bool write, uint32_t* pa)
{
    PhaseScope phase(profiler_, obs::Phase::kTranslate);
    mmu::XlateResult res =
        mmu_.Translate(va, write, psl_.cur_mode == CpuMode::kKernel);
    AddCycles(res.ucycles);
    if (res.status != mmu::XlateStatus::kOk) [[unlikely]] {
        pending_fault_ = {true, res.status, va, write};
        return false;
    }
    *pa = res.paddr;
    return true;
}

inline bool
Machine::MicroRead(uint32_t va, uint8_t size, ucode::MemAccessKind kind,
                   uint32_t* out)
{
    using ucode::MemAccessKind;
    using ucode::MicroOpKind;

    uint32_t pa;
    if (!Translate(va, false, &pa))
        return false;

    uint32_t value;
    {
        PhaseScope phase(profiler_, obs::Phase::kMemory);
        const uint32_t last = va + size - 1;
        if (AlignDown(va, kPageBytes) == AlignDown(last, kPageBytes)) {
            value = size == 1   ? memory_.Read8(pa)
                    : size == 2 ? memory_.Read16(pa)
                                : memory_.Read32(pa);
        } else {
            // Unaligned access straddling a page boundary: translate each
            // byte's page and assemble (the microcode did two bus cycles).
            value = 0;
            for (uint8_t i = 0; i < size; ++i) {
                uint32_t pb;
                if (!Translate(va + i, false, &pb))
                    return false;
                value |= static_cast<uint32_t>(memory_.Read8(pb)) << (8 * i);
            }
        }
    }

    AddCycles(ucode::CostOf(kind == MemAccessKind::kIFetch
                                ? MicroOpKind::kIFetch
                                : MicroOpKind::kDRead));
    if (kind == MemAccessKind::kIFetch)
        ++ev_.ifetches;
    else
        ++ev_.reads;
    {
        PhaseScope phase(profiler_, obs::Phase::kTracer);
        AddCycles(control_store_.FireMemAccess(ucode::MemAccess{
            va, pa, size, kind, psl_.cur_mode == CpuMode::kKernel}));
    }
    *out = value;
    return true;
}

inline bool
Machine::MicroWrite(uint32_t va, uint8_t size, uint32_t value)
{
    uint32_t pa;
    if (!Translate(va, true, &pa))
        return false;

    {
        PhaseScope phase(profiler_, obs::Phase::kMemory);
        const uint32_t last = va + size - 1;
        if (AlignDown(va, kPageBytes) == AlignDown(last, kPageBytes)) {
            if (size == 1)
                memory_.Write8(pa, static_cast<uint8_t>(value));
            else if (size == 2)
                memory_.Write16(pa, static_cast<uint16_t>(value));
            else
                memory_.Write32(pa, value);
        } else {
            for (uint8_t i = 0; i < size; ++i) {
                uint32_t pb;
                if (!Translate(va + i, true, &pb))
                    return false;
                memory_.Write8(pb, static_cast<uint8_t>(value >> (8 * i)));
            }
        }
    }

    AddCycles(ucode::CostOf(ucode::MicroOpKind::kDWrite));
    ++ev_.writes;
    {
        PhaseScope phase(profiler_, obs::Phase::kTracer);
        AddCycles(control_store_.FireMemAccess(
            ucode::MemAccess{va, pa, size, ucode::MemAccessKind::kWrite,
                             psl_.cur_mode == CpuMode::kKernel}));
    }
    return true;
}

}  // namespace atum::cpu

#endif  // ATUM_CPU_MACHINE_HOT_H_
