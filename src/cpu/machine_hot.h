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
 * Translate, MicroRead and MicroWrite are one template body each on a
 * compile-time `kProfiled` flag:
 *  - The unprofiled instantiation, the default, carries no profiler code.
 *    It is forced inline into its callers together with the TB-hit path
 *    of mmu::Mmu::Translate, mmu::Tlb::Lookup and the PhysicalMemory
 *    accessors. So a prefetch refill reaches the TB and memory with no
 *    call, and an operand read makes one: the memory-mode decode
 *    (executor.cc's MemAddress), which then reads inline.
 *  - The profiled instantiation wraps the translate, memory and tracer
 *    work in PhaseScopes. It is out of line in machine.cc
 *    (MicroReadProfiled, MicroWriteProfiled), and the unprofiled body
 *    branches to it only while a PhaseProfiler is attached
 *    (SetPhaseProfiler). The run loop attaches one only for the step a
 *    sampled window covers, so a sampled run keeps its phase split and
 *    runs its other steps inline.
 *  - The patch's share of a reference is inline too. Under ATUM's tracer
 *    ucode::ControlStore::FireMemAccess, forced inline, packs the record
 *    (trace::PackMemAccess, header-inline) and stores it into the
 *    reserved region, bumps the head and the tallies, and returns the
 *    patch cost. A traced reference thus costs one 8-byte store and no
 *    call. Only the store that fills the buffer calls out, through
 *    ControlStore::CallMemAccessPatch, and the tracer drains.
 *
 * Out of line stay the slow paths: the TB-miss walk (mmu::Mmu::Walk),
 * the physical-memory range panic, the patch routines themselves (the
 * buffer-filling store, the other splice points, a patch with no record
 * buffer) and the profiled instantiation. The prefetch refill
 * (Machine::RefillIBuf) is out of line too, but makes no call on its TB
 * hit, traced or not. scripts/check_hot_path.sh checks these calls in
 * the object code.
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
 *  - StepOne, with the instruction's set-up and abort handling
 *    (Executor::Run), is one function in executor.cc: it tests the three
 *    interrupt latches inline, calls CheckInterrupts only when one is
 *    set, and calls Dispatch. A step is RunLoop → StepOne → Dispatch.
 *  - set_pc is inline (machine.h).
 */

#include "cpu/machine.h"
#include "obs/spans.h"
#include "util/bitops.h"

namespace atum::cpu {

/**
 * Attributes the enclosing scope to `phase` iff the profiler has a
 * sampled window open. Only the profiled instantiation has one; the
 * unprofiled PhaseScope is empty and folds to nothing.
 */
template <bool kProfiled>
struct PhaseScope {
    PhaseScope(obs::PhaseProfiler*, obs::Phase) {}
};

template <>
struct PhaseScope<true> {
    PhaseScope(obs::PhaseProfiler* profiler, obs::Phase phase)
        : profiler_(profiler->sampling() ? profiler : nullptr)
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

template <bool kProfiled>
[[gnu::always_inline]] inline bool
Machine::Translate(uint32_t va, bool write, uint32_t* pa)
{
    PhaseScope<kProfiled> phase(profiler_, obs::Phase::kTranslate);
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

template <bool kProfiled>
[[gnu::always_inline]] inline bool
Machine::MicroRead(uint32_t va, uint8_t size, ucode::MemAccessKind kind,
                   uint32_t* out)
{
    using ucode::MemAccessKind;
    using ucode::MicroOpKind;

    if constexpr (!kProfiled) {
        if (profiler_ != nullptr) [[unlikely]]
            return MicroReadProfiled(va, size, kind, out);
    }

    uint32_t pa;
    if (!Translate<kProfiled>(va, false, &pa))
        return false;

    uint32_t value;
    {
        PhaseScope<kProfiled> phase(profiler_, obs::Phase::kMemory);
        if ((va & (kPageBytes - 1)) + size <= kPageBytes) {
            value = size == 1   ? memory_.Read8(pa)
                    : size == 2 ? memory_.Read16(pa)
                                : memory_.Read32(pa);
        } else {
            // Unaligned access straddling a page boundary: translate each
            // byte's page and assemble (the microcode did two bus cycles).
            value = 0;
            for (uint8_t i = 0; i < size; ++i) {
                uint32_t pb;
                if (!Translate<kProfiled>(va + i, false, &pb))
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
        PhaseScope<kProfiled> phase(profiler_, obs::Phase::kTracer);
        AddCycles(control_store_.FireMemAccess(ucode::MemAccess{
            va, pa, size, kind, psl_.cur_mode == CpuMode::kKernel}));
    }
    *out = value;
    return true;
}

template <bool kProfiled>
[[gnu::always_inline]] inline bool
Machine::MicroWrite(uint32_t va, uint8_t size, uint32_t value)
{
    if constexpr (!kProfiled) {
        if (profiler_ != nullptr) [[unlikely]]
            return MicroWriteProfiled(va, size, value);
    }

    uint32_t pa;
    if (!Translate<kProfiled>(va, true, &pa))
        return false;

    {
        PhaseScope<kProfiled> phase(profiler_, obs::Phase::kMemory);
        if ((va & (kPageBytes - 1)) + size <= kPageBytes) {
            if (size == 1)
                memory_.Write8(pa, static_cast<uint8_t>(value));
            else if (size == 2)
                memory_.Write16(pa, static_cast<uint16_t>(value));
            else
                memory_.Write32(pa, value);
        } else {
            for (uint8_t i = 0; i < size; ++i) {
                uint32_t pb;
                if (!Translate<kProfiled>(va + i, true, &pb))
                    return false;
                memory_.Write8(pb, static_cast<uint8_t>(value >> (8 * i)));
            }
        }
    }

    AddCycles(ucode::CostOf(ucode::MicroOpKind::kDWrite));
    ++ev_.writes;
    {
        PhaseScope<kProfiled> phase(profiler_, obs::Phase::kTracer);
        AddCycles(control_store_.FireMemAccess(
            ucode::MemAccess{va, pa, size, ucode::MemAccessKind::kWrite,
                             psl_.cur_mode == CpuMode::kKernel}));
    }
    return true;
}

}  // namespace atum::cpu

#endif  // ATUM_CPU_MACHINE_HOT_H_
