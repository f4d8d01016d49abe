#include "cpu/machine.h"
#include "cpu/machine_hot.h"

#include "util/logging.h"

/**
 * @file
 * Exception, interrupt and REI microcode for the VCX-32 machine.
 *
 * All dispatches switch to kernel mode, raise IPL to 31 (handlers are never
 * preempted; pending interrupts are taken when REI lowers IPL), push the
 * interrupted PSL and PC (plus per-vector extra words, pushed last so they
 * are on top), and vector through the SCB.
 */

namespace atum::cpu {

using ucode::MemAccess;
using ucode::MemAccessKind;
using ucode::MicroOpKind;

void
Machine::SwitchMode(CpuMode new_mode)
{
    if (new_mode == psl_.cur_mode)
        return;
    banked_sp_[static_cast<size_t>(psl_.cur_mode)] = regs_[isa::kRegSp];
    regs_[isa::kRegSp] = banked_sp_[static_cast<size_t>(new_mode)];
    psl_.cur_mode = new_mode;
    InvalidateIBuf();
}

void
Machine::PushKernel(uint32_t value)
{
    regs_[isa::kRegSp] -= 4;
    if (!MicroWrite(regs_[isa::kRegSp], 4, value)) {
        Panic("double fault: kernel stack push failed at sp=0x", std::hex,
              regs_[isa::kRegSp]);
    }
}

void
Machine::DispatchException(ExcVector vector, uint32_t extra0, uint32_t extra1,
                           unsigned num_extra, uint32_t restart_pc)
{
    const uint32_t old_psl = psl_.ToWord();
    const CpuMode old_mode = psl_.cur_mode;

    SwitchMode(CpuMode::kKernel);
    psl_.prev_mode = old_mode;
    psl_.ipl = 31;

    PushKernel(old_psl);
    PushKernel(restart_pc);
    if (num_extra >= 1)
        PushKernel(extra0);
    if (num_extra >= 2)
        PushKernel(extra1);

    const uint32_t vec_pa = scbb_ + 4 * static_cast<uint32_t>(vector);
    if (!memory_.Contains(vec_pa, 4))
        Panic("SCB vector ", static_cast<unsigned>(vector),
              " outside physical memory (scbb=0x", std::hex, scbb_, ")");
    const uint32_t handler = memory_.Read32(vec_pa);
    AddCycles(ucode::CostOf(MicroOpKind::kDRead));
    ++ev_.reads;  // SCB vector read, mirrored by the fire below
    AddCycles(control_store_.FireMemAccess(
        MemAccess{vec_pa, vec_pa, 4, MemAccessKind::kRead, true}));
    if (handler == 0) {
        Panic("no handler installed for exception vector ",
              static_cast<unsigned>(vector));
    }

    AddCycles(ucode::CostOf(MicroOpKind::kExcDispatch));
    ++ev_.exceptions;
    if (vector == ExcVector::kChmk)
        ++ev_.syscalls;
    AddCycles(
        control_store_.FireExceptionDispatch(static_cast<uint8_t>(vector)));

    set_pc(handler);
    last_step_faulted_ = true;
    ++exceptions_;
}

void
Machine::DispatchSimple(ExcVector vector, uint32_t restart_pc)
{
    DispatchException(vector, 0, 0, 0, restart_pc);
}

bool
Machine::CheckInterrupts()
{
    if (dma_pending_ && psl_.ipl < kDmaIpl) {
        dma_pending_ = false;
        DispatchSimple(ExcVector::kDmaDone, pc());
        return true;
    }
    if (timer_pending_ && psl_.ipl < kTimerIpl) {
        timer_pending_ = false;
        DispatchSimple(ExcVector::kTimer, pc());
        return true;
    }
    if (software_pending_ && psl_.ipl < kSoftwareIpl) {
        software_pending_ = false;
        DispatchSimple(ExcVector::kSoftware, pc());
        return true;
    }
    return false;
}

void
Machine::DoRei()
{
    uint32_t new_pc, psl_word;
    if (!MicroRead(regs_[isa::kRegSp], 4, MemAccessKind::kRead, &new_pc) ||
        !MicroRead(regs_[isa::kRegSp] + 4, 4, MemAccessKind::kRead,
                   &psl_word)) {
        Panic("REI: kernel stack pop faulted at sp=0x", std::hex,
              regs_[isa::kRegSp]);
    }
    regs_[isa::kRegSp] += 8;

    const Psl new_psl = Psl::FromWord(psl_word);
    SwitchMode(new_psl.cur_mode);  // banks the stack pointers
    psl_ = new_psl;
    set_pc(new_pc);
    AddCycles(ucode::CostOf(MicroOpKind::kRei));
}

}  // namespace atum::cpu
