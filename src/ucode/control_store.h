#ifndef ATUM_UCODE_CONTROL_STORE_H_
#define ATUM_UCODE_CONTROL_STORE_H_

/**
 * @file
 * The patchable control store.
 *
 * On the VAX 8200 the microcode lived in a writable control store, which is
 * what made ATUM possible: patch micro-routines could be spliced in at the
 * micro-instructions that perform memory references and context switches.
 * This class models exactly those splice points, and a Patch is the set of
 * micro-routines spliced into them. The executor calls Fire*() at each
 * point; the installed patch runs and returns how many extra micro-cycles
 * it consumed, which the machine adds to its cycle count (tracing dilates
 * execution, as on the real machine).
 *
 * Every Fire*() happens inside one Machine::StepOne, the machine's step
 * unit: one instruction dispatch or one interrupt delivery. Session
 * budgets count those steps (core/session.h).
 *
 * At most one patch is installed at a time. ATUM's tracer is a single
 * patch covering every point it records; a point the patch does not
 * override costs nothing.
 */

#include <cstdint>

#include "ucode/micro_op.h"

namespace atum::ucode {

/**
 * A set of patch micro-routines, one virtual method per splice point. Each
 * returns the extra micro-cycles it consumed; a point left un-overridden
 * returns 0 (unpatched).
 */
class Patch
{
  public:
    virtual ~Patch() = default;

    /** Every architectural memory reference. */
    virtual uint32_t OnMemAccess(const MemAccess&) { return 0; }
    /** LDPCTX committed a new process context: pid and its PCB address. */
    virtual uint32_t OnContextSwitch(uint16_t /*pid*/, uint32_t /*pcb_pa*/)
    {
        return 0;
    }
    /** Translation buffer miss (before the PTE fetch): vaddr, mode. */
    virtual uint32_t OnTlbMiss(uint32_t /*vaddr*/, bool /*kernel*/)
    {
        return 0;
    }
    /** Exception/interrupt vectoring: SCB vector index. */
    virtual uint32_t OnExceptionDispatch(uint8_t /*vector*/) { return 0; }
    /** Opcode dispatch: instruction address and opcode byte. */
    virtual uint32_t OnDecode(uint32_t /*pc*/, uint8_t /*opcode*/,
                              bool /*kernel*/)
    {
        return 0;
    }
};

class ControlStore
{
  public:
    ControlStore() = default;
    ControlStore(const ControlStore&) = delete;
    ControlStore& operator=(const ControlStore&) = delete;

    /**
     * Splices `patch` in at every point; Fatal if a patch is already
     * installed. `patch` must stay alive until Remove().
     */
    void Install(Patch& patch);
    /** Removes the installed patch (no-op when none). */
    void Remove() { patch_ = nullptr; }
    bool installed() const { return patch_ != nullptr; }

    /**
     * Splice-point entries, called by the executor. Each returns the extra
     * micro-cycles consumed by the patch (0 when unpatched).
     */
    uint32_t FireMemAccess(const MemAccess& access)
    {
        return patch_ ? patch_->OnMemAccess(access) : 0;
    }
    uint32_t FireContextSwitch(uint16_t pid, uint32_t pcb_pa)
    {
        return patch_ ? patch_->OnContextSwitch(pid, pcb_pa) : 0;
    }
    uint32_t FireTlbMiss(uint32_t vaddr, bool kernel)
    {
        return patch_ ? patch_->OnTlbMiss(vaddr, kernel) : 0;
    }
    uint32_t FireExceptionDispatch(uint8_t vector)
    {
        return patch_ ? patch_->OnExceptionDispatch(vector) : 0;
    }
    uint32_t FireDecode(uint32_t pc, uint8_t opcode, bool kernel)
    {
        return patch_ ? patch_->OnDecode(pc, opcode, kernel) : 0;
    }

  private:
    Patch* patch_ = nullptr;
};

}  // namespace atum::ucode

#endif  // ATUM_UCODE_CONTROL_STORE_H_
