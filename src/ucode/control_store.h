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
 * patch covering every point it records. A patch names the points it
 * splices (Patch::splices); a point it leaves out costs the executor one
 * pointer test and no call.
 */

#include <cstdint>

#include "ucode/micro_op.h"

namespace atum::ucode {

/** The splice points, one bit each in Patch::splices(). */
enum SplicePoint : uint8_t {
    kSpliceMemAccess = 1u << 0,
    kSpliceContextSwitch = 1u << 1,
    kSpliceTlbMiss = 1u << 2,
    kSpliceExceptionDispatch = 1u << 3,
    kSpliceDecode = 1u << 4,
    kSpliceAll = (1u << 5) - 1,
};

/**
 * A set of patch micro-routines, one virtual method per splice point. Each
 * returns the extra micro-cycles it consumed; a point left un-overridden
 * returns 0 (unpatched).
 */
class Patch
{
  public:
    virtual ~Patch() = default;

    /**
     * The points this patch splices, a mask of SplicePoint bits read once
     * by ControlStore::Install. A point left out is never called, so a
     * patch leaves out every point whose routine would only return 0.
     * The default splices them all.
     */
    virtual uint8_t splices() const { return kSpliceAll; }

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
     * Splices `patch` in at the points it names (Patch::splices); Fatal if
     * a patch is already installed. `patch` must stay alive until
     * Remove().
     */
    void Install(Patch& patch);
    /** Removes the installed patch (no-op when none). */
    void Remove();
    bool installed() const { return patch_ != nullptr; }

    /**
     * Splice-point entries, called by the executor. Each returns the extra
     * micro-cycles consumed by the patch (0 when the point is unpatched).
     */
    uint32_t FireMemAccess(const MemAccess& access)
    {
        return mem_access_ ? mem_access_->OnMemAccess(access) : 0;
    }
    uint32_t FireContextSwitch(uint16_t pid, uint32_t pcb_pa)
    {
        return context_switch_ ? context_switch_->OnContextSwitch(pid, pcb_pa)
                               : 0;
    }
    uint32_t FireTlbMiss(uint32_t vaddr, bool kernel)
    {
        return tlb_miss_ ? tlb_miss_->OnTlbMiss(vaddr, kernel) : 0;
    }
    uint32_t FireExceptionDispatch(uint8_t vector)
    {
        return exception_dispatch_
                   ? exception_dispatch_->OnExceptionDispatch(vector)
                   : 0;
    }
    uint32_t FireDecode(uint32_t pc, uint8_t opcode, bool kernel)
    {
        return decode_ ? decode_->OnDecode(pc, opcode, kernel) : 0;
    }

  private:
    Patch* patch_ = nullptr;  ///< the installed patch
    // The installed patch at each point it splices, null at the others.
    Patch* mem_access_ = nullptr;
    Patch* context_switch_ = nullptr;
    Patch* tlb_miss_ = nullptr;
    Patch* exception_dispatch_ = nullptr;
    Patch* decode_ = nullptr;
};

}  // namespace atum::ucode

#endif  // ATUM_UCODE_CONTROL_STORE_H_
