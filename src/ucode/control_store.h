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
 *
 * The memory-access point is the one that fires on every reference, and
 * ATUM's routine there is a few micro-instructions: store an 8-byte
 * record into the reserved region, bump the head, and involve the host
 * only when the buffer fills. A patch that hands the control store its
 * RecordBuffer (Patch::record_buffer) gets exactly that: FireMemAccess
 * packs the record of every reference, whatever its kind, and stores it
 * in line, with no call; it calls the patch's OnMemAccess only for the
 * store that fills the buffer, which then drains it. A patch without a
 * buffer has OnMemAccess called on every reference. Either way the
 * patch routine is reached through one out-of-line call,
 * CallMemAccessPatch.
 */

#include <cstdint>

#include "mem/physical_memory.h"
#include "trace/record.h"
#include "ucode/micro_op.h"

namespace atum::ucode {

/**
 * A patch's trace-record buffer in reserved physical memory, with the
 * state FireMemAccess needs to append to it in line. The patch owns it
 * and keeps it current on its own out-of-line appends; the control store
 * only reads and bumps it. The buffer is named by its physical base, not
 * a host pointer, so restoring memory from a checkpoint cannot leave it
 * dangling.
 */
struct RecordBuffer {
    uint32_t base = 0;   ///< physical address of the reserved region
    uint32_t bytes = 0;  ///< its size, a multiple of the record size
    /** Bytes of records stored so far: a record multiple, at most
     *  `bytes`. FireMemAccess stores in line only while its record
     *  leaves room for another, so its unchecked store stays inside the
     *  buffer; the store that would fill it goes to the patch. */
    uint32_t head = 0;
    /** Micro-cycles charged per record appended. */
    uint32_t cost_per_record = 0;
    uint64_t records = 0;           ///< records appended
    /** Micro-cycles charged for the records and the patch's drains. */
    uint64_t overhead_ucycles = 0;
};

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

    /**
     * The buffer FireMemAccess appends memory records to in line, read
     * once by ControlStore::Install; null (the default) when the patch
     * handles every reference in OnMemAccess. A patch with a buffer must
     * splice the memory-access point, and its OnMemAccess then runs only
     * for the reference whose record fills the buffer.
     */
    virtual RecordBuffer* record_buffer() { return nullptr; }

    /** Every architectural memory reference (see record_buffer). */
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
    /** `memory` holds the record buffers of patches installed here. */
    explicit ControlStore(PhysicalMemory& memory) : memory_(memory) {}
    ControlStore(const ControlStore&) = delete;
    ControlStore& operator=(const ControlStore&) = delete;

    /**
     * Splices `patch` in at the points it names (Patch::splices); Fatal if
     * a patch is already installed or its record buffer does not lie
     * inside memory. `patch` must stay alive until Remove().
     */
    void Install(Patch& patch);
    /** Removes the installed patch (no-op when none). */
    void Remove();
    bool installed() const { return patch_ != nullptr; }

    /**
     * Splice-point entries, called by the executor. Each returns the extra
     * micro-cycles consumed by the patch (0 when the point is unpatched).
     */
    [[gnu::always_inline]] uint32_t FireMemAccess(MemAccess access)
    {
        if (mem_access_ == nullptr)
            return 0;
        RecordBuffer* const buf = buffer_;
        if (buf == nullptr ||
            buf->head + 2 * trace::kRecordBytes > buf->bytes) [[unlikely]]
            return CallMemAccessPatch(access);
        memory_.Write64Unchecked(buf->base + buf->head,
                                 trace::PackMemAccess(access));
        buf->head += trace::kRecordBytes;
        ++buf->records;
        buf->overhead_ucycles += buf->cost_per_record;
        return buf->cost_per_record;
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
    /** The installed patch's OnMemAccess, kept out of line so that the
     *  inlined FireMemAccess holds one direct call, not a virtual one.
     *  `access` goes by value, in registers, so a reference that makes
     *  no call does not build it in memory. */
    uint32_t CallMemAccessPatch(MemAccess access);

    PhysicalMemory& memory_;
    Patch* patch_ = nullptr;  ///< the installed patch
    /** The patch's record buffer when it splices mem-access, else null. */
    RecordBuffer* buffer_ = nullptr;
    // The installed patch at each point it splices, null at the others.
    Patch* mem_access_ = nullptr;
    Patch* context_switch_ = nullptr;
    Patch* tlb_miss_ = nullptr;
    Patch* exception_dispatch_ = nullptr;
    Patch* decode_ = nullptr;
};

}  // namespace atum::ucode

#endif  // ATUM_UCODE_CONTROL_STORE_H_
