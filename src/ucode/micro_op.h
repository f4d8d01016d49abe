#ifndef ATUM_UCODE_MICRO_OP_H_
#define ATUM_UCODE_MICRO_OP_H_

/**
 * @file
 * Micro-operation vocabulary and cost model.
 *
 * The VCX-32 executor realizes each macro-instruction as a sequence of
 * micro-operations, exactly the structure ATUM exploited on the VAX 8200:
 * every architectural memory reference is one micro-op, so a microcode
 * patch sees *all* of them — user and kernel, instruction and data stream,
 * and the translation-buffer miss page-table references.
 *
 * Costs are in micro-cycles; the machine's cycle counter is the sum of the
 * costs of retired micro-ops. Tracing patches add their own micro-cycles,
 * which is how the ATUM slowdown (paper: ~20x) is modelled and measured.
 */

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace atum::ucode {

/** Kinds of micro-operations with architecturally visible cost. */
enum class MicroOpKind : uint8_t {
    kDispatch,     ///< opcode decode dispatch
    kSpecifier,    ///< operand specifier evaluation step
    kIFetch,       ///< instruction-stream longword fetch
    kDRead,        ///< data-stream read
    kDWrite,       ///< data-stream write
    kPteRead,      ///< page-table entry fetch on TB miss
    kAlu,          ///< add/sub/logic/compare
    kMulDiv,       ///< multiply/divide step (multi-cycle)
    kShift,        ///< barrel shift
    kExcDispatch,  ///< exception/interrupt dispatch sequence
    kRei,          ///< return from exception
    kCall,         ///< CALLS/RET frame sequence
    kCtxSave,      ///< SVPCTX register save sequence
    kCtxLoad,      ///< LDPCTX register load sequence
    kNumKinds,
};

/**
 * Micro-cycles per micro-op, indexed by MicroOpKind. Loosely calibrated
 * to mid-80s microcoded minis: memory micro-ops dominate, multiply/divide
 * and the context/exception sequences are multi-cycle. Absolute values
 * only matter relative to the tracing patch cost (AtumTracer's
 * cost-per-record), which T2 sweeps.
 */
inline constexpr uint32_t kMicroOpCost[] = {
    1,   // kDispatch
    1,   // kSpecifier
    2,   // kIFetch
    2,   // kDRead
    2,   // kDWrite
    4,   // kPteRead
    1,   // kAlu
    16,  // kMulDiv
    2,   // kShift
    12,  // kExcDispatch
    8,   // kRei
    4,   // kCall
    10,  // kCtxSave
    12,  // kCtxLoad
};
static_assert(std::size(kMicroOpCost) ==
                  static_cast<size_t>(MicroOpKind::kNumKinds),
              "one cost per micro-op kind");

/** Returns the cost of one micro-op of the given kind, in micro-cycles. */
constexpr uint32_t
CostOf(MicroOpKind kind)
{
    return kMicroOpCost[static_cast<size_t>(kind)];
}

/** Classification of an architectural memory reference. */
enum class MemAccessKind : uint8_t {
    kIFetch = 0,  ///< instruction-stream fetch
    kRead = 1,    ///< data-stream read
    kWrite = 2,   ///< data-stream write
    kPte = 3,     ///< page-table entry read (TB miss service)
    kDma = 4,     ///< DMA engine bus write (physical; vaddr == paddr)
};

/**
 * One architectural memory reference as seen at the microcode patch point.
 * `vaddr` is the virtual address; for kPte references (which the hardware
 * issues physically) `vaddr` holds the physical PTE address and
 * `paddr == vaddr`.
 */
struct MemAccess {
    uint32_t vaddr = 0;
    uint32_t paddr = 0;
    uint8_t size = 0;  ///< bytes: 1, 2 or 4
    MemAccessKind kind = MemAccessKind::kRead;
    bool kernel = false;  ///< CPU was in kernel mode
};

}  // namespace atum::ucode

#endif  // ATUM_UCODE_MICRO_OP_H_
