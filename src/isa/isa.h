#ifndef ATUM_ISA_ISA_H_
#define ATUM_ISA_ISA_H_

/**
 * @file
 * The VCX-32 instruction set: a from-scratch, VAX-flavoured CISC ISA.
 *
 * VCX-32 reproduces the structural properties of the VAX that made ATUM's
 * microcode tracing interesting:
 *  - variable-length instructions: an opcode byte followed by general
 *    operand specifiers (register, deferred, autoincrement/decrement,
 *    displacement, displacement-deferred, immediate, absolute);
 *  - memory-to-memory operations (any operand may touch memory);
 *  - microcoded "heavy" instructions (MOVC3 block copy, SVPCTX/LDPCTX
 *    context switch) that issue many memory references per instruction;
 *  - a privileged architecture (kernel/user modes, CHMK system calls,
 *    MTPR/MFPR processor registers, REI).
 *
 * An operand specifier is one byte, mode in the high nibble and register
 * number in the low nibble, optionally followed by extension bytes
 * (displacement or immediate). Using PC (r15) as the base register gives
 * PC-relative addressing for free, as on the VAX: the PC value used is the
 * address of the byte following the full specifier.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace atum::isa {

/** General register numbers with architectural roles. */
inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kRegFp = 13;  ///< frame pointer (CALLS/RET)
inline constexpr unsigned kRegSp = 14;  ///< stack pointer
inline constexpr unsigned kRegPc = 15;  ///< program counter

/** Operand specifier addressing modes (specifier byte, high nibble). */
enum class AddrMode : uint8_t {
    kReg = 0,        ///< Rn
    kRegDef = 1,     ///< (Rn)
    kAutoInc = 2,    ///< (Rn)+
    kAutoDec = 3,    ///< -(Rn)
    kDisp8 = 4,      ///< d8(Rn), sign-extended byte displacement
    kDisp32 = 5,     ///< d32(Rn)
    kDisp32Def = 6,  ///< @d32(Rn): one extra memory indirection
    kImm = 7,        ///< #literal (operand-sized extension)
    kAbs = 8,        ///< @#address (32-bit extension)
    // 9..15 are reserved; using them raises a reserved-operand fault.
};

/** Number of valid addressing modes (for sweeps in tests). */
inline constexpr uint8_t kNumAddrModes = 9;

/** Operand data types. */
enum class DataType : uint8_t {
    kByte = 1,  ///< 8 bits
    kWord = 2,  ///< 16 bits
    kLong = 4,  ///< 32 bits
};

/** How an instruction touches an operand. */
enum class Access : uint8_t {
    kRead,      ///< value is read
    kWrite,     ///< value is written
    kModify,    ///< read then written (e.g. ADDL2 destination)
    kAddress,   ///< the operand's *address* is used (MOVAL, JMP, JSB, MOVC3)
    kBranch8,   ///< raw signed 8-bit PC displacement (not a specifier)
    kBranch16,  ///< raw signed 16-bit PC displacement (not a specifier)
};

/** Opcode values. Gaps group related instructions. */
enum class Opcode : uint8_t {
    // System / privileged.
    kHalt = 0x00,
    kNop = 0x01,
    kBpt = 0x02,
    kRei = 0x03,
    kChmk = 0x04,
    kMtpr = 0x05,
    kMfpr = 0x06,
    kSvpctx = 0x07,
    kLdpctx = 0x08,

    // Moves.
    kMovl = 0x10,
    kMovb = 0x11,
    kMovzbl = 0x12,
    kMoval = 0x13,
    kPushl = 0x14,
    kClrl = 0x15,
    kClrb = 0x16,
    kMnegl = 0x17,
    kMovw = 0x18,
    kMovzwl = 0x19,

    // Integer arithmetic.
    kAddl2 = 0x20,
    kAddl3 = 0x21,
    kSubl2 = 0x22,
    kSubl3 = 0x23,
    kMull2 = 0x24,
    kMull3 = 0x25,
    kDivl2 = 0x26,
    kDivl3 = 0x27,
    kIncl = 0x28,
    kDecl = 0x29,
    kCmpl = 0x2a,
    kCmpb = 0x2b,
    kTstl = 0x2c,
    kTstb = 0x2d,
    kCmpw = 0x2e,
    kTstw = 0x2f,

    // Logical.
    kBisl2 = 0x30,
    kBisl3 = 0x31,
    kBicl2 = 0x32,
    kBicl3 = 0x33,
    kXorl2 = 0x34,
    kXorl3 = 0x35,
    kBitl = 0x36,
    kAshl = 0x37,

    // Control transfer.
    kBrb = 0x40,
    kBrw = 0x41,
    kBneq = 0x42,
    kBeql = 0x43,
    kBgtr = 0x44,
    kBleq = 0x45,
    kBgeq = 0x46,
    kBlss = 0x47,
    kBgtru = 0x48,
    kBlequ = 0x49,
    kBgequ = 0x4a,
    kBlssu = 0x4b,
    kBvc = 0x4c,
    kBvs = 0x4d,
    kJmp = 0x50,
    kJsb = 0x51,
    kRsb = 0x52,
    kSobgtr = 0x53,
    kSobgeq = 0x54,
    kAoblss = 0x55,
    kCalls = 0x56,
    kRet = 0x57,
    kCasel = 0x58,

    // Microcoded string and queue ops.
    kMovc3 = 0x60,
    kInsque = 0x61,
    kRemque = 0x62,
    kCmpc3 = 0x63,
    kLocc = 0x64,
};

/** Description of one operand slot of an instruction. */
struct OperandDesc {
    Access access;
    DataType type;
};

/** Static description of an instruction. */
struct InstrInfo {
    const char* mnemonic;
    std::vector<OperandDesc> operands;
    bool privileged;  ///< only legal in kernel mode
    bool valid;       ///< false for unassigned opcode values
};

/**
 * Returns the descriptor for `op`. Every 8-bit value is covered; entries
 * with valid == false denote unassigned encodings (reserved instruction
 * fault at execution time).
 */
const InstrInfo& GetInstrInfo(Opcode op);
inline const InstrInfo& GetInstrInfo(uint8_t raw)
{
    return GetInstrInfo(static_cast<Opcode>(raw));
}

/** Bits of an opcode's entry in the OpcodeGates() table. */
inline constexpr uint8_t kGateValid = 0x1;       ///< an assigned opcode
inline constexpr uint8_t kGatePrivileged = 0x2;  ///< legal in kernel mode only

/**
 * The execution gate of every opcode byte, as one flat 256-entry table
 * of kGate* bits: GetInstrInfo's `valid` and `privileged`, built with it
 * from the same opcode list. The interpreter keeps this pointer, so its
 * gate check on every dispatch is a single byte load.
 */
const uint8_t* OpcodeGates();

/** Returns all assigned opcodes (for table-driven tests). */
const std::vector<Opcode>& AllOpcodes();

/** Returns "movl", "addl3", ... or "?%02x" for unassigned encodings. */
std::string MnemonicOf(Opcode op);

/** Encodes a specifier byte from mode and register. */
constexpr uint8_t
SpecifierByte(AddrMode mode, unsigned reg)
{
    return static_cast<uint8_t>((static_cast<unsigned>(mode) << 4) |
                                (reg & 0xf));
}

/** Processor (privileged, MTPR/MFPR-addressable) register numbers. */
enum class Ipr : uint32_t {
    kKsp = 0,          ///< kernel stack pointer (banked)
    kUsp = 1,          ///< user stack pointer (banked)
    kP0Br = 2,         ///< P0 page-table base (physical address)
    kP0Lr = 3,         ///< P0 page-table length (pages)
    kP1Br = 4,         ///< P1 page-table base (physical address)
    kP1Lr = 5,         ///< P1 page-table length (pages)
    kS0Br = 6,         ///< S0 page-table base (physical address)
    kS0Lr = 7,         ///< S0 page-table length (pages)
    kScbb = 8,         ///< system control block base (physical address)
    kPcbb = 9,         ///< current process control block (physical address)
    kMapen = 10,       ///< memory management enable (0/1)
    kTbia = 11,        ///< write: invalidate entire TB
    kTbis = 12,        ///< write: invalidate TB entry for virtual address
    kIccs = 13,        ///< interval clock control: bit0 = run
    kIcr = 14,         ///< interval count reload (instructions per tick)
    kConsTx = 15,      ///< write: console transmit byte
    kSirr = 16,        ///< write: request software interrupt
    kPid = 17,         ///< current process id (ATUM context tagging)
    kDmaSrc = 18,      ///< DMA engine: source physical address
    kDmaDst = 19,      ///< DMA engine: destination physical address
    kDmaLen = 20,      ///< DMA engine: byte count (multiple of 4)
    kDmaCtl = 21,      ///< write 1: start transfer; read: 1 while busy
    kNumIprs = 22,
};

}  // namespace atum::isa

#endif  // ATUM_ISA_ISA_H_
