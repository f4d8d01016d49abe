#ifndef ATUM_TRACE_RECORD_H_
#define ATUM_TRACE_RECORD_H_

/**
 * @file
 * The ATUM trace record: the 8-byte unit the microcode patch appends to the
 * reserved physical-memory buffer for every event of interest.
 *
 * Layout (little-endian when serialized):
 *   bytes 0..3  addr   virtual address (physical for kPte records)
 *   byte  4     type   RecordType
 *   byte  5     flags  bit0 kernel-mode, bits 2:1 log2(access size)
 *   bytes 6..7  info   pid (kCtxSwitch), vector (kException), else 0
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "ucode/micro_op.h"

namespace atum::trace {

/** What a record describes. */
enum class RecordType : uint8_t {
    kIFetch = 0,     ///< instruction-stream fetch
    kRead = 1,       ///< data-stream read
    kWrite = 2,      ///< data-stream write
    kPte = 3,        ///< page-table entry reference (addr is physical)
    kCtxSwitch = 4,  ///< context switch; info = new pid, addr = PCB
    kTlbMiss = 5,    ///< translation-buffer miss; addr = faulting va
    kException = 6,  ///< exception/interrupt dispatch; info = vector
    kOpcode = 7,     ///< instruction decode marker; addr = pc, info = opcode
    kLoss = 8,       ///< capture gap; addr = records lost, info = event no.
    kDma = 9,        ///< DMA engine bus write; addr is physical
    kNumTypes = 10,
};

/** Flag bits in Record::flags. */
inline constexpr uint8_t kFlagKernel = 0x01;

struct Record {
    uint32_t addr = 0;
    RecordType type = RecordType::kRead;
    uint8_t flags = 0;
    uint16_t info = 0;

    bool kernel() const { return (flags & kFlagKernel) != 0; }
    /** Access size in bytes (1, 2 or 4); meaningful for memory records. */
    uint8_t size() const { return static_cast<uint8_t>(1u << ((flags >> 1) & 3)); }
    /** True for kIFetch/kRead/kWrite/kPte records. */
    bool IsMemory() const
    {
        return type == RecordType::kIFetch || type == RecordType::kRead ||
               type == RecordType::kWrite || type == RecordType::kPte;
    }

    bool operator==(const Record&) const = default;
};

/** Serialized record size in the trace buffer and trace files. */
inline constexpr uint32_t kRecordBytes = 8;

// A Record is laid out as its 8 packed bytes on a little-endian host, so
// records are copied to and from packed form as they are: the drain out
// of the trace buffer, the ATF2 writer's open chunk and the scanner's
// block load all do.
static_assert(std::endian::native == std::endian::little,
              "records are copied as they are, in little-endian order");
static_assert(sizeof(Record) == kRecordBytes &&
              std::is_trivially_copyable_v<Record> &&
              std::is_standard_layout_v<Record>);
static_assert(offsetof(Record, addr) == 0 && offsetof(Record, type) == 4 &&
              offsetof(Record, flags) == 5 && offsetof(Record, info) == 6);

/** Panics: `size_bytes` is not an access size (1, 2 or 4). */
[[noreturn]] void PanicBadAccessSize(uint8_t size_bytes);

// MakeFlags and FromMemAccess are inline; the bad-size panic stays out of
// line. The patch's per-reference encoder is PackMemAccess, below.

/** Builds the flags byte. */
inline uint8_t
MakeFlags(bool kernel, uint8_t size_bytes)
{
    uint8_t log2_size;
    switch (size_bytes) {
      case 1:
        log2_size = 0;
        break;
      case 2:
        log2_size = 1;
        break;
      case 4:
        log2_size = 2;
        break;
      default:
        PanicBadAccessSize(size_bytes);
    }
    return static_cast<uint8_t>((kernel ? kFlagKernel : 0) |
                                (log2_size << 1));
}

/** Converts a microcode-level memory access into a trace record. */
inline Record
FromMemAccess(const ucode::MemAccess& access)
{
    Record r;
    r.addr = access.vaddr;
    switch (access.kind) {
      case ucode::MemAccessKind::kIFetch:
        r.type = RecordType::kIFetch;
        break;
      case ucode::MemAccessKind::kRead:
        r.type = RecordType::kRead;
        break;
      case ucode::MemAccessKind::kWrite:
        r.type = RecordType::kWrite;
        break;
      case ucode::MemAccessKind::kPte:
        r.type = RecordType::kPte;
        break;
      case ucode::MemAccessKind::kDma:
        r.type = RecordType::kDma;
        break;
    }
    r.flags = MakeFlags(access.kernel, access.size);
    return r;
}

// The four memory kinds a record shares with the access it describes.
static_assert(static_cast<uint8_t>(ucode::MemAccessKind::kIFetch) ==
                  static_cast<uint8_t>(RecordType::kIFetch) &&
              static_cast<uint8_t>(ucode::MemAccessKind::kRead) ==
                  static_cast<uint8_t>(RecordType::kRead) &&
              static_cast<uint8_t>(ucode::MemAccessKind::kWrite) ==
                  static_cast<uint8_t>(RecordType::kWrite) &&
              static_cast<uint8_t>(ucode::MemAccessKind::kPte) ==
                  static_cast<uint8_t>(RecordType::kPte));

/**
 * The 8 bytes PackRecord(FromMemAccess(access)) writes, as one
 * little-endian word. `access.size` must be 1, 2 or 4, as it is for
 * every reference the machine makes; this encoder does not check it, so
 * it makes no call at all. The control store stores it in line
 * (ucode/control_store.h), a layer below this library.
 */
inline uint64_t
PackMemAccess(const ucode::MemAccess& access)
{
    const uint64_t type = access.kind == ucode::MemAccessKind::kDma
                              ? static_cast<uint64_t>(RecordType::kDma)
                              : static_cast<uint64_t>(access.kind);
    // log2(size) << 1 is size & 6 for the sizes 1, 2 and 4.
    const uint64_t flags =
        (access.kernel ? kFlagKernel : 0u) | (access.size & 6u);
    return access.vaddr | type << 32 | flags << 40;
}

/** Builds a context-switch marker record. */
Record MakeCtxSwitch(uint16_t pid, uint32_t pcb_pa);

/** Builds a TB-miss marker record. */
Record MakeTlbMiss(uint32_t vaddr, bool kernel);

/** Builds an exception-dispatch marker record. */
Record MakeException(uint8_t vector);

/** Builds an instruction-decode marker record. */
Record MakeOpcode(uint32_t pc, uint8_t opcode, bool kernel);

/**
 * Builds a capture-gap marker: `lost` records were dropped here because
 * the drain sink kept failing (HMTT-style, so consumers can detect the
 * gap and resynchronize instead of silently analyzing a torn stream).
 * `event` numbers the gaps within one capture.
 */
Record MakeLoss(uint32_t lost, uint16_t event);

/**
 * True when every field of `r` is an encoding this library can produce.
 * Raw v1 trace files carry no checksums, so a reader must vet each record
 * before trusting it (a corrupt type byte must not reach per-type arrays).
 */
inline bool
IsPlausibleRecord(const Record& r)
{
    if (static_cast<uint8_t>(r.type) >=
        static_cast<uint8_t>(RecordType::kNumTypes))
        return false;
    // flags: bit 0 kernel, bits 2:1 log2(size) with size <= 4, rest zero.
    return (r.flags & ~0x07u) == 0 && ((r.flags >> 1) & 3) != 3;
}

/**
 * True when every one of the `count` packed records at `p` is
 * IsPlausibleRecord: the scanner's vet of each verified chunk. On a
 * record's little-endian word the test is two masked adds, so it runs
 * branch-free, two vectors of two records at a time, and then over the
 * scalar tail.
 */
inline bool
AllPlausible(const uint8_t* p, uint32_t count)
{
    // IsPlausibleRecord holds exactly when type < 10 and flags < 6 (flags
    // 6 and 7 are log2(size) 3), that is flags & 0xFE < 6. Type is bits
    // 32-39 of the word and flags bits 40-47, so 256 - 10 added to the
    // masked type carries into bit 40 only for a bad type, and 256 - 6
    // added to the masked flags, whose sum keeps bit 40 clear, into bit 48
    // only for bad flags.
    static_assert(static_cast<uint8_t>(RecordType::kNumTypes) == 10);
    constexpr uint64_t kTypeMask = uint64_t{0xFF} << 32;
    constexpr uint64_t kTypeAdd = uint64_t{256 - 10} << 32;
    constexpr uint64_t kFlagsMask = uint64_t{0xFE} << 40;
    constexpr uint64_t kFlagsAdd = uint64_t{256 - 6} << 40;
    constexpr uint64_t kCarries = uint64_t{1} << 40 | uint64_t{1} << 48;
    typedef uint64_t Words __attribute__((vector_size(16)));
    constexpr uint32_t kLanes = sizeof(Words) / sizeof(uint64_t);
    Words lanes = {};
    uint32_t i = 0;
    for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
        Words w[2];
        std::memcpy(w, p + size_t{i} * kRecordBytes, sizeof w);
        lanes |= ((w[0] & kTypeMask) + kTypeAdd) |
                 ((w[0] & kFlagsMask) + kFlagsAdd) |
                 ((w[1] & kTypeMask) + kTypeAdd) |
                 ((w[1] & kFlagsMask) + kFlagsAdd);
    }
    uint64_t sums = 0;
    for (uint32_t lane = 0; lane < kLanes; ++lane)
        sums |= lanes[lane];
    for (; i < count; ++i) {
        uint64_t w;
        std::memcpy(&w, p + size_t{i} * kRecordBytes, sizeof w);
        sums |= ((w & kTypeMask) + kTypeAdd) | ((w & kFlagsMask) + kFlagsAdd);
    }
    return (sums & kCarries) == 0;
}

// Pack and unpack are inline: the tracer packs the records its routines
// append out of line.

/** Packs a record into 8 bytes (little-endian). */
inline void
PackRecord(const Record& r, uint8_t out[kRecordBytes])
{
    out[0] = static_cast<uint8_t>(r.addr);
    out[1] = static_cast<uint8_t>(r.addr >> 8);
    out[2] = static_cast<uint8_t>(r.addr >> 16);
    out[3] = static_cast<uint8_t>(r.addr >> 24);
    out[4] = static_cast<uint8_t>(r.type);
    out[5] = r.flags;
    out[6] = static_cast<uint8_t>(r.info);
    out[7] = static_cast<uint8_t>(r.info >> 8);
}

/** Unpacks a record from 8 bytes. */
inline Record
UnpackRecord(const uint8_t in[kRecordBytes])
{
    Record r;
    r.addr = static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
             static_cast<uint32_t>(in[2]) << 16 |
             static_cast<uint32_t>(in[3]) << 24;
    r.type = static_cast<RecordType>(in[4]);
    r.flags = in[5];
    r.info = static_cast<uint16_t>(in[6] | (in[7] << 8));
    return r;
}

}  // namespace atum::trace

#endif  // ATUM_TRACE_RECORD_H_
