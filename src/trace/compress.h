#ifndef ATUM_TRACE_COMPRESS_H_
#define ATUM_TRACE_COMPRESS_H_

/**
 * @file
 * Compact trace encoding.
 *
 * ATUM-era traces were precious: half a megabyte of reserved memory per
 * extraction and tapes for archival, so compact encodings mattered. This
 * codec exploits the structure full-system traces actually have — the
 * instruction stream advances by small strides, data references cluster —
 * by encoding each record as:
 *
 *   header byte:  bits 0-3 type (0x0F) | bit 4 kernel (0x10) |
 *                 bits 5-6 log2 size | bit 7 zero
 *   address:      zigzag varint of (addr - previous addr of same type)
 *   info:         varint, only for types that carry it (kCtxSwitch,
 *                 kException, kOpcode, kLoss)
 *
 * Typical full-system traces compress to ~2-3 bytes/record from the fixed
 * 8-byte form (see `bench_experiments a1_compression`).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "util/status.h"

namespace atum::trace {

/** Encodes `records` into the compact byte stream. */
std::vector<uint8_t> CompressTrace(const std::vector<Record>& records);

/**
 * Decodes a stream produced by CompressTrace. Malformed input (a
 * truncated stream, an overlong varint, a bad record type or access
 * size) is a data-loss status, never a process exit.
 */
util::StatusOr<std::vector<Record>> DecompressTrace(
    const std::vector<uint8_t>& bytes);

/** Streaming encoder with the same format. */
class TraceCompressor
{
  public:
    /** Appends one record to the compressed stream. */
    void Append(const Record& record);

    const std::vector<uint8_t>& bytes() const { return bytes_; }
    uint64_t records() const { return records_; }
    /** Compressed bytes per record (8.0 = no gain over the raw format). */
    double BytesPerRecord() const;

  private:
    std::vector<uint8_t> bytes_;
    uint64_t records_ = 0;
    uint32_t last_addr_[static_cast<size_t>(RecordType::kNumTypes)] = {};
};

}  // namespace atum::trace

#endif  // ATUM_TRACE_COMPRESS_H_
