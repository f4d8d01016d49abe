#include "trace/compress.h"

#include "util/logging.h"

namespace atum::trace {

namespace {

/** Maps signed deltas onto small unsigned values (0, -1, 1, -2, ...). */
uint32_t
ZigZag(int32_t v)
{
    return (static_cast<uint32_t>(v) << 1) ^
           static_cast<uint32_t>(v >> 31);
}

int32_t
UnZigZag(uint32_t v)
{
    return static_cast<int32_t>((v >> 1) ^ (~(v & 1) + 1));
}

void
PutVarint(std::vector<uint8_t>& out, uint32_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * Reads one varint of at most 32 bits. A fifth byte may carry only the
 * top four bits: anything above 0x0F (including a continuation bit)
 * would be address bits that do not fit, so the stream is malformed.
 */
util::Status
GetVarint(const std::vector<uint8_t>& in, size_t* pos, uint32_t* v)
{
    *v = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (*pos >= in.size())
            return util::DataLoss("truncated compressed trace at byte ",
                                  *pos);
        const uint8_t byte = in[(*pos)++];
        if (shift == 28 && byte > 0x0F)
            return util::DataLoss("overlong varint in compressed trace at "
                                  "byte ",
                                  *pos - 1);
        *v |= static_cast<uint32_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return util::OkStatus();
    }
}

bool
TypeHasInfo(RecordType type)
{
    return type == RecordType::kCtxSwitch ||
           type == RecordType::kException || type == RecordType::kOpcode ||
           type == RecordType::kLoss;
}

}  // namespace

void
TraceCompressor::Append(const Record& record)
{
    const auto type_idx = static_cast<size_t>(record.type);
    if (type_idx >= static_cast<size_t>(RecordType::kNumTypes))
        Panic("bad record type ", type_idx);

    const uint8_t log2_size = static_cast<uint8_t>((record.flags >> 1) & 3);
    const uint8_t header =
        static_cast<uint8_t>(type_idx) |
        static_cast<uint8_t>(record.kernel() ? 0x10 : 0) |
        static_cast<uint8_t>(log2_size << 5);
    bytes_.push_back(header);

    // Wrap in uint32_t, then reinterpret: a signed subtraction could
    // overflow on deltas of 2^31 or more.
    const int32_t delta =
        static_cast<int32_t>(record.addr - last_addr_[type_idx]);
    PutVarint(bytes_, ZigZag(delta));
    last_addr_[type_idx] = record.addr;

    if (TypeHasInfo(record.type))
        PutVarint(bytes_, record.info);
    ++records_;
}

double
TraceCompressor::BytesPerRecord()
    const
{
    return records_ == 0 ? 0.0
                         : static_cast<double>(bytes_.size()) /
                               static_cast<double>(records_);
}

std::vector<uint8_t>
CompressTrace(const std::vector<Record>& records)
{
    TraceCompressor compressor;
    for (const Record& r : records)
        compressor.Append(r);
    return compressor.bytes();
}

util::StatusOr<std::vector<Record>>
DecompressTrace(const std::vector<uint8_t>& bytes)
{
    std::vector<Record> out;
    uint32_t last_addr[static_cast<size_t>(RecordType::kNumTypes)] = {};
    size_t pos = 0;
    while (pos < bytes.size()) {
        const uint8_t header = bytes[pos++];
        const auto type_idx = static_cast<size_t>(header & 0x0F);
        if (type_idx >= static_cast<size_t>(RecordType::kNumTypes))
            return util::DataLoss("bad record type ", type_idx,
                                  " in compressed trace at byte ", pos - 1);
        Record r;
        r.type = static_cast<RecordType>(type_idx);
        const bool kernel = (header & 0x10) != 0;
        const uint8_t log2_size = (header >> 5) & 3;
        if (log2_size > 2)
            return util::DataLoss("bad access size in compressed trace at "
                                  "byte ",
                                  pos - 1);
        r.flags = MakeFlags(kernel, static_cast<uint8_t>(1u << log2_size));

        uint32_t zigzag = 0;
        util::Status status = GetVarint(bytes, &pos, &zigzag);
        if (!status.ok())
            return status;
        r.addr = last_addr[type_idx] + static_cast<uint32_t>(UnZigZag(zigzag));
        last_addr[type_idx] = r.addr;

        if (TypeHasInfo(r.type)) {
            uint32_t info = 0;
            status = GetVarint(bytes, &pos, &info);
            if (!status.ok())
                return status;
            r.info = static_cast<uint16_t>(info);
        }
        out.push_back(r);
    }
    return out;
}

}  // namespace atum::trace
