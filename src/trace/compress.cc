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

uint32_t
GetVarint(const std::vector<uint8_t>& in, size_t* pos)
{
    uint32_t v = 0;
    unsigned shift = 0;
    while (true) {
        if (*pos >= in.size())
            Fatal("truncated compressed trace");
        const uint8_t byte = in[(*pos)++];
        v |= static_cast<uint32_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift > 28)
            Fatal("overlong varint in compressed trace");
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

std::vector<Record>
DecompressTrace(const std::vector<uint8_t>& bytes)
{
    std::vector<Record> out;
    uint32_t last_addr[static_cast<size_t>(RecordType::kNumTypes)] = {};
    size_t pos = 0;
    while (pos < bytes.size()) {
        const uint8_t header = bytes[pos++];
        const auto type_idx = static_cast<size_t>(header & 0x0F);
        if (type_idx >= static_cast<size_t>(RecordType::kNumTypes))
            Fatal("bad record type in compressed trace");
        Record r;
        r.type = static_cast<RecordType>(type_idx);
        const bool kernel = (header & 0x10) != 0;
        const uint8_t log2_size = (header >> 5) & 3;
        if (log2_size > 2)
            Fatal("bad access size in compressed trace");
        r.flags = MakeFlags(kernel, static_cast<uint8_t>(1u << log2_size));

        const int32_t delta = UnZigZag(GetVarint(bytes, &pos));
        r.addr = last_addr[type_idx] + static_cast<uint32_t>(delta);
        last_addr[type_idx] = r.addr;

        if (TypeHasInfo(r.type))
            r.info = static_cast<uint16_t>(GetVarint(bytes, &pos));
        out.push_back(r);
    }
    return out;
}

}  // namespace atum::trace
