#include "mem/physical_memory.h"

#include <cstring>

#include "util/bitops.h"
#include "util/logging.h"

namespace atum {

PhysicalMemory::PhysicalMemory(uint32_t bytes)
{
    if (bytes == 0 || bytes % kPageBytes != 0)
        Fatal("physical memory size must be a nonzero page multiple, got ",
              bytes);
    data_.assign(bytes, 0);
    reserved_base_ = bytes;
}

void
PhysicalMemory::CheckRange(uint32_t pa, uint32_t len) const
{
    // The length is tiny (<= 8 for scalar accesses), so the addition cannot
    // wrap once pa is validated against size().
    if (pa >= data_.size() || len > data_.size() - pa)
        Panic("physical access out of range: pa=0x", std::hex, pa, " len=",
              std::dec, len, " size=", data_.size());
}

uint8_t
PhysicalMemory::Read8(uint32_t pa) const
{
    CheckRange(pa, 1);
    return data_[pa];
}

uint16_t
PhysicalMemory::Read16(uint32_t pa) const
{
    CheckRange(pa, 2);
    return static_cast<uint16_t>(data_[pa]) |
           static_cast<uint16_t>(data_[pa + 1]) << 8;
}

uint32_t
PhysicalMemory::Read32(uint32_t pa) const
{
    CheckRange(pa, 4);
    return static_cast<uint32_t>(data_[pa]) |
           static_cast<uint32_t>(data_[pa + 1]) << 8 |
           static_cast<uint32_t>(data_[pa + 2]) << 16 |
           static_cast<uint32_t>(data_[pa + 3]) << 24;
}

void
PhysicalMemory::Write8(uint32_t pa, uint8_t v)
{
    CheckRange(pa, 1);
    data_[pa] = v;
}

void
PhysicalMemory::Write16(uint32_t pa, uint16_t v)
{
    CheckRange(pa, 2);
    data_[pa] = static_cast<uint8_t>(v);
    data_[pa + 1] = static_cast<uint8_t>(v >> 8);
}

void
PhysicalMemory::Write32(uint32_t pa, uint32_t v)
{
    CheckRange(pa, 4);
    data_[pa] = static_cast<uint8_t>(v);
    data_[pa + 1] = static_cast<uint8_t>(v >> 8);
    data_[pa + 2] = static_cast<uint8_t>(v >> 16);
    data_[pa + 3] = static_cast<uint8_t>(v >> 24);
}

void
PhysicalMemory::ReadBlock(uint32_t pa, void* dst, uint32_t len) const
{
    if (len == 0)
        return;
    CheckRange(pa, len);
    std::memcpy(dst, data_.data() + pa, len);
}

void
PhysicalMemory::WriteBlock(uint32_t pa, const void* src, uint32_t len)
{
    if (len == 0)
        return;
    CheckRange(pa, len);
    std::memcpy(data_.data() + pa, src, len);
}

util::Status
PhysicalMemory::Save(util::StateWriter& w) const
{
    w.U32(size());
    w.U32(reserved_base_);
    w.Bytes(data_.data(), data_.size());
    return util::OkStatus();
}

util::Status
PhysicalMemory::Restore(util::StateReader& r)
{
    const uint32_t saved_size = r.U32();
    const uint32_t saved_reserved = r.U32();
    if (!r.ok())
        return r.status();
    if (saved_size != size()) {
        return util::DataLoss("checkpoint memory size ", saved_size,
                              " does not match machine memory ", size());
    }
    if (saved_reserved != reserved_base_) {
        return util::DataLoss("checkpoint trace-buffer reservation (base 0x",
                              std::hex, saved_reserved,
                              ") does not match the active reservation "
                              "(base 0x",
                              reserved_base_, ")");
    }
    r.Bytes(data_.data(), data_.size());
    return r.status();
}

bool
PhysicalMemory::Contains(uint32_t pa, uint32_t len) const
{
    return pa < data_.size() && len <= data_.size() - pa;
}

uint32_t
PhysicalMemory::ReserveTop(uint32_t bytes)
{
    if (bytes == 0 || bytes % kPageBytes != 0)
        Fatal("reserved region must be a nonzero page multiple, got ", bytes);
    if (reserved_base_ != data_.size())
        Fatal("a reserved region is already active");
    if (bytes >= data_.size())
        Fatal("reserved region (", bytes, " bytes) must leave usable memory");
    reserved_base_ = static_cast<uint32_t>(data_.size()) - bytes;
    return reserved_base_;
}

void
PhysicalMemory::Unreserve()
{
    reserved_base_ = static_cast<uint32_t>(data_.size());
}

}  // namespace atum
