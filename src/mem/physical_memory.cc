#include "mem/physical_memory.h"

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
PhysicalMemory::OutOfRange(uint32_t pa, uint32_t len) const
{
    Panic("physical access out of range: pa=0x", std::hex, pa, " len=",
          std::dec, len, " size=", data_.size());
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
