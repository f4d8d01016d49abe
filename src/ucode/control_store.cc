#include "ucode/control_store.h"

#include "util/logging.h"

namespace atum::ucode {

void
ControlStore::Install(Patch& patch)
{
    if (patch_)
        Fatal("control store already patched");
    patch_ = &patch;
    const uint8_t points = patch.splices();
    const auto at = [&](SplicePoint point) {
        return (points & point) != 0 ? &patch : nullptr;
    };
    mem_access_ = at(kSpliceMemAccess);
    context_switch_ = at(kSpliceContextSwitch);
    tlb_miss_ = at(kSpliceTlbMiss);
    exception_dispatch_ = at(kSpliceExceptionDispatch);
    decode_ = at(kSpliceDecode);
    buffer_ = mem_access_ != nullptr ? patch.record_buffer() : nullptr;
    if (buffer_ != nullptr &&
        (!memory_.Contains(buffer_->base, buffer_->bytes) ||
         buffer_->bytes % trace::kRecordBytes != 0))
        Fatal("record buffer at ", buffer_->base, "+", buffer_->bytes,
              " is not a record multiple inside physical memory");
}

uint32_t
ControlStore::CallMemAccessPatch(MemAccess access)
{
    return mem_access_->OnMemAccess(access);
}

void
ControlStore::Remove()
{
    patch_ = mem_access_ = context_switch_ = tlb_miss_ = exception_dispatch_ =
        decode_ = nullptr;
    buffer_ = nullptr;
}

}  // namespace atum::ucode
