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
}

void
ControlStore::Remove()
{
    patch_ = mem_access_ = context_switch_ = tlb_miss_ = exception_dispatch_ =
        decode_ = nullptr;
}

}  // namespace atum::ucode
