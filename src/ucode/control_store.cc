#include "ucode/control_store.h"

#include "util/logging.h"

namespace atum::ucode {

void
ControlStore::Install(Patch& patch)
{
    if (patch_)
        Fatal("control store already patched");
    patch_ = &patch;
}

}  // namespace atum::ucode
