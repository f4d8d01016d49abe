#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace atum {

namespace internal {

void
FatalImpl(const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
PanicImpl(const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
InformImpl(const std::string& msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
WarnImpl(const std::string& msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

}  // namespace internal
}  // namespace atum
