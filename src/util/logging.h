#ifndef ATUM_UTIL_LOGGING_H_
#define ATUM_UTIL_LOGGING_H_

/**
 * @file
 * Status / error reporting in the gem5 style.
 *
 * Two terminating functions with distinct purposes:
 *  - Fatal():  the *user's* fault (bad configuration, invalid arguments);
 *              exits with status 1.
 *  - Panic():  a bug in atum itself ("can't happen"); calls abort() so the
 *              failure can be caught in a debugger or death test.
 *
 * Two non-terminating functions:
 *  - Inform(): normal operational status.
 *  - Warn():   something is off but execution can continue.
 */

#include <sstream>
#include <string>

namespace atum {

namespace internal {

/** Sink for formatted log output; terminates for the fatal kinds. */
[[noreturn]] void FatalImpl(const std::string& msg);
[[noreturn]] void PanicImpl(const std::string& msg);
void InformImpl(const std::string& msg);
void WarnImpl(const std::string& msg);

/** Concatenates all arguments via operator<<. */
template <typename... Args>
std::string StrCat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

}  // namespace internal

/** Reports a user-caused error and exits the process with status 1. */
template <typename... Args>
[[noreturn]] void Fatal(Args&&... args)
{
    internal::FatalImpl(internal::StrCat(std::forward<Args>(args)...));
}

/** Reports an internal invariant violation and aborts. */
template <typename... Args>
[[noreturn]] void Panic(Args&&... args)
{
    internal::PanicImpl(internal::StrCat(std::forward<Args>(args)...));
}

/** Emits an informational message to stderr. */
template <typename... Args>
void Inform(Args&&... args)
{
    internal::InformImpl(internal::StrCat(std::forward<Args>(args)...));
}

/** Emits a warning message to stderr. */
template <typename... Args>
void Warn(Args&&... args)
{
    internal::WarnImpl(internal::StrCat(std::forward<Args>(args)...));
}

}  // namespace atum

#endif  // ATUM_UTIL_LOGGING_H_
