#ifndef ATUM_TOOLS_CLI_H_
#define ATUM_TOOLS_CLI_H_

/**
 * @file
 * The argv reader every tool shares. A command-line mistake (a missing
 * value, a number that is not plain decimal or does not fit, an unknown
 * flag) prints "TOOL: message" and exits with the usage code 2, never
 * Fatal's 1 (util/status.h has the exit-code contract).
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "util/build_info.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/status.h"

namespace atum::cli {

class ArgReader
{
  public:
    ArgReader(const char* tool, int argc, char** argv)
        : tool_(tool), argc_(argc), argv_(argv)
    {
    }

    /** Steps to the next argument; false once argv is spent. Every tool
     *  answers --version here, with its name and the build. */
    bool Next()
    {
        if (i_ + 1 >= argc_)
            return false;
        arg_ = argv_[++i_];
        if (arg_ == "--version") {
            std::printf("%s\n", util::VersionString(tool_).c_str());
            std::exit(util::kExitOk);
        }
        return true;
    }

    /** The current argument. */
    const std::string& arg() const { return arg_; }

    /** The argument after the current one, or null at the end. */
    const char* Peek() const
    {
        return i_ + 1 < argc_ ? argv_[i_ + 1] : nullptr;
    }

    /** The current flag's value: consumes the next argument. */
    std::string Value()
    {
        if (i_ + 1 >= argc_)
            Fail(arg_, " requires a value");
        return argv_[++i_];
    }

    /** The current flag's value as a decimal that fits `Field` and is
     *  at most `max`. */
    template <typename Field>
    Field Uint(uint64_t max = std::numeric_limits<Field>::max())
    {
        util::StatusOr<uint64_t> parsed = util::ParseUint(Value(), max);
        if (!parsed.ok())
            Fail(arg_, " ", parsed.status().message());
        return static_cast<Field>(*parsed);
    }

    /** Prints the message after the tool's name and exits 2. */
    template <typename... Args>
    [[noreturn]] void Fail(Args&&... args) const
    {
        std::fprintf(stderr, "%s: %s\n", tool_,
                     internal::StrCat(std::forward<Args>(args)...).c_str());
        std::exit(util::kExitUsage);
    }

  private:
    const char* tool_;
    int argc_;
    char** argv_;
    int i_ = 0;
    std::string arg_;
};

}  // namespace atum::cli

#endif  // ATUM_TOOLS_CLI_H_
