#ifndef ATUM_UTIL_PARSE_H_
#define ATUM_UTIL_PARSE_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace atum::util {

/**
 * `text` as a decimal number no larger than `max`, for flags and file
 * name fields. Digits only: a sign, space, base prefix or trailing
 * character is kInvalidArgument, so "-1" is refused rather than wrapped.
 */
inline StatusOr<uint64_t>
ParseUint(std::string_view text, uint64_t max = UINT64_MAX)
{
    uint64_t value = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc::invalid_argument || stop != end)
        return InvalidArgument("wants a number, got '", text, "'");
    if (error == std::errc::result_out_of_range || value > max)
        return InvalidArgument("takes at most ", max, ", got ", text);
    return value;
}

/** "a,,b" -> {"a", "", "b"}; "" -> {""}. */
inline std::vector<std::string>
SplitCommas(std::string_view text)
{
    std::vector<std::string> parts;
    for (size_t comma; (comma = text.find(',')) != std::string_view::npos;
         text.remove_prefix(comma + 1))
        parts.emplace_back(text.substr(0, comma));
    parts.emplace_back(text);
    return parts;
}

}  // namespace atum::util

#endif  // ATUM_UTIL_PARSE_H_
