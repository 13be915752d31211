/**
 * @file
 * Command-line flag values, read strictly.
 *
 * strtoul and friends read "abc" as 0 and wrap "-1" to the largest
 * value, so a typo silently becomes another setting. parseFlag()
 * accepts one whole decimal number in range and fatal()s on
 * anything else, so a tool stops before it acts on it.
 */

#ifndef CASH_COMMON_FLAGS_HH
#define CASH_COMMON_FLAGS_HH

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/log.hh"

namespace cash
{

/** The value of flag argv[i], which advances i past it; fatal() if
 *  the flag is the last argument. */
inline const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("%s needs a value", argv[i]);
    return argv[++i];
}

/**
 * The value `text` of the numeric flag `flag` as a T in [lo, hi];
 * fatal() unless all of `text` is one number in that range.
 */
template <typename T>
T
parseFlag(const char *flag, const char *text,
          T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
    const char *end = text + std::strlen(text);
    T value{};
    bool whole = false;
    if constexpr (std::is_integral_v<T>) {
        auto [ptr, ec] = std::from_chars(text, end, value);
        whole = ec == std::errc() && ptr == end;
    } else {
        // from_chars reads doubles only from GCC 11 on. strtod is
        // held to the forms from_chars takes: no blanks, leading
        // '+', hex, inf or nan, and no overflow.
        char *stop = nullptr;
        errno = 0;
        value = std::strtod(text, &stop);
        whole = stop != text && stop == end && errno == 0
            && *text != '+' && !text[std::strspn(text, "0123456789.eE+-")];
    }
    if (whole && value >= lo && value <= hi)
        return value;
    auto show = [](T v) {
        if constexpr (std::is_floating_point_v<T>)
            return strfmt("%g", v);
        else
            return std::to_string(v);
    };
    std::string want = hi == std::numeric_limits<T>::max()
        ? ">= " + show(lo)
        : "in [" + show(lo) + ", " + show(hi) + "]";
    fatal("%s needs a number %s, got '%s'", flag, want.c_str(), text);
}

} // namespace cash

#endif // CASH_COMMON_FLAGS_HH
