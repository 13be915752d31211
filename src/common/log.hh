/**
 * @file
 * Status-message and error helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated; a bug in this library.
 * fatal()  — the user supplied an impossible configuration.
 * warn()   — something works, but imperfectly; worth a look.
 * inform() — plain status output.
 *
 * All message functions accept printf-style formatting. panic() and
 * fatal() are marked [[noreturn]]; panic() aborts (core dump friendly)
 * while fatal() throws FatalError so that tests can assert on bad
 * configurations without killing the process.
 */

#ifndef CASH_COMMON_LOG_HH
#define CASH_COMMON_LOG_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace cash
{

/** Exception thrown by fatal(): a user-caused, recoverable-by-fixing-
 *  your-config error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Verbosity control for inform()/warn(); panic/fatal always fire. */
enum class LogLevel { Silent, Warn, Info };

/** Set the global verbosity (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Abort with a formatted message: internal invariant violated. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Throw FatalError with a formatted message: user error. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr (if verbosity allows). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr (if verbosity allows). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list args);
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Escape a string for the inside of a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace cash

#endif // CASH_COMMON_LOG_HH
