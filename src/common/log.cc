#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace cash
{

namespace
{
LogLevel globalLevel = LogLevel::Warn;
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

std::string
vstrfmt(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    return s;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Warn)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Info)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace cash
