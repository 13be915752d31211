#include "trace/export.hh"

#include <fstream>

#include "common/log.hh"

namespace cash::trace
{

namespace
{

/** JSON number: fixed %.17g keeps round-trips exact and output
 *  deterministic; NaN/inf (never emitted by instrumentation, but
 *  arguments are caller data) degrade to 0 to keep the JSON valid. */
std::string
jsonNum(double v)
{
    if (!(v == v) || v - v != 0.0)
        return "0";
    return strfmt("%.17g", v);
}

const char *
phaseOf(EventKind kind)
{
    switch (kind) {
      case EventKind::Instant: return "I";
      case EventKind::Complete: return "X";
      case EventKind::Counter: return "C";
    }
    return "I";
}

} // namespace

std::string
chromeTraceLine(const TraceEvent &ev)
{
    std::string out = strfmt(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
        "\"ts\":%s,",
        jsonEscape(ev.name ? ev.name : "?").c_str(),
        categoryName(ev.cat), phaseOf(ev.kind),
        jsonNum(ev.ts).c_str());
    if (ev.kind == EventKind::Complete)
        out += strfmt("\"dur\":%s,", jsonNum(ev.dur).c_str());
    if (ev.kind == EventKind::Instant)
        out += "\"s\":\"t\",";
    out += strfmt("\"pid\":%llu,\"tid\":%llu,\"args\":{",
                  static_cast<unsigned long long>(ev.track),
                  static_cast<unsigned long long>(ev.track));
    for (std::uint8_t i = 0; i < ev.numArgs; ++i) {
        if (i)
            out += ",";
        out += strfmt(
            "\"%s\":%s",
            jsonEscape(ev.argKey[i] ? ev.argKey[i] : "?").c_str(),
            jsonNum(ev.argVal[i]).c_str());
    }
    out += "}}";
    return out;
}

void
writeChromeTrace(
    std::ostream &out, const std::vector<TraceEvent> &events,
    const std::map<std::uint64_t, std::string> &track_names)
{
    out << "{\"traceEvents\":[\n";
    bool first = true;
    // Track-name metadata first: Perfetto shows each track (pid) by
    // its process_name.
    for (const auto &[track, name] : track_names) {
        if (!first)
            out << ",\n";
        first = false;
        out << strfmt("{\"name\":\"process_name\",\"ph\":\"M\","
                      "\"pid\":%llu,\"tid\":%llu,"
                      "\"args\":{\"name\":\"%s\"}}",
                      static_cast<unsigned long long>(track),
                      static_cast<unsigned long long>(track),
                      jsonEscape(name).c_str());
    }
    for (const TraceEvent &ev : events) {
        if (!first)
            out << ",\n";
        first = false;
        out << chromeTraceLine(ev);
    }
    out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void
writeChromeTrace(std::ostream &out, const TraceSession &session)
{
    writeChromeTrace(out, session.drain(), session.trackNames());
}

bool
writeChromeTraceFile(const std::string &path,
                     const TraceSession &session)
{
    std::ofstream file(path);
    if (!file.is_open()) {
        warn("cannot open '%s' for the Chrome trace; trace output "
             "dropped",
             path.c_str());
        return false;
    }
    if (std::uint64_t lost = session.overwritten()) {
        warn("trace ring buffers overwrote %llu event(s); the "
             "exported trace is truncated — raise "
             "TraceConfig::bufferCapacity",
             static_cast<unsigned long long>(lost));
    }
    writeChromeTrace(file, session);
    return true;
}

} // namespace cash::trace
