/**
 * @file
 * Shared `--trace` / `--metrics` command-line handling.
 *
 * Every observable binary in the repo — the benches, the fuzzer, the
 * service daemon and load generator — exposes the same two flags:
 *
 *   <tool> --trace out.json    record a Chrome trace_event timeline
 *          --metrics out.csv   write the metric summary as CSV
 *
 * TraceOptions implements them once. Construct it first thing in
 * main(); it *extracts* the flags it owns from argv (compacting the
 * array and updating argc), so the tool's own parser never sees
 * them. When either flag was given, a TraceSession is installed for
 * the object's lifetime; on destruction — after the tool's workers
 * have drained — the session is uninstalled, the Chrome JSON (open
 * in ui.perfetto.dev or chrome://tracing) and optional metric CSV
 * are written, and the metric summary table goes to stderr. stdout
 * is never touched, so the engine determinism contract —
 * byte-identical stdout at any thread count — holds with tracing on.
 */

#ifndef CASH_TRACE_OPTIONS_HH
#define CASH_TRACE_OPTIONS_HH

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/log.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash::trace
{

class TraceOptions
{
  public:
    /** Extract --trace/--metrics from argv (supports both
     *  `--trace f` and `--trace=f`); argc and argv are rewritten to
     *  hold only the remaining arguments. */
    TraceOptions(int &argc, char **argv)
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&](const char *flag)
                -> std::optional<std::string> {
                std::string prefix = std::string(flag) + "=";
                if (arg.rfind(prefix, 0) == 0)
                    return arg.substr(prefix.size());
                if (arg == flag) {
                    if (i + 1 >= argc)
                        fatal("%s needs a file argument", flag);
                    return std::string(argv[++i]);
                }
                return std::nullopt;
            };
            if (auto v = value("--trace"))
                tracePath_ = *v;
            else if (auto v = value("--metrics"))
                metricsPath_ = *v;
            else
                argv[out++] = argv[i];
        }
        argc = out;
        if (tracePath_.empty() && metricsPath_.empty())
            return;
        session_ = std::make_unique<TraceSession>();
        session_->install();
    }

    ~TraceOptions()
    {
        if (!session_)
            return;
        session_->uninstall();
        if (!tracePath_.empty()
            && writeChromeTraceFile(tracePath_, *session_)) {
            inform("trace: wrote %s (open in ui.perfetto.dev or "
                   "chrome://tracing)",
                   tracePath_.c_str());
        }
        auto &reg = MetricsRegistry::global();
        if (!metricsPath_.empty()) {
            std::ofstream out(metricsPath_);
            if (out.is_open()) {
                reg.writeCsv(out);
                inform("trace: wrote metric summary %s",
                       metricsPath_.c_str());
            } else {
                warn("cannot open '%s' for the metric summary",
                     metricsPath_.c_str());
            }
        }
        // Summary to stderr only: stdout must stay byte-identical
        // with and without tracing.
        std::string table = reg.summaryTable();
        if (!table.empty())
            std::fputs(table.c_str(), stderr);
    }

    TraceOptions(const TraceOptions &) = delete;
    TraceOptions &operator=(const TraceOptions &) = delete;

    /** True when a session was installed for this run. */
    bool enabled() const { return session_ != nullptr; }

  private:
    std::string tracePath_;
    std::string metricsPath_;
    std::unique_ptr<TraceSession> session_;
};

} // namespace cash::trace

#endif // CASH_TRACE_OPTIONS_HH
