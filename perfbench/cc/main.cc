/**
 * @file
 * perfbench: run one benchmark workload with one seed.
 *
 *   perfbench --workload sim_apps|svc_mixed --seed N
 *             --seconds S --trace 0|1 --daemon PATH --golden PATH
 *             [--out DIR]
 *   perfbench --write-golden PATH
 *
 * Untraced runs measure the end-to-end metrics. A traced run records
 * spans around the benchmark's calls into each layer, writes them as
 * Chrome trace_event JSON plus a per-layer self-time table into the
 * output directory, and reports the per-layer metrics. The last line
 * of stdout is one JSON object: correct, attempted, failed, metrics.
 * Exit status: 0 when every check held, 1 when one failed, 2 when the
 * run could not be made.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <sys/stat.h>

#include "common/log.hh"
#include "spans.hh"
#include "util.hh"

namespace pb
{
int runSimApps(const Options &, Metrics &, Metrics &, Outcome &);
int runSvcMixed(const Options &, Metrics &, Metrics &, Outcome &);
int writeGolden(const std::string &path);
} // namespace pb

namespace
{

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Self time per layer of the timed phase, as a table and metrics. */
void
reportSelfTimes(const pb::Options &opt, int root, pb::Metrics &layers)
{
    pb::Tracer &t = pb::Tracer::get();
    std::map<std::string, double> self = t.selfByLayer(root);
    double wall = t.duration(root);
    double in_layers = 0.0;
    std::string table = "layer self time in the timed phase (" + opt.workload
        + ", seed " + std::to_string(opt.seed) + ")\n";
    for (const auto &[layer, us] : self) {
        char row[160];
        std::snprintf(row, sizeof row, "  %-10s %12.3f ms %7.2f%%\n",
                      layer.c_str(), us / 1e3, 100.0 * us / wall);
        table += row;
        if (layer != "bench")
            in_layers += us;
    }
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "  %-10s %12.3f ms (self times sum to %.3f ms)\n", "wall",
                  wall / 1e3, [&] {
                      double s = 0.0;
                      for (const auto &kv : self)
                          s += kv.second;
                      return s / 1e3;
                  }());
    table += tail;
    std::fputs(table.c_str(), stdout);
    std::string base = opt.outDir + "/" + opt.workload + "-"
        + std::to_string(opt.seed);
    if (std::FILE *f = std::fopen((base + "-layers.txt").c_str(), "w")) {
        std::fputs(table.c_str(), f);
        std::fclose(f);
    }
    layers.set("trace.self_cover_frac", in_layers / wall, "frac");
    if (!t.writeChrome(base + "-trace.json"))
        std::fprintf(stderr, "perfbench: cannot write %s-trace.json\n",
                     base.c_str());
    else
        std::printf("trace: %s-trace.json (%zu spans)\n", base.c_str(),
                    t.size());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sim_apps|svc_mixed "
                 "--seed N --seconds S --trace 0|1 "
                 "--daemon PATH --golden PATH [--out DIR]\n"
                 "       perfbench --write-golden PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--daemon")
            opt.daemon = v;
        else if (a == "--golden")
            opt.golden = v;
        else if (a == "--out")
            opt.outDir = v;
        else if (a == "--write-golden")
            return pb::writeGolden(v);
        else
            return usage();
    }
    if (opt.seconds <= 0.0)
        return usage();
    ::mkdir(opt.outDir.c_str(), 0755);
    cash::setLogLevel(cash::LogLevel::Warn);

    pb::Metrics e2e, layers;
    pb::Outcome out;
    if (opt.trace)
        pb::Tracer::get().enable();
    int root = -1;
    try {
        if (opt.workload == "sim_apps")
            root = pb::runSimApps(opt, e2e, layers, out);
        else if (opt.workload == "svc_mixed")
            root = pb::runSvcMixed(opt, e2e, layers, out);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    for (const auto &m : e2e.items)
        std::printf("%-16s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const pb::Metrics *report = &e2e;
    if (opt.trace) {
        // The traced run's own end-to-end numbers: traced minus
        // untraced is the tracing overhead.
        for (const auto &m : e2e.items)
            layers.set("trace." + m.name, m.value, m.unit);
        if (root >= 0)
            reportSelfTimes(opt, root, layers);
        report = &layers;
    }

    std::string json = "{\"correct\": ";
    json += out.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report->items.size(); ++i) {
        const auto &m = report->items[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
            + jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return out.correct() ? 0 : 1;
}
