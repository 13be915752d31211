/**
 * @file
 * Workload sim_apps: the simulator in-process, one thread, no
 * sockets. Every figure app runs on a fresh chip through the fixed
 * EXPAND/SHRINK schedule s1b1 -> s2b4 -> s4b16 -> s8b64, a fixed
 * number of simulated quanta per configuration, once in full detail
 * and once sampled. The pass repeats until the time budget is spent;
 * every pass must reproduce the golden full-detail statistics.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <sstream>

#include "baselines/experiment.hh"
#include "service/json.hh"
#include "sim/ssim.hh"
#include "probe.hh"
#include "spans.hh"
#include "util.hh"
#include "workload/apps.hh"

namespace pb
{

namespace
{

using cash::Cycle;
using cash::InstCount;

constexpr Cycle kQuantum = 500'000;
constexpr int kQuantaPerConfig = 2;
/** Phase stretch for throughput apps, as in the sampled-error
 *  harness: raw phases flip faster than sampling can pay off. */
constexpr double kPhaseScale = 8.0;
/** Probes on either side of an app's two, in the median that scales
 *  its runs (probe.hh). */
constexpr std::size_t kProbeReach = 3;
/** Input seeds are taken modulo this; golden values exist for each. */
constexpr std::uint64_t kStreamSeeds = 16;

struct Config
{
    std::uint32_t slices;
    std::uint32_t banks;
    const char *name;
};
constexpr Config kSchedule[] = {
    {1, 1, "s1b1"}, {2, 4, "s2b4"}, {4, 16, "s4b16"}, {8, 64, "s8b64"}};
constexpr int kConfigs = 4;

/** Everything one app run in one mode produced. */
struct AppRun
{
    InstCount insts = 0;
    Cycle cycles = 0;
    cash::SliceCounters ctrs; ///< summed per-quantum deltas
    double joules = 0.0;
    Cycle reconfigStall = 0;
    InstCount estimated = 0;
    double setupUs = 0.0;
    double runUs = 0.0;
    std::vector<double> quantumUs;
    InstCount cfgInsts[kConfigs] = {};
    double cfgUs[kConfigs] = {};
    double commandUs = 0.0;
    int commands = 0;
    double readUs = 0.0;
    int reads = 0;
};

cash::SliceCounters
sumCounters(const cash::VirtualCore &vc)
{
    cash::SliceCounters s;
    for (std::uint32_t m = 0; m < vc.numSlices(); ++m) {
        const cash::SliceCounters &c = vc.counters(m);
        s.committedInsts += c.committedInsts;
        s.l1dAccesses += c.l1dAccesses;
        s.l1dMisses += c.l1dMisses;
        s.l2Accesses += c.l2Accesses;
        s.l2Misses += c.l2Misses;
        s.branches += c.branches;
        s.branchMispredicts += c.branchMispredicts;
        s.operandNetMsgs += c.operandNetMsgs;
    }
    return s;
}

void
addDelta(cash::SliceCounters &acc, const cash::SliceCounters &a,
         const cash::SliceCounters &b)
{
    acc.committedInsts += b.committedInsts - a.committedInsts;
    acc.l1dAccesses += b.l1dAccesses - a.l1dAccesses;
    acc.l1dMisses += b.l1dMisses - a.l1dMisses;
    acc.l2Accesses += b.l2Accesses - a.l2Accesses;
    acc.l2Misses += b.l2Misses - a.l2Misses;
    acc.branches += b.branches - a.branches;
    acc.branchMispredicts += b.branchMispredicts - a.branchMispredicts;
    acc.operandNetMsgs += b.operandNetMsgs - a.operandNetMsgs;
}

std::uint64_t
streamSeed(const cash::AppModel &app, std::uint64_t seed)
{
    return app.seed * 1'000'003ull + seed % kStreamSeeds + 1;
}

AppRun
runApp(const cash::AppModel &app, std::uint64_t seed,
       cash::SimMode mode)
{
    AppRun run;
    Scope app_span(mode == cash::SimMode::Full ? "sim.app_full"
                                               : "sim.app_sampled");
    double t0 = nowUs();
    std::unique_ptr<cash::SSim> sim;
    std::unique_ptr<cash::InstSource> src;
    cash::VCoreId id;
    {
        Scope s("setup.chip");
        sim = std::make_unique<cash::SSim>();
        if (mode == cash::SimMode::Sampled)
            sim->setSampling(cash::SimMode::Sampled);
        id = *sim->createVCore(kSchedule[0].slices, kSchedule[0].banks);
        cash::AppModel model = app.isRequestDriven()
            ? app
            : cash::scalePhases(app, kPhaseScale);
        src = cash::makeSource(model, streamSeed(app, seed));
        sim->vcore(id).bindSource(src.get());
    }
    run.setupUs = nowUs() - t0;

    for (int c = 0; c < kConfigs; ++c) {
        if (c > 0) {
            Scope s("sim.command");
            double a = nowUs();
            auto cost = sim->command(id, kSchedule[c].slices,
                                     kSchedule[c].banks);
            run.commandUs += nowUs() - a;
            ++run.commands;
            if (!cost)
                throw std::runtime_error("command denied");
        }
        cash::VirtualCore &vc = sim->vcore(id);
        for (int q = 0; q < kQuantaPerConfig; ++q) {
            cash::SliceCounters before = sumCounters(vc);
            InstCount i0 = vc.meta().totalCommitted;
            double a = nowUs();
            {
                Scope s("sim.run_until");
                vc.runUntil(vc.now() + kQuantum);
            }
            double us = nowUs() - a;
            run.runUs += us;
            run.quantumUs.push_back(us);
            run.cfgUs[c] += us;
            run.cfgInsts[c] += vc.meta().totalCommitted - i0;
            addDelta(run.ctrs, before, sumCounters(vc));
            // The runtime samples every quantum over the RIN.
            Scope s("sim.read_counters");
            double r = nowUs();
            cash::VCoreSample sample = sim->readCounters(id);
            run.readUs += nowUs() - r;
            ++run.reads;
            (void)sample;
        }
    }
    const cash::VirtualCore &vc = sim->vcore(id);
    cash::VCoreMeta meta = vc.meta();
    run.insts = meta.totalCommitted;
    run.cycles = vc.now();
    run.reconfigStall = meta.reconfigStallCycles;
    run.estimated = meta.estimatedInsts;
    {
        Scope s("energy.read");
        run.joules = vc.energyJoules();
    }
    return run;
}

/** The golden row of one app: what a full-detail run must equal. */
std::vector<double>
goldenRow(const AppRun &r)
{
    return {static_cast<double>(r.insts),
            static_cast<double>(r.cycles),
            static_cast<double>(r.ctrs.l1dMisses),
            static_cast<double>(r.ctrs.l2Misses),
            static_cast<double>(r.ctrs.branchMispredicts), r.joules};
}

const char *const kGoldenFields[] = {"insts", "cycles", "l1d_misses",
                                     "l2_misses", "mispredicts",
                                     "joules"};

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
sameValue(double got, double want, bool is_joules)
{
    if (!is_joules)
        return got == want;
    // Joules are a double sum; allow for the last printed digit.
    return std::fabs(got - want) <= 1e-12 * std::fabs(want);
}

/** Order in which a pass visits the apps: a seeded shuffle, so the
 *  host-side cache state each app meets differs between seeds. */
std::vector<std::size_t>
appOrder(std::uint64_t seed)
{
    std::vector<std::size_t> order(cash::allApps().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    cash::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

} // namespace

int
writeGolden(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return 1;
    out << "{\n  \"fields\": [";
    for (int f = 0; f < 6; ++f)
        out << (f ? ", " : "") << '"' << kGoldenFields[f] << '"';
    out << "],\n  \"seeds\": {\n";
    for (std::uint64_t s = 0; s < kStreamSeeds; ++s) {
        out << "    \"" << s << "\": {\n";
        const auto &apps = cash::allApps();
        for (std::size_t a = 0; a < apps.size(); ++a) {
            AppRun r = runApp(apps[a], s, cash::SimMode::Full);
            std::vector<double> row = goldenRow(r);
            out << "      \"" << apps[a].name << "\": [";
            for (std::size_t f = 0; f < row.size(); ++f)
                out << (f ? ", " : "") << fmtDouble(row[f]);
            out << "]" << (a + 1 < apps.size() ? "," : "") << "\n";
        }
        out << "    }" << (s + 1 < kStreamSeeds ? "," : "") << "\n";
        std::fprintf(stderr, "golden: seed %llu done\n",
                     static_cast<unsigned long long>(s));
    }
    out << "  }\n}\n";
    return out.good() ? 0 : 1;
}

int
runSimApps(const Options &opt, Metrics &e2e, Metrics &layers,
           Outcome &out)
{
    const auto &apps = cash::allApps();

    // Golden values for every input-stream seed, by seed and app.
    std::map<std::uint64_t, std::map<std::string, std::vector<double>>>
        golden;
    {
        std::ifstream in(opt.golden);
        std::stringstream ss;
        ss << in.rdbuf();
        std::string err;
        auto doc = cash::service::parseJson(ss.str(), &err);
        const cash::service::JsonValue *seeds =
            doc ? doc->find("seeds") : nullptr;
        out.check(seeds != nullptr,
                  "golden file " + opt.golden + " unreadable: " + err);
        for (std::uint64_t k = 0; seeds && k < kStreamSeeds; ++k) {
            const cash::service::JsonValue *row =
                seeds->find(std::to_string(k));
            out.check(row != nullptr,
                      "golden file has no seed " + std::to_string(k));
            if (row)
                for (const auto &[name, vals] : row->members())
                    for (const auto &v : vals.items())
                        golden[k][name].push_back(v.number());
        }
    }

    // One CPU for the whole run, so the probe reads the CPU the
    // simulator runs on.
    int cpu = onlineCpus() - 1;
    pinToCpu(cpu);
    HostProbe probe;
    std::vector<double> all_probes;

    // Every app run of every pass draws its input stream from the
    // seed, so a run averages over many inputs rather than reading one.
    std::vector<std::size_t> order = appOrder(opt.seed);
    cash::Rng stream_rng(opt.seed * 0xbf58476d1ce4e5b9ull + 29);
    std::vector<double> pass_setup_s;
    // Full-detail quantum time by slot (app, configuration, quantum),
    // one per pass: every run has the same slots, whatever its seed, so
    // their distribution does not shift with the inputs drawn.
    constexpr std::size_t kSlotsPerApp = kConfigs * kQuantaPerConfig;
    std::vector<std::vector<double>> slot_ms(apps.size() * kSlotsPerApp);
    // Per pass: full-detail rate, sampled time per quantum.
    std::vector<double> pass_rate, pass_sampled_ms;
    std::map<std::string, AppRun> full_first, sampled_first;
    std::map<std::pair<std::string, std::uint64_t>, AppRun> sampled_seen;
    std::map<std::string, double> full_us, sampled_us;
    std::map<std::string, InstCount> full_insts_all, sampled_insts_all;
    double cfg_us[kConfigs] = {};
    InstCount cfg_insts[kConfigs] = {};
    double cmd_us = 0.0, read_us = 0.0;
    int cmds = 0, reads = 0;

    int timed_span = -1;
    double t_end = nowUs() + opt.seconds * 1e6;
    int passes = 0;
    std::optional<Scope> timed;
    timed.emplace("bench.sim_apps");
    timed_span = timed->index();
    // At least three passes, so setup has a median.
    while (passes < 3 || nowUs() < t_end) {
        // The pass's host times, scaled once its probes are in.
        struct Timed
        {
            std::size_t app;
            double setupUs, runUs, sampledUs;
            std::vector<double> quantumUs;
            InstCount insts;
            std::size_t sampledQuanta;
        };
        std::vector<Timed> timed_runs;
        std::vector<double> probes;
        auto probe_now = [&] {
            Scope s("host.probe");
            probes.push_back(probe.loadNs());
        };
        Scope pass("bench.pass");
        CpuTicks pass_ticks = cpuTicks(cpu, cpu + 1);
        for (std::size_t ai : order) {
            const cash::AppModel &app = apps[ai];
            std::uint64_t stream = stream_rng.nextBounded(kStreamSeeds);
            AppRun full = runApp(app, stream, cash::SimMode::Full);
            probe_now();
            AppRun smp = runApp(app, stream, cash::SimMode::Sampled);
            probe_now();
            ++out.attempted;
            std::vector<double> row = goldenRow(full);
            auto g = golden[stream].find(app.name);
            bool ok = g != golden[stream].end()
                && g->second.size() == row.size();
            for (std::size_t f = 0; ok && f < row.size(); ++f) {
                if (!sameValue(row[f], g->second[f], f == 5)) {
                    out.check(false,
                              app.name + " " + kGoldenFields[f] + " = "
                                  + fmtDouble(row[f]) + ", golden "
                                  + fmtDouble(g->second[f]));
                    ok = false;
                }
            }
            if (g == golden[stream].end())
                out.check(false, "no golden row for " + app.name);
            if (!ok)
                ++out.failed;
            // Sampled mode is deterministic too: every run of an app
            // on an input must repeat the first one exactly.
            auto [it, fresh] =
                sampled_seen.emplace(std::make_pair(app.name, stream), smp);
            if (!fresh)
                out.check(it->second.insts == smp.insts
                              && it->second.joules == smp.joules,
                          app.name + " sampled run not repeatable");
            // The first run of each app gives the exact statistics;
            // full and sampled ran on the same input.
            full_first.emplace(app.name, full);
            sampled_first.emplace(app.name, smp);

            timed_runs.push_back({ai, full.setupUs + smp.setupUs, full.runUs,
                                  smp.runUs, full.quantumUs, full.insts,
                                  smp.quantumUs.size()});
            full_us[app.name] += full.runUs;
            sampled_us[app.name] += smp.runUs;
            full_insts_all[app.name] += full.insts;
            sampled_insts_all[app.name] += smp.insts;
            for (int c = 0; c < kConfigs; ++c) {
                cfg_us[c] += full.cfgUs[c];
                cfg_insts[c] += full.cfgInsts[c];
            }
            cmd_us += full.commandUs + smp.commandUs;
            cmds += full.commands + smp.commands;
            read_us += full.readUs + smp.readUs;
            reads += full.reads + smp.reads;
        }
        // Every time of the pass at the reference host speed and
        // without the host's steal time. An app's runs are scaled by the
        // median of the probes around them: the two right after them
        // and a few on either side.
        double steal = stealScale(pass_ticks, cpuTicks(cpu, cpu + 1));
        double setup_us = 0.0, run_ms = 0.0, sampled_ms = 0.0;
        InstCount pass_insts = 0;
        std::uint64_t pass_quanta = 0;
        for (std::size_t j = 0; j < timed_runs.size(); ++j) {
            const Timed &t = timed_runs[j];
            std::size_t lo = 2 * j >= kProbeReach ? 2 * j - kProbeReach : 0;
            std::size_t hi = std::min(probes.size(), 2 * j + 2 + kProbeReach);
            double scale = steal * refScale(median(std::vector<double>(
                probes.begin() + static_cast<std::ptrdiff_t>(lo),
                probes.begin() + static_cast<std::ptrdiff_t>(hi))));
            setup_us += t.setupUs * scale;
            run_ms += t.runUs * scale / 1e3;
            sampled_ms += t.sampledUs * scale / 1e3;
            pass_insts += t.insts;
            pass_quanta += t.sampledQuanta;
            for (std::size_t q = 0; q < t.quantumUs.size(); ++q)
                slot_ms[t.app * kSlotsPerApp + q].push_back(
                    t.quantumUs[q] * scale / 1e3);
        }
        all_probes.insert(all_probes.end(), probes.begin(), probes.end());
        pass_setup_s.push_back(setup_us / 1e6);
        pass_rate.push_back(static_cast<double>(pass_insts)
                            / (run_ms / 1e3));
        pass_sampled_ms.push_back(sampled_ms
                                  / static_cast<double>(pass_quanta));
        ++passes;
    }
    timed.reset();
    // Each pass at the reference host speed, then the median over
    // passes: a burst of host slowness the probe does not see (steal
    // time) moves one pass, not the median.
    std::vector<double> quantum_ms;
    for (const std::vector<double> &runs : slot_ms)
        quantum_ms.push_back(median(runs));
    e2e.set("setup_s", median(pass_setup_s), "s");
    e2e.set("peak_rss_mb", peakRssMb(), "MB");
    e2e.set("lat_p50_ms", percentile(quantum_ms, 50.0), "ms");
    // The slowest quarter of slots on average: quantum times cluster by
    // configuration, and p90 itself jumped between clusters. The
    // slowest tenth (ten slots) spread 7% between runs, as each slot's
    // passes draw different input streams.
    e2e.set("lat_tail_ms", tailMean(quantum_ms, 75.0), "ms");
    e2e.set("side_ms", median(pass_sampled_ms), "ms");
    double full_rate = median(pass_rate);
    e2e.set("rate_per_s", full_rate, "1/s");
    layers.set("host.load_ns", median(all_probes), "ns/load");
    std::printf("sim_apps: %d passes of %zu apps x %d configs x %d "
                "quanta of %llu cycles, full + sampled\n",
                passes, apps.size(), kConfigs, kQuantaPerConfig,
                static_cast<unsigned long long>(kQuantum));

    // Per-layer: host cost per instruction by app and by config,
    // sampler trade-off, RIN call costs, exact model statistics.
    double log_err = 0.0, max_err = 0.0;
    double det_thr = 0.0, tot_thr = 0.0, det_req = 0.0, tot_req = 0.0;
    cash::SliceCounters all;
    InstCount all_insts = 0;
    double all_joules = 0.0;
    Cycle all_stall = 0;
    double full_total_us = 0.0, sampled_total_us = 0.0;
    for (const cash::AppModel &app : apps) {
        const AppRun &f = full_first[app.name];
        const AppRun &s = sampled_first[app.name];
        layers.set("sim.full.ns_per_inst." + app.name,
                   full_us[app.name] * 1e3
                       / static_cast<double>(full_insts_all[app.name]),
                   "ns/inst");
        layers.set("sim.sampled.ns_per_inst." + app.name,
                   sampled_us[app.name] * 1e3
                       / static_cast<double>(
                           sampled_insts_all[app.name]),
                   "ns/inst");
        full_total_us += full_us[app.name];
        sampled_total_us += sampled_us[app.name];
        // Error at equal cycles: every segment covers the same
        // simulated window in both modes.
        InstCount fw = 0, sw = 0;
        for (int c = 0; c < kConfigs; ++c) {
            fw += f.cfgInsts[c];
            sw += s.cfgInsts[c];
        }
        double err = std::fabs(static_cast<double>(sw)
                               - static_cast<double>(fw))
            / static_cast<double>(fw);
        log_err += std::log(std::max(err, 1e-6));
        max_err = std::max(max_err, err);
        double detail = 1.0
            - static_cast<double>(s.estimated)
                / static_cast<double>(s.insts);
        (app.isRequestDriven() ? det_req : det_thr) +=
            detail * static_cast<double>(s.insts);
        (app.isRequestDriven() ? tot_req : tot_thr) +=
            static_cast<double>(s.insts);
        all.l1dMisses += f.ctrs.l1dMisses;
        all.l2Misses += f.ctrs.l2Misses;
        all.branchMispredicts += f.ctrs.branchMispredicts;
        all.operandNetMsgs += f.ctrs.operandNetMsgs;
        all_insts += f.insts;
        all_joules += f.joules;
        all_stall += f.reconfigStall;
    }
    for (int c = 0; c < kConfigs; ++c)
        layers.set(std::string("sim.full.ns_per_inst.")
                       + kSchedule[c].name,
                   cfg_us[c] * 1e3 / static_cast<double>(cfg_insts[c]),
                   "ns/inst");
    layers.set("sim.sampled.detail_frac.throughput", det_thr / tot_thr,
               "frac");
    layers.set("sim.sampled.detail_frac.request", det_req / tot_req,
               "frac");
    layers.set("sim.sampled.err_pct",
               100.0 * std::exp(log_err / static_cast<double>(apps.size())),
               "%");
    layers.set("sim.sampled.max_err_pct", 100.0 * max_err, "%");
    layers.set("sim.sampled.speedup", full_total_us / sampled_total_us,
               "x");
    layers.set("sim.command_us", cmd_us / cmds, "us/call");
    layers.set("sim.read_counters_us", read_us / reads, "us/call");
    auto per_kinst = [&](std::uint64_t n) {
        return 1000.0 * static_cast<double>(n)
            / static_cast<double>(all_insts);
    };
    layers.set("sim.l1d_mpki", per_kinst(all.l1dMisses), "1/kinst");
    layers.set("sim.l2_mpki", per_kinst(all.l2Misses), "1/kinst");
    layers.set("sim.branch_mpki", per_kinst(all.branchMispredicts),
               "1/kinst");
    layers.set("sim.opnet_per_kinst", per_kinst(all.operandNetMsgs),
               "1/kinst");
    layers.set("sim.reconfig_stall_cycles",
               static_cast<double>(all_stall)
                   / static_cast<double>(apps.size()),
               "cycles/app");
    layers.set("energy.nj_per_inst",
               all_joules * 1e9 / static_cast<double>(all_insts),
               "nJ/inst");

    std::printf("sim_apps: full %.3f M inst/s, sampled speedup %.2fx, "
                "sampled error geomean %.2f%% max %.2f%%\n",
                full_rate / 1e6,
                full_total_us / sampled_total_us,
                100.0 * std::exp(log_err / static_cast<double>(apps.size())),
                100.0 * max_err);
    return timed_span;
}

} // namespace pb
