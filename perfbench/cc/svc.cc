/**
 * @file
 * Workload svc_mixed: the real cash_serviced binary (--shards 2: two
 * sim threads and one IO thread) over a Unix socket, loaded by the
 * benchmark's single-threaded open-loop driver on four connections.
 * It places a fixed tenant population on both shards and then steps
 * the region open-loop at about half of its step capacity while
 * queries stream in behind the steps.
 *
 * An in-process RegionCore twin replays the same requests. Its final
 * bills must equal the daemon's exactly; in traced runs its apply
 * times split the client latency into apply and front-end residual.
 */

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <thread>

#include "driver.hh"
#include "probe.hh"
#include "service/client.hh"
#include "service/region.hh"
#include "spans.hh"
#include "util.hh"

namespace pb
{

namespace
{

using cash::service::JsonValue;
using cash::service::Op;
using cash::service::Request;

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kSessions = 4;
constexpr int kSetups = 9;

constexpr std::uint32_t kResidence = 1'000'000;

// svc_mixed: population, rates and latency limits.
constexpr std::uint32_t kTenants = 8;
/** Classes in cloud::defaultCatalog(). */
constexpr std::uint32_t kCatalogClasses = 11;
/** A step takes 55-100 ms as the host's speed varies (see probe.hh),
 *  so 5 steps/s keeps the step clock at or below half of step
 *  capacity: at 8/s a slow host ran it at 80% and queueing doubled the
 *  spread of the step tail between runs. */
constexpr double kStepRate = 5.0;
constexpr double kQueryRate = 200.0;
/** About 4x the unloaded step time (50-65 ms on a 4-vCPU 2 GHz Xeon
 *  VM); queries wait behind steps, so they share it. */
constexpr double kStepLimitMs = 250.0;
constexpr double kQueryLimitMs = 250.0;
constexpr int kWarmSteps = 2;
/**
 * The timed phase is cut into segments of about this length, each
 * scaled by the probe readings taken in it. Every end-to-end latency
 * and rate is the median over segments of that segment's figure. A
 * burst of host slowness the probe does not see (the host taking
 * 0.5-10% of our CPUs' time, as steal time) stretches the steps of one
 * or two segments; over the whole run it moved the step tail by 24-29%
 * between runs.
 */
constexpr double kSegmentS = 5.0;
/** Tail percentiles. A 5 s segment holds 25 steps, so p75 leaves six
 *  beyond it. Queries: p99 is the longest step again, and p75 sits
 *  where only half of the queries wait behind a step, so it moves by
 *  twice the step time's change; p90 moves with the step time. */
constexpr double kStepTailPct = 75.0;
constexpr double kQueryTailPct = 90.0;

/** Pin the calling process to CPUs [lo, hi). */
void
setAffinity(int lo, int hi)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = lo; c < hi; ++c)
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

/** The daemon under test, as a child process. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::vector<std::string> &extra,
           int instance)
    {
        sock_ = ".bench_build/pb" + std::to_string(::getpid()) + "-"
            + std::to_string(instance) + ".sock";
        outPath_ = opt.outDir + "/daemon-" + std::to_string(instance)
            + ".out";
        errPath_ = opt.outDir + "/daemon-" + std::to_string(instance)
            + ".err";
        std::vector<std::string> args = {opt.daemon, "--unix", sock_,
                                         "--shards",
                                         std::to_string(kShards),
                                         "--queue-cap", "100000",
                                         "--no-rebalance"};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // The daemon's three threads get every CPU but the last,
        // which the driver keeps to itself.
        int cpus = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
        if (cpus >= 4)
            setAffinity(0, cpus - 1);
        pid_ = ::fork();
        if (pid_ == 0) {
            // Never outlive the benchmark, however it ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int out = ::open(outPath_.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
            int err = ::open(errPath_.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (out < 0 || err < 0 || ::dup2(out, 1) < 0
                || ::dup2(err, 2) < 0)
                ::_exit(127);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        if (cpus >= 4)
            setAffinity(cpus - 1, cpus);
        int rc = pid_ > 0 ? 0 : errno;
        if (rc != 0)
            throw std::runtime_error("cannot start " + opt.daemon);
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(sock_.c_str());
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect a new session, retrying while the daemon starts. */
    int connect() const
    {
        double give_up = nowUs() + 30e6;
        for (;;) {
            int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                          sock_.c_str());
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr)
                == 0)
                return fd;
            ::close(fd);
            if (nowUs() > give_up)
                throw std::runtime_error("daemon never listened on "
                                         + sock_);
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon exited at startup");
            }
            ::usleep(100);
        }
    }

    /**
     * Give each daemon thread a CPU of its own: threads are created
     * shard sim threads first, then the IO thread, and /proc lists a
     * process's threads in creation order, so they are main, sim 0,
     * sim 1, IO. (Sorting tids is not the same: they wrap at
     * pid_max.) Main only waits for a signal and shares CPU 0. Threads
     * that migrate between CPUs, or share one, made latencies differ
     * between runs by 10-20%. The daemon listens before it starts its
     * threads, so call this once it has answered a request.
     */
    void pinThreads() const
    {
        int cpus = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
        if (cpus < 4)
            return;
        std::vector<pid_t> tids;
        std::string dir = "/proc/" + std::to_string(pid_) + "/task";
        if (DIR *d = ::opendir(dir.c_str())) {
            while (dirent *e = ::readdir(d))
                if (e->d_name[0] != '.')
                    tids.push_back(std::atoi(e->d_name));
            ::closedir(d);
        }
        if (tids.size() != 2 + kShards)
            throw std::runtime_error("daemon runs " + std::to_string(
                                         tids.size())
                                     + " threads, expected "
                                     + std::to_string(2 + kShards));
        for (std::size_t i = 0; i < tids.size(); ++i) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(i == 0 ? 0 : static_cast<int>(i - 1) % (cpus - 1),
                    &set);
            ::sched_setaffinity(tids[i], sizeof set, &set);
        }
    }

    double peakRss() const { return peakRssMb(pid_); }

    /** SIGTERM, wait for the audited drain; returns the exit code
     *  (-1 on a signal or timeout). */
    int stop()
    {
        ::kill(pid_, SIGTERM);
        double give_up = nowUs() + 60e6;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowUs() > give_up) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return -1;
            }
            ::usleep(2000);
        }
        pid_ = -1;
        out = slurp(outPath_);
        err = slurp(errPath_);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** One counter from the daemon's drain stats line. */
    double stat(const char *key) const
    {
        std::smatch m;
        std::regex re(std::string(key) + "=([0-9]+)");
        return std::regex_search(err, m, re) ? std::stod(m[1]) : -1.0;
    }

    std::string out;
    std::string err;

  private:
    static std::string slurp(const std::string &path)
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    mutable pid_t pid_ = -1;
    std::string sock_;
    std::string outPath_;
    std::string errPath_;
};

/** Driver-side per-layer rows shared by both daemon workloads:
 *  lateness, busy share, and the share of a phase's requests that
 *  failed, went unanswered or exceeded their latency limit. */
template <typename Limit>
void
driverLayers(const std::deque<Record> &recs, double busy_us,
             double wall_us, int phase, Limit limit_us, Metrics &layers)
{
    std::vector<double> late;
    std::size_t sent = 0, missed = 0;
    for (const Record &r : recs) {
        if (r.phase != phase)
            continue;
        ++sent;
        late.push_back(r.lateUs());
        if (r.recv < 0.0 || !r.ok || r.latencyUs() > limit_us(r))
            ++missed;
    }
    layers.set("driver.late_us_tail", percentile(late, 99.0), "us");
    layers.set("driver.busy_frac", busy_us / wall_us, "frac");
    layers.set("driver.slo_miss_frac",
               sent ? static_cast<double>(missed)
                       / static_cast<double>(sent)
                    : 0.0,
               "frac");
}

/** Protocol costs over the recorded wire bytes of one phase. */
void
protocolLayers(const std::deque<Record> &recs, int phase,
               Metrics &layers)
{
    Scope span("protocol.replay");
    double parse_us = 0.0, dump_us = 0.0, frame_us = 0.0;
    double req_bytes = 0.0, resp_bytes = 0.0;
    std::size_t n = 0;
    for (const Record &r : recs) {
        if (r.phase != phase || r.respPayload.empty())
            continue;
        double a = nowUs();
        auto doc = cash::service::parseJson(r.reqPayload);
        std::string err, detail;
        std::uint64_t id = 0;
        auto req = doc ? cash::service::parseRequest(*doc, &err, &detail,
                                                     &id)
                       : std::nullopt;
        double b = nowUs();
        parse_us += b - a;
        (void)req;
        auto resp = cash::service::parseJson(r.respPayload);
        double c = nowUs();
        std::string dumped = resp ? resp->dump() : std::string();
        double d = nowUs();
        dump_us += d - c;
        std::string frame = cash::service::encodeFrame(r.respPayload);
        cash::service::FrameDecoder dec;
        dec.feed(frame.data(), frame.size());
        auto back = dec.next();
        frame_us += nowUs() - d;
        (void)back;
        req_bytes += static_cast<double>(r.reqPayload.size());
        resp_bytes += static_cast<double>(r.respPayload.size());
        ++n;
    }
    double dn = n ? static_cast<double>(n) : 1.0;
    layers.set("protocol.parse_ns", parse_us * 1e3 / dn, "ns/msg");
    layers.set("protocol.dump_ns", dump_us * 1e3 / dn, "ns/msg");
    layers.set("protocol.frame_ns", frame_us * 1e3 / dn, "ns/msg");
    layers.set("protocol.req_bytes", req_bytes / dn, "B/msg");
    layers.set("protocol.resp_bytes", resp_bytes / dn, "B/msg");
}

/** Daemon counters from the drain stats line. */
void
daemonLayers(const Daemon &d, Metrics &layers)
{
    std::smatch m;
    std::regex re("([0-9]+) request\\(s\\) over [0-9]+ connection\\(s\\) "
                  "in ([0-9]+) batch");
    if (std::regex_search(d.err, m, re))
        layers.set("service.requests_per_batch",
                   std::stod(m[1]) / std::max(1.0, std::stod(m[2])),
                   "req/batch");
    layers.set("service.queue_full", d.stat("queue_full"), "count");
    layers.set("service.protocol_errors", d.stat("protocol_errors"),
               "count");
    layers.set("cloud.migrations", d.stat("migrations"), "count");
}

/** Common end: SIGTERM drain must exit 0 with an ok report. The
 *  benchmark gets every CPU back for the twin. */
std::optional<JsonValue>
stopDaemon(Daemon &d, Outcome &out)
{
    int code = d.stop();
    setAffinity(0, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
    out.check(code == 0, "daemon drain exit code "
                             + std::to_string(code));
    std::string line = d.out;
    while (!line.empty() && (line.back() == '\n'))
        line.pop_back();
    auto report = cash::service::parseJson(line);
    out.check(report && report->getBool("ok").value_or(false),
              "daemon drain report not ok");
    return report;
}

cash::cloud::ProviderParams
daemonParams()
{
    // What cash_serviced runs with: arrivals only through requests.
    cash::cloud::ProviderParams p;
    p.arrivalProb = 0.0;
    return p;
}

cash::cloud::RebalanceParams
noRebalance()
{
    cash::cloud::RebalanceParams r;
    r.enabled = false;
    return r;
}

/** Poisson schedule: the next due time after `prev` at `rate`/s. */
double
nextDue(cash::Rng &rng, double prev, double rate)
{
    return prev + rng.nextExponential(rate) * 1e6;
}

/**
 * Host-speed probes (probe.hh) on CPUs 0..n-1, run only while the
 * daemon has no step to run: between setups, and right after a step is
 * answered. The median of the readings taken in a stretch of the run
 * scales the times measured in it to the reference host speed.
 */
class DaemonProbes
{
  public:
    explicit DaemonProbes(int cpus)
    {
        cpus = std::min(cpus, onlineCpus());
        for (int c = 0; c < cpus; ++c)
            probes_.push_back(std::make_unique<PinnedProbe>(c));
    }

    /** Probe every CPU now, without waiting. */
    void trigger()
    {
        for (auto &p : probes_)
            p->trigger();
    }

    /** Probe every CPU now, one after another, and wait. */
    void measure()
    {
        Scope s("host.probe");
        for (auto &p : probes_)
            p->measure();
    }

    /** Stop probing; the median reading is host.load_ns. */
    void finish(Metrics &layers)
    {
        std::vector<double> all;
        for (auto &p : probes_)
            for (const ProbeReading &r : p->finish()) {
                readings_.push_back(r);
                all.push_back(r.ns);
            }
        layers.set("host.load_ns", median(all), "ns/load");
    }

    /** After finish(): the scale of the median reading taken in
     *  [from_us, to_us), or of every reading when none was. */
    double scale(double from_us, double to_us) const
    {
        std::vector<double> in, all;
        for (const ProbeReading &r : readings_) {
            all.push_back(r.ns);
            if (r.us >= from_us && r.us < to_us)
                in.push_back(r.ns);
        }
        return refScale(median(in.empty() ? all : in));
    }

  private:
    std::vector<std::unique_ptr<PinnedProbe>> probes_;
    std::vector<ProbeReading> readings_;
};

} // namespace

// ------------------------------------------------------------------
// svc_mixed
// ------------------------------------------------------------------

namespace
{

/** Instructions committed so far by every active tenant. */
std::uint64_t
committedInsts(const cash::service::RegionCore &twin)
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < twin.shards(); ++s) {
        const cash::cloud::CloudProvider &p = twin.provider(s);
        for (const auto &t : p.tenants())
            if (t->state == cash::cloud::TenantState::Active)
                n += p.chip().vcore(t->vcore).meta().totalCommitted;
    }
    return n;
}

std::uint64_t
rinMessages(const cash::service::RegionCore &twin)
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < twin.shards(); ++s)
        n += twin.provider(s).chip().rinMessages();
    return n;
}

bool
nearlyEqual(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/** Bills equal: money and tallies exactly, joules to 1e-9 (the
 *  energy meter accrues lazily, so extra reads may regroup its
 *  floating-point sum). */
bool
sameBill(const JsonValue &a, const JsonValue &b)
{
    for (const auto &[k, v] : a.members()) {
        const JsonValue *w = b.find(k);
        if (!w)
            return false;
        if (k == "joules" || k == "energy_bill") {
            if (!nearlyEqual(v.number(), w->number()))
                return false;
        } else if (v.dump() != w->dump()) {
            return false;
        }
    }
    return a.members().size() == b.members().size();
}

} // namespace

int
runSvcMixed(const Options &opt, Metrics &e2e, Metrics &layers,
            Outcome &out)
{
    // The population is part of the workload, not of its seed:
    // catalog classes 0..7, in this order. The seed drives the query
    // stream and the step clock's phase.
    cash::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 5);
    std::vector<std::uint32_t> classes;
    for (std::uint32_t i = 0; i < kTenants; ++i)
        classes.push_back(i % kCatalogClasses);

    // Probes and steal time on the sim threads' CPUs: a step's time is
    // theirs. Unpinned (fewer than 4 CPUs), steal time of every CPU.
    DaemonProbes probes(kShards);
    int sim_cpus = onlineCpus() >= 4 ? static_cast<int>(kShards)
                                     : onlineCpus();
    // Setup: start the daemon, place the population and run the
    // warm-up steps, several times; the last daemon runs the workload.
    // The warm-up steps make set-up mostly simulator time, which the
    // probe scales; daemon start alone (~10 ms of fork, exec and
    // connect) moved by 50% between sets of runs.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    std::vector<JsonValue> arrive_resps;
    double setup_start = nowUs();
    CpuTicks setup_ticks = cpuTicks(0, sim_cpus);
    for (int i = 0; i < kSetups; ++i) {
        if (daemon)
            daemon->stop();
        Scope s("setup.daemon");
        double t0 = nowUs();
        daemon = std::make_unique<Daemon>(
            opt, std::vector<std::string>{"--placement", "spread"}, i);
        cash::service::ServiceClient c(daemon->connect());
        arrive_resps.clear();
        for (std::uint32_t cls : classes) {
            arrive_resps.push_back(c.arrive(cls, kResidence));
            // A fan-out barrier: both shards have published their
            // load after the arrive, so placement is deterministic.
            c.snapshot();
        }
        // Every daemon thread exists once a request was answered.
        daemon->pinThreads();
        for (int k = 0; k < kWarmSteps; ++k)
            c.step(1);
        setup_s.push_back((nowUs() - t0) / 1e6);
        c.close();
        probes.measure();
    }
    double setup_end = nowUs();
    double setup_steal = stealScale(setup_ticks, cpuTicks(0, sim_cpus));
    std::vector<std::uint32_t> tenants;
    std::uint32_t per_shard[kShards] = {};
    for (const JsonValue &r : arrive_resps) {
        out.check(r.getBool("ok").value_or(false)
                      && r.getString("state").value_or("") == "active",
                  "tenant not admitted: " + r.dump());
        tenants.push_back(
            static_cast<std::uint32_t>(r.getUint("tenant").value_or(0)));
        ++per_shard[r.getUint("shard").value_or(0) % kShards];
    }
    out.check(per_shard[0] > 0 && per_shard[1] > 0,
              "population not on both shards");
    for (const char *st : {"active", "queued", "rejected"}) {
        double n = 0.0;
        for (const JsonValue &r : arrive_resps)
            n += r.getString("state").value_or("") == st ? 1.0 : 0.0;
        std::string name = std::string(st) == "active" ? "admit"
            : std::string(st) == "queued"              ? "queue"
                                                        : "reject";
        layers.set("cloud.arrive." + name + "_frac",
                   n / static_cast<double>(arrive_resps.size()), "frac");
    }

    std::vector<int> fds;
    for (std::uint32_t k = 0; k < kSessions; ++k)
        fds.push_back(daemon->connect());

    OpenLoopDriver drv(fds, opt.trace);
    // Both shards are idle once a step is answered.
    auto on_resp = [&](Record &r, const JsonValue &) {
        if (r.op == Op::Step)
            probes.trigger();
    };
    double start = nowUs();
    double end = start + opt.seconds * 1e6;
    std::size_t nseg = static_cast<std::size_t>(
        std::max(1.0, std::floor(opt.seconds / kSegmentS)));
    double seg_us = (end - start) / static_cast<double>(nseg);
    // Steal time at each segment boundary.
    std::vector<CpuTicks> seg_ticks{cpuTicks(0, sim_cpus)};
    // Steps tick periodically, like a provider's quantum clock, from
    // a seeded phase; queries arrive as a Poisson stream.
    double step_due = start + rng.nextDouble() * 1e6 / kStepRate;
    double query_due = nextDue(rng, start, kQueryRate);
    std::uint64_t q_rr = 0;
    auto plan = [&](double now) -> std::optional<Planned> {
        while (seg_ticks.size() <= nseg
               && now >= start + static_cast<double>(seg_ticks.size())
                       * seg_us)
            seg_ticks.push_back(cpuTicks(0, sim_cpus));
        Planned p;
        if (step_due <= query_due) {
            p.due = step_due;
            p.session = 0;
            p.req.op = Op::Step;
            p.req.quanta = 1;
            step_due += 1e6 / kStepRate;
        } else {
            p.due = query_due;
            p.session = static_cast<std::uint32_t>(1 + q_rr++ % 3);
            p.req.op = Op::Query;
            p.req.tenant = tenants[rng.nextBounded(tenants.size())];
            query_due = nextDue(rng, query_due, kQueryRate);
        }
        if (p.due >= end)
            return std::nullopt;
        return p;
    };
    int timed_span = -1;
    bool all_answered;
    {
        Scope timed("bench.svc_mixed");
        timed_span = timed.index();
        all_answered = drv.run(plan, on_resp, 30e6, 1);
    }
    probes.finish(layers);
    while (seg_ticks.size() <= nseg)
        seg_ticks.push_back(cpuTicks(0, sim_cpus));
    out.check(all_answered, "unanswered requests: "
                                + std::to_string(drv.outstanding()));
    out.check(drv.duplicates() == 0 && drv.strays() == 0,
              "duplicate or stray answers");
    out.check(!drv.broken(), "a session broke");
    std::vector<double> step_ms, query_ms;
    std::vector<const Record *> steps, queries;
    for (const Record &r : drv.records()) {
        ++out.attempted;
        if (r.recv < 0.0 || !r.ok) {
            ++out.failed;
            out.check(false, "request " + std::to_string(r.id) + " failed: "
                                 + r.error);
            continue;
        }
        if (r.op == Op::Step) {
            step_ms.push_back(r.latencyUs() / 1e3);
            steps.push_back(&r);
        } else {
            query_ms.push_back(r.latencyUs() / 1e3);
            queries.push_back(&r);
        }
    }

    // Final state over the wire, then the audited drain.
    drv.closeSessions();
    std::vector<JsonValue> final_queries;
    JsonValue final_snapshot;
    {
        cash::service::ServiceClient c(daemon->connect());
        for (std::uint32_t t : tenants)
            final_queries.push_back(c.query(t));
        final_snapshot = c.snapshot();
        c.close();
    }
    double rss = daemon->peakRss();
    const std::deque<Record> &records = drv.records();
    auto report = stopDaemon(*daemon, out);

    // Twin: the same mutating sequence in-process. Queries are
    // replayed only when traced, to time them; they do not mutate.
    cash::service::RegionCore twin(daemonParams(), kShards, false,
                                   cash::cloud::PlacementPolicy::Spread,
                                   noRebalance());
    std::vector<double> round_ms[kShards];
    std::vector<double> step_apply_ms, query_apply_us;
    /** Instructions committed in each step, in the order of `steps`. */
    std::vector<std::uint64_t> step_insts;
    double round_total_us = 0.0;
    std::uint64_t tenant_quanta = 0, insts_total = 0, rin0 = 0;
    {
        Scope tw("bench.twin");
        for (std::size_t i = 0; i < classes.size(); ++i) {
            Request req;
            req.id = arrive_resps[i].getUint("id").value_or(0);
            req.op = Op::Arrive;
            req.cls = classes[i];
            req.residence = kResidence;
            JsonValue resp = twin.apply(req);
            out.check(resp.dump() == arrive_resps[i].dump(),
                      "twin arrive differs: " + resp.dump() + " vs "
                          + arrive_resps[i].dump());
        }
        Request step;
        step.op = Op::Step;
        step.quanta = 1;
        for (int k = 0; k < kWarmSteps; ++k)
            twin.apply(step);
        rin0 = rinMessages(twin);
        for (const Record &r : records) {
            if (r.recv < 0.0 || !r.ok)
                continue;
            if (r.op == Op::Query) {
                if (!opt.trace)
                    continue;
                Request q;
                q.op = Op::Query;
                auto doc = cash::service::parseJson(r.reqPayload);
                q.tenant = static_cast<std::uint32_t>(
                    doc ? doc->getUint("tenant").value_or(0) : 0);
                Scope ap("service.apply_query", r.id);
                double a = nowUs();
                twin.apply(q);
                query_apply_us.push_back(nowUs() - a);
                continue;
            }
            // A step: the shards' parts run in parallel, as on the
            // daemon's two sim threads, each timed on its own. The
            // providers share no state.
            std::uint64_t i0 = committedInsts(twin);
            double t0[kShards], t1[kShards];
            auto part = [&](std::uint32_t s) {
                t0[s] = nowUs();
                twin.core(s).apply(step);
                t1[s] = nowUs();
            };
            {
                Scope ap("service.step", r.id);
                std::thread other(part, 1);
                part(0);
                other.join();
                for (std::uint32_t s = 0; s < kShards; ++s)
                    Tracer::get().addChild("cloud.round", t0[s], t1[s],
                                           r.id);
            }
            double worst = 0.0;
            for (std::uint32_t s = 0; s < kShards; ++s) {
                double us = t1[s] - t0[s];
                round_ms[s].push_back(us / 1e3);
                round_total_us += us;
                worst = std::max(worst, us);
            }
            step_apply_ms.push_back(worst / 1e3);
            std::uint64_t di = committedInsts(twin) - i0;
            insts_total += di;
            step_insts.push_back(di);
            tenant_quanta += twin.provider(0).activeTenants().size()
                + twin.provider(1).activeTenants().size();
        }
    }

    // Share of the tenants' simulated time lost to reconfiguration.
    double stall = 0.0, clock = 0.0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
        const cash::cloud::CloudProvider &p = twin.provider(s);
        for (cash::cloud::TenantId id : p.activeTenants()) {
            cash::VCoreMeta m =
                p.chip().vcore(p.tenants()[id]->vcore).meta();
            stall += static_cast<double>(m.reconfigStallCycles);
            clock += static_cast<double>(m.clock);
        }
    }
    double stall_frac = clock > 0.0 ? stall / clock : 0.0;

    // Exact outcomes: every final query, the snapshot and the bills.
    std::uint64_t daemon_tq = 0, twin_tq = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Request q;
        q.id = final_queries[i].getUint("id").value_or(0);
        q.op = Op::Query;
        q.tenant = tenants[i];
        JsonValue mine = twin.apply(q);
        daemon_tq += final_queries[i].getUint("active_rounds").value_or(0);
        twin_tq += mine.getUint("active_rounds").value_or(0);
        out.check(sameBill(mine, final_queries[i]),
                  "tenant " + std::to_string(tenants[i]) + " differs: "
                      + mine.dump() + " vs " + final_queries[i].dump());
    }
    out.check(daemon_tq == twin_tq, "tenant-quanta differ");
    Request snap;
    snap.op = Op::Snapshot;
    JsonValue twin_snap = twin.apply(snap);
    out.check(twin_snap.getNumber("revenue")
                  == final_snapshot.getNumber("revenue"),
              "region revenue differs: " + twin_snap.dump() + " vs "
                  + final_snapshot.dump());
    JsonValue twin_report = twin.drainReport();
    if (report) {
        out.check(twin_report.getNumber("revenue")
                      == report->getNumber("revenue"),
                  "drain revenue differs");
        const JsonValue *a = twin_report.find("bills");
        const JsonValue *b = report->find("bills");
        bool same = a && b && a->items().size() == b->items().size();
        for (std::size_t i = 0; same && i < a->items().size(); ++i)
            same = sameBill(a->items()[i], b->items()[i]);
        out.check(same, "drain bills differ");
    }
    double migrations = daemon->stat("migrations");
    out.check(migrations == 0.0 && twin.stats().migrations == 0,
              "tenants migrated");

    // End-to-end times at the reference host speed and without the
    // host's steal time, per segment, then the median over segments;
    // the per-layer times stay as measured.
    auto segOf = [&](const Record *r) {
        return std::min(nseg - 1,
                        static_cast<std::size_t>((r->due - start) / seg_us));
    };
    std::vector<std::vector<double>> seg_step(nseg), seg_query(nseg);
    std::vector<double> seg_insts(nseg, 0.0), seg_step_s(nseg, 0.0);
    std::vector<double> seg_scale(nseg);
    for (std::size_t g = 0; g < nseg; ++g)
        seg_scale[g] = probes.scale(start + g * seg_us,
                                    start + (g + 1) * seg_us)
            * stealScale(seg_ticks[g], seg_ticks[g + 1]);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        std::size_t g = segOf(steps[i]);
        double ms = steps[i]->latencyUs() * seg_scale[g] / 1e3;
        seg_step[g].push_back(ms);
        seg_step_s[g] += ms / 1e3;
        if (i < step_insts.size())
            seg_insts[g] += static_cast<double>(step_insts[i]);
    }
    for (const Record *r : queries) {
        std::size_t g = segOf(r);
        seg_query[g].push_back(r->latencyUs() * seg_scale[g] / 1e3);
    }
    auto overSegments = [&](auto figure) {
        std::vector<double> v;
        for (std::size_t g = 0; g < nseg; ++g)
            v.push_back(figure(g));
        return median(v);
    };
    e2e.set("setup_s",
            median(setup_s) * probes.scale(setup_start, setup_end)
                * setup_steal,
            "s");
    e2e.set("peak_rss_mb", rss, "MB");
    e2e.set("lat_p50_ms", overSegments([&](std::size_t g) {
                return percentile(seg_step[g], 50.0);
            }),
            "ms");
    e2e.set("lat_tail_ms", overSegments([&](std::size_t g) {
                return percentile(seg_step[g], kStepTailPct);
            }),
            "ms");
    e2e.set("side_ms", overSegments([&](std::size_t g) {
                return percentile(seg_query[g], kQueryTailPct);
            }),
            "ms");
    // Simulated instructions per second of step latency.
    e2e.set("rate_per_s", overSegments([&](std::size_t g) {
                return seg_step_s[g] > 0.0 ? seg_insts[g] / seg_step_s[g]
                                           : 0.0;
            }),
            "1/s");
    std::printf("svc_mixed: %zu steps at %.1f/s, %zu queries at %.0f/s, "
                "%u+%u tenants; step apply p50 %.1f ms\n",
                step_ms.size(), kStepRate, query_ms.size(), kQueryRate,
                per_shard[0], per_shard[1], median(step_apply_ms));

    driverLayers(records, drv.busyUs(), drv.wallUs(), 1,
                 [](const Record &r) {
                     return 1e3 * (r.op == Op::Step ? kStepLimitMs
                                                    : kQueryLimitMs);
                 },
                 layers);
    daemonLayers(*daemon, layers);
    layers.set("frontend.query.p50_us", percentile(query_ms, 50.0) * 1e3,
               "us/req");
    layers.set("frontend.query.tail_us",
               percentile(query_ms, kQueryTailPct) * 1e3,
               "us/req");
    layers.set("service.apply_ms.step", median(step_apply_ms), "ms/step");
    for (std::uint32_t s = 0; s < kShards; ++s)
        layers.set("cloud.round_ms.shard" + std::to_string(s),
                   median(round_ms[s]), "ms/round");
    if (tenant_quanta) {
        layers.set("cloud.us_per_tenant_quantum",
                   round_total_us / static_cast<double>(tenant_quanta),
                   "us/tq");
        layers.set("cloud.rin_msgs_per_tenant_quantum",
                   static_cast<double>(rinMessages(twin) - rin0)
                       / static_cast<double>(tenant_quanta),
                   "msg/tq");
    }
    if (insts_total)
        layers.set("cloud.ns_per_inst",
                   round_total_us * 1e3 / static_cast<double>(insts_total),
                   "ns/inst");
    layers.set("cloud.reconfig_stall_frac", stall_frac, "frac");
    layers.set("cloud.qos_delivery",
               final_snapshot.getNumber("qos_delivery").value_or(0.0), "frac");
    layers.set("cloud.revenue",
               final_snapshot.getNumber("revenue").value_or(0.0), "USD");
    if (opt.trace) {
        double q50 = percentile(query_apply_us, 50.0);
        layers.set("service.apply_us.query", q50, "us/req");
        layers.set("service.wire_us.query",
                   percentile(query_ms, 50.0) * 1e3 - q50, "us/req");
        layers.set("cloud.query_wait_ms",
                   percentile(query_ms, kQueryTailPct) - q50 / 1e3,
                   "ms/req");
        protocolLayers(records, 1, layers);
    }
    return timed_span;
}

} // namespace pb
