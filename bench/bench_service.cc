/**
 * @file
 * Service front-end under concurrent load: the daemon stack
 * (ServiceServer + ServiceCore + wire protocol) exercised loopback,
 * in-process, over a (sessions x arrival-rate x shards) grid.
 *
 * One cell per grid point: a fresh region (ServiceServer owning
 * `shards` providers) on its own Unix socket, driven by
 * service/loadgen.hh with that cell's session count and open-loop
 * send rate, then drained (final bills + billing-conservation
 * audit, aggregated across shards) through stop().
 *
 * Determinism contract: the *request interleaving* across sessions
 * is scheduling-dependent, so per-cell provider economics are not
 * reproducible — what IS invariant is the response-accounting
 * contract, and that is all stdout/CSV reports: every sent request
 * produced exactly one response (acked == sent, dropped == 0), no
 * session failed, and the post-drain audit passed. Those values are
 * byte-identical at any CASH_BENCH_THREADS, which keeps this bench
 * inside the engine determinism gate. Timing (latency percentiles,
 * throughput, queue_full counts — all host-dependent) goes to
 * stderr only.
 *
 *   CASH_BENCH_FAST=1 shrinks the grid and per-session requests.
 */

#include <cstdio>
#include <unistd.h>
#include <vector>

#include "bench_util.hh"
#include "cloud/provider.hh"
#include "service/loadgen.hh"
#include "service/server.hh"

using namespace cash;

namespace
{

struct CellResult
{
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t queueFull = 0; ///< stderr only (host-dependent)
    unsigned failedSessions = 0;
    bool drained = false; ///< drain report ok + audit passed
    double latP50Us = 0.0;
    double latP90Us = 0.0;
    double reqPerSec = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    // The per-cell host-throughput lines go to stderr via inform();
    // tools/perf_trajectory.sh scrapes them, so force Info level.
    setLogLevel(LogLevel::Info);
    bench::TraceOptions trace_opts(argc, argv);

    const unsigned session_grid[] = {4, 16, 64};
    const double rate_grid[] = {0.0, 2000.0}; // 0 = unpaced
    const unsigned shard_grid[] = {1, 4};
    const unsigned requests = bench::fastMode() ? 12 : 40;

    struct Point
    {
        std::size_t s, r, h;
    };
    std::vector<Point> points;
    for (std::size_t s = 0; s < std::size(session_grid); ++s)
        for (std::size_t r = 0; r < std::size(rate_grid); ++r)
            for (std::size_t h = 0; h < std::size(shard_grid); ++h)
                points.push_back({s, r, h});

    harness::ExperimentEngine engine;
    std::vector<CellResult> results = engine.map<CellResult>(
        points.size(),
        [&](std::size_t i) {
            const Point &pt = points[i];

            cloud::ProviderParams pp;
            pp.arrivalProb = 0.0; // arrivals only via requests
            pp.quantum = 200'000; // cheap steps: this bench
                                  // measures the front-end
            pp.seed = 0x5EED + i;

            service::ServerConfig sc;
            sc.unixPath = strfmt("/tmp/cash_bench_svc.%d.%zu.sock",
                                 static_cast<int>(::getpid()), i);
            sc.shards = shard_grid[pt.h];
            service::ServiceServer server(pp, sc);
            server.start();

            service::LoadConfig lc;
            lc.unixPath = sc.unixPath;
            lc.sessions = session_grid[pt.s];
            lc.requests = requests;
            lc.rate = rate_grid[pt.r];
            lc.window = 4;
            lc.seed = 0xCA5 + i;
            lc.classes = static_cast<unsigned>(
                server.provider(0).params().catalog.size());
            lc.stepProb = 0.10;
            service::LoadReport rep = service::runLoad(lc);

            // The SIGTERM path: drain the provider (final bills,
            // billing-conservation audit inside drainReport) and
            // flush. An audit failure throws out of stop() and
            // fails the cell.
            server.stop();

            CellResult r;
            r.sent = rep.sent;
            r.received = rep.received;
            r.queueFull = rep.queueFull;
            r.failedSessions = rep.failedSessions;
            r.drained = server.finalReport()
                            .getBool("ok")
                            .value_or(false);
            r.latP50Us = rep.latP50Us;
            r.latP90Us = rep.latP90Us;
            r.reqPerSec = rep.elapsedSec > 0.0
                ? static_cast<double>(rep.received)
                    / rep.elapsedSec
                : 0.0;
            return r;
        },
        [&](std::size_t i) {
            const Point &pt = points[i];
            return harness::CellKey{
                strfmt("%u-sessions-%u-shards", session_grid[pt.s],
                       shard_grid[pt.h]),
                rate_grid[pt.r] == 0.0 ? "unpaced" : "paced",
                i, 0x5EED};
        });

    std::printf("=== Service front-end: response accounting under "
                "concurrent load ===\n");
    std::printf("%u requests/session, window 4, one daemon per "
                "cell, drain-on-stop\n",
                requests);
    std::printf("  %-9s %-8s %7s %7s %7s %7s %7s %8s\n",
                "sessions", "pacing", "shards", "sent", "acked",
                "dropped", "failed", "drained");

    bench::CsvSink csv("service",
                       {"sessions", "pacing", "shards", "requests",
                        "sent", "acked", "dropped",
                        "failed_sessions", "drained"});

    bool contract_held = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &pt = points[i];
        const CellResult &r = results[i];
        const char *pacing =
            rate_grid[pt.r] == 0.0 ? "unpaced" : "2000/s";
        std::uint64_t dropped = r.sent - r.received;
        std::printf("  %-9u %-8s %7u %7llu %7llu %7llu %7u %8s\n",
                    session_grid[pt.s], pacing, shard_grid[pt.h],
                    static_cast<unsigned long long>(r.sent),
                    static_cast<unsigned long long>(r.received),
                    static_cast<unsigned long long>(dropped),
                    r.failedSessions, r.drained ? "yes" : "NO");
        csv.row({std::to_string(session_grid[pt.s]), pacing,
                 std::to_string(shard_grid[pt.h]),
                 std::to_string(requests),
                 std::to_string(r.sent), std::to_string(r.received),
                 std::to_string(dropped),
                 std::to_string(r.failedSessions),
                 r.drained ? "yes" : "no"});
        if (dropped != 0 || r.failedSessions != 0 || !r.drained)
            contract_held = false;
        // Host timing: stderr only, stdout stays deterministic.
        inform("service %u sessions %s x%u shards: %.0f req/s, "
               "latency us p50=%.0f p90=%.0f, queue_full=%llu",
               session_grid[pt.s], pacing, shard_grid[pt.h],
               r.reqPerSec, r.latP50Us, r.latP90Us,
               static_cast<unsigned long long>(r.queueFull));
    }

    std::printf("\ncontract: every request answered exactly once, "
                "clean drains: %s\n",
                contract_held ? "HELD" : "VIOLATED");

    bench::finishBench(engine, "service");
    return contract_held ? 0 : 1;
}
