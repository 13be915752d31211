/**
 * @file
 * cash_serviced: a region of CASH chips as a long-running daemon.
 *
 * Serves one CloudProvider per shard (--shards N; default one, the
 * legacy single-chip daemon) over the length-prefixed JSON protocol
 * (service/protocol.hh) on a Unix-domain socket and/or loopback TCP:
 *
 *   cash_serviced --unix /tmp/cash.sock
 *   cash_serviced --tcp 0            # ephemeral port, printed
 *   cash_serviced --unix s.sock --queue-cap 64 --deadline-ms 200
 *   cash_serviced --unix s.sock --shards 4 --io-threads 2 \
 *       --placement spread --migrate-frag 1.5
 *
 * Each provider's stochastic arrival stream is off: every tenant
 * enters and leaves through requests, so each shard's state is a
 * pure function of its applied request sequence (DESIGN.md §10-11).
 * Arrivals are placed across the shards by the PlacementRouter;
 * tenants migrate between shards on request (op "migrate") or when
 * the --migrate-* triggers fire.
 *
 * SIGTERM/SIGINT trigger the fleet-wide graceful drain: stop
 * accepting, apply everything already queued (migration chains
 * included), drain every shard (every tenant departed, billing
 * conservation audited), flush responses, then print the aggregated
 * region report — one JSON object with every shard's final bills —
 * to stdout and exit 0. --trace/--metrics work as on every other
 * binary (trace/options.hh).
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <string>
#include <unistd.h>

#include "check/invariant.hh"
#include "cloud/provider.hh"
#include "common/log.hh"
#include "service/server.hh"
#include "trace/options.hh"

namespace
{

/** Self-pipe the signal handler writes to; main poll()s on it. */
int g_sigPipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    char c = 's';
    [[maybe_unused]] ssize_t n = ::write(g_sigPipe[1], &c, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cash;

    try {
        // A daemon's status lines (listen address, drain progress,
        // request/migration counters) are operational output, not
        // debug chatter: force them on regardless of the library
        // default. Scripts grep the stats line from stderr.
        setLogLevel(LogLevel::Info);
        trace::TraceOptions topts(argc, argv);

        service::ServerConfig cfg;
        // Invariant builds (the sanitizer CI) audit billing
        // conservation at every applied request and stepped
        // quantum; --audit forces the same in any build.
        cfg.audit = invariantsEnabled;
        cloud::ProviderParams params;
        params.arrivalProb = 0.0; // arrivals only through requests

        auto need = [&argc](int i, const char *flag) {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
        };
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (!std::strcmp(arg, "--unix")) {
                need(i, arg);
                cfg.unixPath = argv[++i];
            } else if (!std::strcmp(arg, "--tcp")) {
                need(i, arg);
                cfg.listenTcp = true;
                cfg.tcpPort = static_cast<std::uint16_t>(
                    std::strtoul(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--queue-cap")) {
                need(i, arg);
                cfg.queueCapacity =
                    std::strtoul(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--max-batch")) {
                need(i, arg);
                cfg.maxBatch = std::strtoul(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--max-frame")) {
                need(i, arg);
                cfg.maxFrame = std::strtoul(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--idle-timeout-ms")) {
                need(i, arg);
                cfg.idleTimeoutMs = static_cast<int>(
                    std::strtol(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--deadline-ms")) {
                need(i, arg);
                cfg.requestDeadlineMs = static_cast<int>(
                    std::strtol(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--audit")) {
                cfg.audit = true;
            } else if (!std::strcmp(arg, "--seed")) {
                need(i, arg);
                params.seed =
                    std::strtoull(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--quantum")) {
                need(i, arg);
                params.quantum =
                    std::strtoull(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--coarse")) {
                params.provisioning =
                    cloud::Provisioning::CoarseGrain;
            } else if (!std::strcmp(arg, "--sampled")) {
                // Sampled simulation (sim/sampler.hh): steady
                // phases fast-forward; final bills are flagged
                // "estimated" in the drain report.
                params.simMode = SimMode::Sampled;
            } else if (!std::strcmp(arg, "--rows")) {
                need(i, arg);
                params.fabric.rows = static_cast<std::uint32_t>(
                    std::strtoul(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--shards")) {
                need(i, arg);
                cfg.shards = static_cast<std::uint32_t>(
                    std::strtoul(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--io-threads")) {
                need(i, arg);
                cfg.ioThreads = static_cast<std::uint32_t>(
                    std::strtoul(argv[++i], nullptr, 10));
            } else if (!std::strcmp(arg, "--placement")) {
                need(i, arg);
                auto p =
                    cloud::placementPolicyFromName(argv[++i]);
                if (!p)
                    fatal("--placement must be binpack or spread, "
                          "got '%s'",
                          argv[i]);
                cfg.placement = *p;
            } else if (!std::strcmp(arg, "--migrate-frag")) {
                need(i, arg);
                cfg.rebalance.fragThreshold =
                    std::strtod(argv[++i], nullptr);
            } else if (!std::strcmp(arg,
                                    "--migrate-imbalance")) {
                need(i, arg);
                cfg.rebalance.imbalanceThreshold =
                    std::strtod(argv[++i], nullptr);
            } else if (!std::strcmp(arg, "--migrate-cooldown")) {
                need(i, arg);
                cfg.rebalance.cooldownRounds =
                    std::strtoull(argv[++i], nullptr, 10);
            } else if (!std::strcmp(arg, "--no-rebalance")) {
                cfg.rebalance.enabled = false;
            } else {
                fatal("unknown flag '%s' (see --unix, --tcp, "
                      "--queue-cap, --max-batch, --max-frame, "
                      "--idle-timeout-ms, --deadline-ms, --audit, "
                      "--seed, --quantum, --coarse, --sampled, "
                      "--rows, --shards, --io-threads, --placement, "
                      "--migrate-frag, --migrate-imbalance, "
                      "--migrate-cooldown, --no-rebalance, "
                      "--trace, --metrics)",
                      arg);
            }
        }
        if (cfg.queueCapacity == 0 || cfg.maxBatch == 0)
            fatal("--queue-cap and --max-batch must be positive");

        if (::pipe(g_sigPipe) != 0)
            fatal("cannot create signal pipe: %s",
                  std::strerror(errno));

        service::ServiceServer server(params, cfg);

        struct sigaction sa{};
        sa.sa_handler = onSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        server.start();
        if (!cfg.unixPath.empty())
            inform("cash_serviced: listening on unix:%s",
                   cfg.unixPath.c_str());
        if (cfg.listenTcp)
            inform("cash_serviced: listening on tcp:127.0.0.1:%u",
                   server.tcpPort());

        // Block until SIGTERM/SIGINT.
        pollfd pfd{g_sigPipe[0], POLLIN, 0};
        while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
        }

        inform("cash_serviced: draining...");
        server.stop();

        const service::ServerStats &st = server.stats();
        const service::RegionStats rs = server.regionStats();
        inform("cash_serviced: %llu request(s) over %llu "
               "connection(s) in %llu batch(es); queue_full=%llu "
               "deadline_exceeded=%llu protocol_errors=%llu "
               "idle_closed=%llu migrations=%llu rebalances=%llu",
               static_cast<unsigned long long>(st.requests.load()),
               static_cast<unsigned long long>(st.accepted.load()),
               static_cast<unsigned long long>(st.batches.load()),
               static_cast<unsigned long long>(st.queueFull.load()),
               static_cast<unsigned long long>(
                   st.deadlineExceeded.load()),
               static_cast<unsigned long long>(
                   st.protocolErrors.load()),
               static_cast<unsigned long long>(
                   st.idleClosed.load()),
               static_cast<unsigned long long>(rs.migrations),
               static_cast<unsigned long long>(rs.rebalances));

        // The drain report — final bills, audited — is the daemon's
        // one piece of stdout.
        std::printf("%s\n", server.finalReport().dump().c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "cash_serviced: %s\n", e.what());
        return 2;
    }
}
