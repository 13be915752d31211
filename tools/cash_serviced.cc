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
 *   cash_serviced --unix s.sock --queue-cap 64 --idle-timeout-ms 30000
 *   cash_serviced --unix s.sock --shards 4 --placement spread \
 *       --migrate-frag 1.5
 *
 * One IO thread serves every connection from one epoll loop; each
 * shard has its own simulation thread (service/server.hh).
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
 * binary (trace/options.hh). A malformed or out-of-range flag value
 * exits 2 before the daemon listens.
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
#include "common/flags.hh"
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

        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (!std::strcmp(arg, "--unix")) {
                cfg.unixPath = value();
            } else if (!std::strcmp(arg, "--tcp")) {
                cfg.listenTcp = true;
                cfg.tcpPort = parseFlag<std::uint16_t>(arg, value());
            } else if (!std::strcmp(arg, "--queue-cap")) {
                cfg.queueCapacity =
                    parseFlag<std::size_t>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--idle-timeout-ms")) {
                cfg.idleTimeoutMs = parseFlag<int>(arg, value(), 0);
            } else if (!std::strcmp(arg, "--audit")) {
                cfg.audit = true;
            } else if (!std::strcmp(arg, "--seed")) {
                params.seed = parseFlag<std::uint64_t>(arg, value());
            } else if (!std::strcmp(arg, "--quantum")) {
                // Zero parses; the provider refuses it.
                params.quantum = parseFlag<Cycle>(arg, value());
            } else if (!std::strcmp(arg, "--sampled")) {
                // Sampled simulation (sim/sampler.hh): steady
                // phases fast-forward; final bills are flagged
                // "estimated" in the drain report.
                params.simMode = SimMode::Sampled;
            } else if (!std::strcmp(arg, "--rows")) {
                params.fabric.rows =
                    parseFlag<std::uint32_t>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--shards")) {
                cfg.shards = parseFlag<std::uint32_t>(
                    arg, value(), 1, cloud::kMaxShards);
            } else if (!std::strcmp(arg, "--placement")) {
                const char *name = value();
                auto p = cloud::placementPolicyFromName(name);
                if (!p)
                    fatal("--placement must be binpack or spread, "
                          "got '%s'",
                          name);
                cfg.placement = *p;
            } else if (!std::strcmp(arg, "--migrate-frag")) {
                cfg.rebalance.fragThreshold =
                    parseFlag<double>(arg, value(), 0.0);
            } else if (!std::strcmp(arg, "--migrate-imbalance")) {
                cfg.rebalance.imbalanceThreshold =
                    parseFlag<double>(arg, value(), 0.0);
            } else if (!std::strcmp(arg, "--migrate-cooldown")) {
                cfg.rebalance.cooldownRounds =
                    parseFlag<std::uint64_t>(arg, value());
            } else if (!std::strcmp(arg, "--no-rebalance")) {
                cfg.rebalance.enabled = false;
            } else {
                fatal("unknown flag '%s' (see --unix, --tcp, "
                      "--queue-cap, --idle-timeout-ms, --audit, "
                      "--seed, --quantum, --sampled, --rows, "
                      "--shards, --placement, --migrate-frag, "
                      "--migrate-imbalance, --migrate-cooldown, "
                      "--no-rebalance, --trace, --metrics)",
                      arg);
            }
        }

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

        auto &reg = trace::MetricsRegistry::global();
        auto count = [&reg](const char *name) {
            return static_cast<unsigned long long>(
                reg.counter(name).value());
        };
        const service::RegionStats rs = server.regionStats();
        inform("cash_serviced: %llu request(s) over %llu "
               "connection(s) in %llu batch(es); queue_full=%llu "
               "protocol_errors=%llu idle_closed=%llu "
               "migrations=%llu rebalances=%llu",
               count("service.requests"), count("service.accepted"),
               static_cast<unsigned long long>(
                   reg.histogram("service.batch_size").count()),
               count("service.queue_full"),
               count("service.protocol_errors"),
               count("service.idle_closed"),
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
