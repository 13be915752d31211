/**
 * @file
 * cash_loadgen: concurrent load against a cash_serviced daemon.
 *
 *   cash_loadgen --unix /tmp/cash.sock --sessions 64 --requests 200
 *   cash_loadgen --tcp 8423 --rate 500 --window 4 --seed 7
 *
 * Drives N concurrent sessions (service/loadgen.hh): each session
 * has its own connection, a seeded open-loop arrival process, a
 * bounded pipeline window, and a deterministic op mix of arrivals /
 * departures / queries / quantum steps / cross-shard migrations
 * (--migrate-prob, for daemons running --shards > 1). Prints the
 * interleaving-invariant contract line to stdout (sent == received,
 * dropped == 0) and the latency/throughput summary to stderr. With
 * --trace/--metrics, per-request latencies also land in the
 * `loadgen.latency_us` histogram of the metric registry.
 *
 * Exit status: 0 when every session completed and every request got
 * exactly one response; 1 otherwise; 2 on a bad flag (a malformed or
 * out-of-range number included).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.hh"
#include "common/log.hh"
#include "service/loadgen.hh"
#include "trace/options.hh"

int
main(int argc, char **argv)
{
    using namespace cash;

    try {
        // The latency/throughput summary goes to stderr via
        // inform(); raise the default Warn level so it shows.
        setLogLevel(LogLevel::Info);
        trace::TraceOptions topts(argc, argv);

        service::LoadConfig cfg;
        cfg.sessions = 8;
        cfg.requests = 64;
        cfg.classes = 11; // the default provider catalog

        auto parseProb = [](const char *flag, const char *text) {
            return parseFlag<double>(flag, text, 0.0, 1.0);
        };
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (!std::strcmp(arg, "--unix")) {
                cfg.unixPath = value();
            } else if (!std::strcmp(arg, "--tcp")) {
                cfg.tcpPort = parseFlag<std::uint16_t>(arg, value());
            } else if (!std::strcmp(arg, "--host")) {
                cfg.tcpHost = value();
            } else if (!std::strcmp(arg, "--sessions")) {
                cfg.sessions = parseFlag<unsigned>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--requests")) {
                cfg.requests = parseFlag<unsigned>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--rate")) {
                cfg.rate = parseFlag<double>(arg, value(), 0.0);
            } else if (!std::strcmp(arg, "--window")) {
                cfg.window = parseFlag<unsigned>(arg, value());
            } else if (!std::strcmp(arg, "--seed")) {
                cfg.seed = parseFlag<std::uint64_t>(arg, value());
            } else if (!std::strcmp(arg, "--classes")) {
                cfg.classes = parseFlag<unsigned>(arg, value());
            } else if (!std::strcmp(arg, "--depart-prob")) {
                cfg.departProb = parseProb(arg, value());
            } else if (!std::strcmp(arg, "--query-prob")) {
                cfg.queryProb = parseProb(arg, value());
            } else if (!std::strcmp(arg, "--step-prob")) {
                cfg.stepProb = parseProb(arg, value());
            } else if (!std::strcmp(arg, "--migrate-prob")) {
                cfg.migrateProb = parseProb(arg, value());
            } else if (!std::strcmp(arg, "--step-quanta")) {
                cfg.stepQuanta = parseFlag<std::uint32_t>(arg, value());
            } else if (!std::strcmp(arg, "--residence-max")) {
                cfg.residenceMax = parseFlag<std::uint32_t>(arg, value());
            } else {
                fatal("unknown flag '%s' (see --unix, --tcp, "
                      "--host, --sessions, --requests, --rate, "
                      "--window, --seed, --classes, --depart-prob, "
                      "--query-prob, --step-prob, --migrate-prob, "
                      "--step-quanta, --residence-max, --trace, "
                      "--metrics)",
                      arg);
            }
        }
        if (cfg.unixPath.empty() && cfg.tcpPort == 0)
            fatal("need a target: --unix <path> or --tcp <port>");

        service::LoadReport rep = service::runLoad(cfg);

        // The contract line: interleaving-invariant counts only.
        std::printf("loadgen: sessions=%u requests_per_session=%u "
                    "sent=%llu received=%llu ok=%llu "
                    "queue_full=%llu errors=%llu dropped=%llu "
                    "failed_sessions=%u\n",
                    cfg.sessions, cfg.requests,
                    static_cast<unsigned long long>(rep.sent),
                    static_cast<unsigned long long>(rep.received),
                    static_cast<unsigned long long>(rep.oks),
                    static_cast<unsigned long long>(rep.queueFull),
                    static_cast<unsigned long long>(
                        rep.otherErrors),
                    static_cast<unsigned long long>(rep.dropped()),
                    rep.failedSessions);
        // One aggregated op-mix line for the whole run (the drawn
        // mix, not the configured probabilities).
        std::printf("loadgen ops: arrive=%llu depart=%llu "
                    "query=%llu step=%llu migrate=%llu\n",
                    static_cast<unsigned long long>(rep.arrives),
                    static_cast<unsigned long long>(rep.departs),
                    static_cast<unsigned long long>(rep.queries),
                    static_cast<unsigned long long>(rep.steps),
                    static_cast<unsigned long long>(rep.migrates));
        // Timing is host-dependent: stderr only.
        inform("loadgen: %.2f s wall, %.0f req/s; latency us "
               "p50=%.0f p90=%.0f max=%.0f mean=%.0f (%llu "
               "samples)",
               rep.elapsedSec,
               rep.elapsedSec > 0.0
                   ? static_cast<double>(rep.received)
                       / rep.elapsedSec
                   : 0.0,
               rep.latP50Us, rep.latP90Us, rep.latMaxUs,
               rep.latMeanUs,
               static_cast<unsigned long long>(rep.latCount));

        return (rep.dropped() == 0 && rep.failedSessions == 0) ? 0
                                                               : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "cash_loadgen: %s\n", e.what());
        return 2;
    }
}
