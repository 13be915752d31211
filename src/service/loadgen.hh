/**
 * @file
 * Concurrent load generation against a CASH service daemon.
 *
 * LoadRunner drives N independent client sessions, each on its own
 * connection and thread, with a seeded open-loop arrival process
 * (exponential inter-send gaps at `rate` requests/second) and a
 * bounded pipeline window. Each session draws a deterministic op mix
 * from its forked Rng stream — arrivals, departures of tenants it
 * created, queries, quantum steps — so two runs with the same seed
 * send the same per-session request sequences (only the cross-session
 * interleaving at the server varies).
 *
 * The report's core contract numbers are interleaving-invariant:
 * every request the server accepts produces exactly one response, so
 * `sent == received` (zero dropped responses) regardless of thread
 * timing; `queue_full` answers count as received backpressure, not
 * drops. Latencies (send → response, microseconds) feed both the
 * report's summary fields and, when a TraceSession is installed, the
 * `loadgen.latency_us` histogram in the global MetricsRegistry.
 *
 * Shared by tools/cash_loadgen (CLI) and bench/bench_service
 * (in-process loopback grid).
 */

#ifndef CASH_SERVICE_LOADGEN_HH
#define CASH_SERVICE_LOADGEN_HH

#include <cstdint>
#include <string>

namespace cash::service
{

/** One load shape. */
struct LoadConfig
{
    /** Connect to this Unix-domain path when non-empty... */
    std::string unixPath;
    /** ...else to this loopback TCP port. */
    std::uint16_t tcpPort = 0;
    std::string tcpHost = "127.0.0.1";

    /** Concurrent sessions (connections × threads). */
    unsigned sessions = 8;
    /** Requests per session. */
    unsigned requests = 64;
    /** Open-loop send rate per session, requests/second
     *  (0 = no pacing: send as fast as the window allows). */
    double rate = 0.0;
    /** Max in-flight (unanswered) requests per session. */
    unsigned window = 8;
    /** Base seed; session s uses an independent fork. */
    std::uint64_t seed = 1;

    /** Op mix: arrivals fill the remainder. A depart, query or
     *  migrate draw by a session that owns no tenant is sent as an
     *  arrive, so `stepProb` is exactly the step share. */
    double departProb = 0.25;
    double queryProb = 0.15;
    double stepProb = 0.15;
    /** Cross-shard migrations of owned tenants (auto-routed target;
     *  on success the session adopts the tenant's new region id).
     *  Leave 0 against single-shard daemons: every draw would burn
     *  a request on a bad_request answer. */
    double migrateProb = 0.0;
    /** Catalog classes to draw arrivals from. */
    unsigned classes = 1;
    /** Arrive residence drawn uniformly from [1, residenceMax]. */
    std::uint32_t residenceMax = 32;
    /** Quanta per step request. */
    std::uint32_t stepQuanta = 1;
};

/** Aggregated outcome of one run (sums over all sessions). */
struct LoadReport
{
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t oks = 0;
    std::uint64_t queueFull = 0;
    std::uint64_t otherErrors = 0;
    /** Op mix actually sent, summed over sessions (the drawn mix,
     *  not the configured probabilities — departs and queries
     *  require an owned tenant). */
    std::uint64_t arrives = 0;
    std::uint64_t departs = 0;
    std::uint64_t queries = 0;
    std::uint64_t steps = 0;
    std::uint64_t migrates = 0;
    /** Sessions that died on a connection/protocol error. */
    unsigned failedSessions = 0;

    double elapsedSec = 0.0;

    /** Send→response latency summary, microseconds. */
    std::uint64_t latCount = 0;
    double latMeanUs = 0.0;
    double latP50Us = 0.0;
    double latP90Us = 0.0;
    double latMaxUs = 0.0;

    /** Responses lost (the contract says this is always 0 unless a
     *  session failed outright). */
    std::uint64_t dropped() const { return sent - received; }
};

/** Run the configured load to completion (blocks). */
LoadReport runLoad(const LoadConfig &config);

} // namespace cash::service

#endif // CASH_SERVICE_LOADGEN_HH
