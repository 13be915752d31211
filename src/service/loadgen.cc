#include "service/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "service/client.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Per-session failure warnings are capped here: at hundreds of
 *  sessions a dead socket would otherwise print hundreds of
 *  identical lines. The count past the cap is reported once, after
 *  the run. */
constexpr unsigned kMaxSessionWarnings = 8;

/** One session's tallies, merged into the report at the end. */
struct SessionStats
{
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t oks = 0;
    std::uint64_t queueFull = 0;
    std::uint64_t otherErrors = 0;
    std::uint64_t arrives = 0;
    std::uint64_t departs = 0;
    std::uint64_t queries = 0;
    std::uint64_t steps = 0;
    std::uint64_t migrates = 0;
    bool failed = false;
    std::vector<double> latenciesUs;
};

double
usBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from)
        .count();
}

/** Consume one response: classify it and record its latency. */
void
consumeResponse(const JsonValue &resp, SessionStats &st,
                std::map<std::uint64_t, Clock::time_point> &inflight,
                std::vector<std::uint32_t> &owned,
                std::map<std::uint64_t, std::uint32_t> &migrating)
{
    ++st.received;
    std::uint64_t id = resp.getUint("id").value_or(0);
    auto it = inflight.find(id);
    if (it != inflight.end()) {
        double us = usBetween(it->second, Clock::now());
        st.latenciesUs.push_back(us);
        CASH_METRIC_SAMPLE("loadgen.latency_us", us);
        inflight.erase(it);
    }
    if (auto mig = migrating.find(id); mig != migrating.end()) {
        // Response to one of our migrate requests. On success the
        // tenant now lives on another shard under a new region id:
        // swap it in place so later departs/queries hit the right
        // shard. On failure (e.g. it departed while the migrate was
        // in flight) the old id is either still valid or moot.
        std::uint32_t old_id = mig->second;
        migrating.erase(mig);
        if (resp.getBool("ok").value_or(false)) {
            ++st.oks;
            std::uint32_t new_id = static_cast<std::uint32_t>(
                resp.getUint("tenant").value_or(old_id));
            for (std::uint32_t &t : owned)
                if (t == old_id)
                    t = new_id;
        } else if (resp.getString("error").value_or("")
                   == errors::QueueFull) {
            ++st.queueFull;
        } else {
            ++st.otherErrors;
        }
        return;
    }
    if (resp.getBool("ok").value_or(false)) {
        ++st.oks;
        // A successful arrive hands us a tenant we may later depart
        // or query; queued tenants are valid depart targets too
        // (departing a queued tenant abandons it). Only arrive
        // responses carry "app" without "bill"; a rejected arrival
        // has no tenant to track.
        if (auto tenant = resp.getUint("tenant");
            tenant && resp.find("app") && !resp.find("bill")
            && resp.getString("state").value_or("") != "rejected")
            owned.push_back(static_cast<std::uint32_t>(*tenant));
        return;
    }
    std::string code = resp.getString("error").value_or("");
    if (code == errors::QueueFull)
        ++st.queueFull;
    else
        ++st.otherErrors;
}

/** Build request r for this session step from the op-mix draw. The
 *  roll's bands are depart, query, migrate, step, then arrive; a
 *  draw in a tenant band by a session that owns no tenant arrives. */
Request
drawRequest(const LoadConfig &cfg, Rng &rng,
            std::vector<std::uint32_t> &owned)
{
    Request r;
    double roll = rng.nextDouble();
    double tenant_ops =
        cfg.departProb + cfg.queryProb + cfg.migrateProb;
    if (roll < tenant_ops && !owned.empty()) {
        std::size_t pick = rng.nextBounded(owned.size());
        r.tenant = owned[pick];
        if (roll < cfg.departProb) {
            r.op = Op::Depart;
            owned.erase(owned.begin()
                        + static_cast<std::ptrdiff_t>(pick));
        } else if (roll < cfg.departProb + cfg.queryProb) {
            r.op = Op::Query;
        } else {
            // Target left at kAutoShard: the server's placement
            // router picks the emptiest other shard.
            r.op = Op::Migrate;
        }
        return r;
    }
    if (roll >= tenant_ops && roll < tenant_ops + cfg.stepProb) {
        r.op = Op::Step;
        r.quanta = cfg.stepQuanta;
        return r;
    }
    r.op = Op::Arrive;
    r.cls = static_cast<std::uint32_t>(
        rng.nextBounded(std::max(1u, cfg.classes)));
    r.residence = 1
        + static_cast<std::uint32_t>(rng.nextBounded(
            std::max<std::uint32_t>(1, cfg.residenceMax)));
    return r;
}

void
countOp(Op op, SessionStats &st)
{
    switch (op) {
    case Op::Arrive: ++st.arrives; break;
    case Op::Depart: ++st.departs; break;
    case Op::Query: ++st.queries; break;
    case Op::Step: ++st.steps; break;
    case Op::Migrate: ++st.migrates; break;
    default: break;
    }
}

SessionStats
runSession(const LoadConfig &cfg, unsigned session_index,
           std::atomic<unsigned> &failures)
{
    SessionStats st;
    Rng rng(cfg.seed + 0x9e3779b97f4a7c15ull * (session_index + 1));
    std::vector<std::uint32_t> owned;
    std::map<std::uint64_t, Clock::time_point> inflight;
    /** request id -> pre-migration tenant id, for id adoption. */
    std::map<std::uint64_t, std::uint32_t> migrating;

    try {
        ServiceClient client =
            cfg.unixPath.empty()
                ? ServiceClient::connectTcp(cfg.tcpPort,
                                            cfg.tcpHost)
                : ServiceClient::connectUnix(cfg.unixPath);

        Clock::time_point next_send = Clock::now();
        for (unsigned i = 0; i < cfg.requests; ++i) {
            if (cfg.rate > 0.0) {
                // Open-loop: the schedule does not slow down when
                // the server does; backpressure shows up as window
                // stalls and queue_full answers, not a slower clock.
                next_send += std::chrono::duration_cast<
                    Clock::duration>(std::chrono::duration<double>(
                    rng.nextExponential(cfg.rate)));
                std::this_thread::sleep_until(next_send);
            }
            while (inflight.size()
                   >= std::max(1u, cfg.window))
                consumeResponse(client.next(), st, inflight, owned,
                                migrating);
            Request r = drawRequest(cfg, rng, owned);
            countOp(r.op, st);
            Clock::time_point t0 = Clock::now();
            std::uint64_t id = client.send(r);
            if (r.op == Op::Migrate)
                migrating.emplace(id, r.tenant);
            inflight.emplace(id, t0);
            ++st.sent;
        }
        while (st.received < st.sent)
            consumeResponse(client.next(), st, inflight, owned,
                            migrating);
    } catch (const FatalError &e) {
        unsigned nth = ++failures;
        if (nth <= kMaxSessionWarnings)
            warn("loadgen session %u failed: %s", session_index,
                 e.what());
        st.failed = true;
    }
    return st;
}

} // namespace

LoadReport
runLoad(const LoadConfig &config)
{
    Clock::time_point start = Clock::now();

    std::vector<SessionStats> stats(config.sessions);
    std::vector<std::thread> threads;
    std::atomic<unsigned> failures{0};
    threads.reserve(config.sessions);
    for (unsigned s = 0; s < config.sessions; ++s)
        threads.emplace_back([&config, &stats, &failures, s] {
            trace::TrackScope scope(
                1000 + s, strfmt("loadgen session %u", s));
            stats[s] = runSession(config, s, failures);
        });
    for (std::thread &t : threads)
        t.join();
    if (failures.load() > kMaxSessionWarnings)
        warn("loadgen: %u more session failures suppressed",
             failures.load() - kMaxSessionWarnings);

    LoadReport report;
    report.elapsedSec =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<double> lat;
    for (SessionStats &st : stats) {
        report.sent += st.sent;
        report.received += st.received;
        report.oks += st.oks;
        report.queueFull += st.queueFull;
        report.otherErrors += st.otherErrors;
        report.arrives += st.arrives;
        report.departs += st.departs;
        report.queries += st.queries;
        report.steps += st.steps;
        report.migrates += st.migrates;
        if (st.failed)
            ++report.failedSessions;
        lat.insert(lat.end(), st.latenciesUs.begin(),
                   st.latenciesUs.end());
    }
    std::sort(lat.begin(), lat.end());
    report.latCount = lat.size();
    if (!lat.empty()) {
        double sum = 0.0;
        for (double v : lat)
            sum += v;
        report.latMeanUs = sum / static_cast<double>(lat.size());
        auto at = [&](double q) {
            std::size_t i = static_cast<std::size_t>(
                q * static_cast<double>(lat.size() - 1));
            return lat[i];
        };
        report.latP50Us = at(0.5);
        report.latP90Us = at(0.9);
        report.latMaxUs = lat.back();
    }
    return report;
}

} // namespace cash::service
