/**
 * @file
 * The service subsystem: JSON layer, wire framing, request grammar,
 * the bounded MPSC queue, ServiceCore apply semantics, and loopback
 * client/server integration (Unix-domain and TCP) including the
 * hostile-input paths — malformed JSON, oversized and empty frames,
 * queue_full backpressure, and the stop() drain report.
 *
 * The integration tests run real server threads, so this binary is
 * the tsan target for the front-end's IO-thread / sim-thread
 * handoff.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cloud/provider.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "service/client.hh"
#include "service/core.hh"
#include "service/json.hh"
#include "service/loadgen.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/server.hh"
#include "trace/metrics.hh"

namespace cash::service
{
namespace
{

// --- JSON -------------------------------------------------------

TEST(Json, ScalarRoundTrips)
{
    const char *docs[] = {
        "null", "true", "false", "0",   "-1",      "42",
        "3.5",  "-0.25", "1e3",  "\"\"", "\"abc\"",
    };
    for (const char *doc : docs) {
        auto v = parseJson(doc);
        ASSERT_TRUE(v.has_value()) << doc;
        auto again = parseJson(v->dump());
        ASSERT_TRUE(again.has_value()) << doc;
        EXPECT_EQ(v->dump(), again->dump()) << doc;
    }
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    JsonValue v = JsonValue::object();
    v.set("z", JsonValue(1));
    v.set("a", JsonValue(2));
    v.set("m", JsonValue(3));
    EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2,\"m\":3}");

    // Replacing a key keeps its position — encode∘decode∘encode
    // must be the identity for the protocol round-trip.
    v.set("a", JsonValue(9));
    EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, EscapesRoundTrip)
{
    JsonValue v = JsonValue::object();
    v.set("s", JsonValue(std::string("a\"b\\c\n\t\x01 d")));
    auto parsed = parseJson(v.dump());
    ASSERT_TRUE(parsed.has_value());
    auto s = parsed->getString("s");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, "a\"b\\c\n\t\x01 d");
}

TEST(Json, Utf16EscapesDecode)
{
    // BMP escape and a surrogate pair (U+1F600).
    auto v = parseJson("\"\\u0041\\uD83D\\uDE00\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->string(), "A\xF0\x9F\x98\x80");

    // A lone high surrogate is an error.
    EXPECT_FALSE(parseJson("\"\\uD83D\"").has_value());
}

TEST(Json, RejectsHostileInput)
{
    const char *bad[] = {
        "",          "{",          "[1,]",      "{\"a\":}",
        "01",        "1.",         "tru",       "\"\\q\"",
        "{} {}",     "1 2",        "nul",       "\"unterminated",
        "{\"a\" 1}", "[1 2]",
    };
    for (const char *doc : bad) {
        std::string err;
        EXPECT_FALSE(parseJson(doc, &err).has_value()) << doc;
        EXPECT_FALSE(err.empty()) << doc;
    }
}

TEST(Json, DepthCapIsEnforced)
{
    // Way past any sane protocol document.
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_FALSE(parseJson(deep).has_value());

    // Modest nesting is fine.
    EXPECT_TRUE(parseJson("[[[[[[[[1]]]]]]]]").has_value());
}

TEST(Json, GetUintSemantics)
{
    auto v = parseJson(
        "{\"a\":7,\"b\":-1,\"c\":1.5,\"d\":\"7\",\"e\":0}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->getUint("a"), 7u);
    EXPECT_EQ(v->getUint("e"), 0u);
    EXPECT_FALSE(v->getUint("b").has_value()); // negative
    EXPECT_FALSE(v->getUint("c").has_value()); // non-integral
    EXPECT_FALSE(v->getUint("d").has_value()); // string
    EXPECT_FALSE(v->getUint("missing").has_value());
}

/** Random JSON value with bounded depth, for property round-trips. */
JsonValue
randomValue(Rng &rng, unsigned depth)
{
    unsigned pick = static_cast<unsigned>(
        rng.nextBounded(depth == 0 ? 4 : 6));
    switch (pick) {
      case 0:
        return JsonValue(nullptr);
      case 1:
        return JsonValue(rng.nextBool(0.5));
      case 2:
        return JsonValue(
            static_cast<std::int64_t>(rng.nextBounded(1u << 20))
            - (1 << 19));
      case 3: {
        std::string s;
        std::size_t len = rng.nextBounded(12);
        for (std::size_t i = 0; i < len; ++i)
            s += static_cast<char>(rng.nextBounded(0x60) + 0x20);
        return JsonValue(std::move(s));
      }
      case 4: {
        JsonValue arr = JsonValue::array();
        std::size_t n = rng.nextBounded(4);
        for (std::size_t i = 0; i < n; ++i)
            arr.push(randomValue(rng, depth - 1));
        return arr;
      }
      default: {
        JsonValue obj = JsonValue::object();
        std::size_t n = rng.nextBounded(4);
        for (std::size_t i = 0; i < n; ++i)
            obj.set(strfmt("k%zu", i), randomValue(rng, depth - 1));
        return obj;
      }
    }
}

TEST(Json, PropertyRandomValuesRoundTrip)
{
    Rng rng(0xDEC0DE);
    for (int trial = 0; trial < 200; ++trial) {
        JsonValue v = randomValue(rng, 4);
        std::string text = v.dump();
        std::string err;
        auto parsed = parseJson(text, &err);
        ASSERT_TRUE(parsed.has_value()) << text << ": " << err;
        EXPECT_EQ(parsed->dump(), text);
    }
}

// --- Framing ----------------------------------------------------

TEST(Frames, HeaderIsBigEndian)
{
    std::string f = encodeFrame("abc");
    ASSERT_EQ(f.size(), 7u);
    EXPECT_EQ(f[0], 0);
    EXPECT_EQ(f[1], 0);
    EXPECT_EQ(f[2], 0);
    EXPECT_EQ(f[3], 3);
    EXPECT_EQ(f.substr(4), "abc");
}

TEST(Frames, TruncatedFrameIsNotAnError)
{
    FrameDecoder dec;
    std::string f = encodeFrame("hello");
    dec.feed(f.data(), 2); // half a length prefix
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.error(), nullptr);
    dec.feed(f.data() + 2, f.size() - 3); // all but the last byte
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.error(), nullptr);
    dec.feed(f.data() + f.size() - 1, 1);
    auto payload = dec.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, "hello");
}

TEST(Frames, EmptyFramePoisonsTheStream)
{
    FrameDecoder dec;
    std::string zero(4, '\0');
    dec.feed(zero.data(), zero.size());
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_NE(dec.error(), nullptr);
    EXPECT_STREQ(dec.error(), errors::Malformed);

    // Sticky: later good frames are ignored.
    std::string good = encodeFrame("{}");
    dec.feed(good.data(), good.size());
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_STREQ(dec.error(), errors::Malformed);
}

TEST(Frames, OversizedFramePoisonsTheStream)
{
    FrameDecoder dec(16);
    std::string f = encodeFrame(std::string(17, 'x'));
    // The error fires off the length prefix alone — the payload
    // need not arrive.
    dec.feed(f.data(), 4);
    EXPECT_FALSE(dec.next().has_value());
    ASSERT_NE(dec.error(), nullptr);
    EXPECT_STREQ(dec.error(), errors::FrameTooLarge);

    FrameDecoder ok(17);
    ok.feed(f.data(), f.size());
    EXPECT_TRUE(ok.next().has_value());
}

TEST(Frames, PropertyRoundTripUnderRandomChunking)
{
    Rng rng(0xF4A3E5);
    for (int trial = 0; trial < 50; ++trial) {
        // A random batch of random binary payloads...
        std::vector<std::string> payloads;
        std::string stream;
        std::size_t count = 1 + rng.nextBounded(8);
        for (std::size_t i = 0; i < count; ++i) {
            std::string p;
            std::size_t len = 1 + rng.nextBounded(200);
            for (std::size_t b = 0; b < len; ++b)
                p += static_cast<char>(rng.nextBounded(256));
            stream += encodeFrame(p);
            payloads.push_back(std::move(p));
        }
        // ...fed in random chunks must decode to the same payloads
        // in order, regardless of where the reads split.
        FrameDecoder dec;
        std::vector<std::string> got;
        std::size_t off = 0;
        while (off < stream.size()) {
            std::size_t n = 1
                + rng.nextBounded(stream.size() - off);
            dec.feed(stream.data() + off, n);
            off += n;
            while (auto p = dec.next())
                got.push_back(*p);
        }
        ASSERT_EQ(dec.error(), nullptr);
        EXPECT_EQ(got, payloads);
        EXPECT_EQ(dec.pending(), 0u);
    }
}

// --- Request grammar --------------------------------------------

TEST(Requests, AllOpsRoundTripThroughTheWire)
{
    Request reqs[7];
    reqs[0] = {};
    reqs[0].op = Op::Ping;
    reqs[1].op = Op::Arrive;
    reqs[1].cls = 3;
    reqs[1].residence = 17;
    reqs[2].op = Op::Depart;
    reqs[2].tenant = 5;
    reqs[3].op = Op::Query;
    reqs[3].tenant = 9;
    reqs[4].op = Op::Step;
    reqs[4].quanta = 12;
    reqs[5].op = Op::Snapshot;
    reqs[6].op = Op::Drain;

    std::uint64_t id = 1;
    for (Request &r : reqs) {
        r.id = id++;
        auto parsed = parseJson(r.toJson().dump());
        ASSERT_TRUE(parsed.has_value());
        std::string err, detail;
        std::uint64_t echoed = 0;
        auto back = parseRequest(*parsed, &err, &detail, &echoed);
        ASSERT_TRUE(back.has_value()) << opName(r.op) << ": " << err;
        EXPECT_EQ(echoed, r.id);
        EXPECT_EQ(back->op, r.op);
        EXPECT_EQ(back->cls, r.cls);
        EXPECT_EQ(back->residence, r.residence);
        EXPECT_EQ(back->tenant, r.tenant);
        EXPECT_EQ(back->quanta, r.quanta);
    }
}

TEST(Requests, RejectionsCarryTheRightCode)
{
    struct Case
    {
        const char *doc;
        const char *code;
    };
    const Case cases[] = {
        {"[1,2]", errors::BadRequest},
        {"{\"id\":1}", errors::BadRequest},
        {"{\"id\":1,\"op\":\"warp\"}", errors::UnknownOp},
        {"{\"id\":-1,\"op\":\"ping\"}", errors::BadRequest},
        {"{\"id\":1,\"op\":\"arrive\"}", errors::BadRequest},
        {"{\"id\":1,\"op\":\"depart\"}", errors::BadRequest},
        {"{\"id\":1,\"op\":\"step\",\"quanta\":0}",
         errors::BadRequest},
        {"{\"id\":1,\"op\":\"arrive\",\"cls\":99999999}",
         errors::BadRequest},
    };
    for (const Case &c : cases) {
        auto parsed = parseJson(c.doc);
        ASSERT_TRUE(parsed.has_value()) << c.doc;
        std::string err, detail;
        std::uint64_t id = 99;
        auto req = parseRequest(*parsed, &err, &detail, &id);
        EXPECT_FALSE(req.has_value()) << c.doc;
        EXPECT_EQ(err, c.code) << c.doc;
        EXPECT_FALSE(detail.empty()) << c.doc;
    }

    // Even a rejected request yields its id, so the error response
    // can be matched to the pipelined request that caused it.
    auto parsed = parseJson("{\"id\":42,\"op\":\"warp\"}");
    std::string err, detail;
    std::uint64_t id = 0;
    parseRequest(*parsed, &err, &detail, &id);
    EXPECT_EQ(id, 42u);
}

// --- BoundedQueue -----------------------------------------------

TEST(Queue, BackpressureAndBatchOrder)
{
    BoundedQueue<int> q(3);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_TRUE(q.tryPush(3));
    EXPECT_FALSE(q.tryPush(4)); // full: explicit backpressure
    EXPECT_EQ(q.size(), 3u);

    std::vector<int> out;
    EXPECT_TRUE(q.popBatch(out, 2));
    EXPECT_EQ(out, (std::vector<int>{1, 2})); // FIFO, bounded batch
    EXPECT_TRUE(q.tryPush(5));
    EXPECT_TRUE(q.popBatch(out, 10));
    EXPECT_EQ(out, (std::vector<int>{3, 5}));
}

TEST(Queue, CloseDrainsThenSignalsExit)
{
    BoundedQueue<int> q(8);
    EXPECT_TRUE(q.tryPush(1));
    q.close();
    EXPECT_FALSE(q.tryPush(2)); // closed queues reject pushes

    std::vector<int> out;
    EXPECT_TRUE(q.popBatch(out, 10)); // final drain still delivers
    EXPECT_EQ(out, (std::vector<int>{1}));
    EXPECT_FALSE(q.popBatch(out, 10)); // closed AND empty: exit
}

TEST(Queue, CloseWakesABlockedConsumer)
{
    BoundedQueue<int> q(4);
    std::atomic<bool> exited{false};
    std::thread consumer([&] {
        std::vector<int> out;
        while (q.popBatch(out, 4)) {
        }
        exited.store(true);
    });
    // Give the consumer a moment to block, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    consumer.join();
    EXPECT_TRUE(exited.load());
}

// --- ServiceCore ------------------------------------------------

cloud::ProviderParams
tinyServiceParams(std::uint64_t seed = 7)
{
    FabricParams f;
    f.sliceCols = 1;
    f.bankCols = 4;
    f.rows = 8;
    cloud::ProviderParams p;
    p.fabric = f;
    p.provisioning = cloud::Provisioning::FineGrain;
    p.quantum = 50'000;
    p.arrivalProb = 0.0; // arrivals only via requests
    p.seed = seed;
    return p;
}

TEST(Core, TenantLifecycleThroughRequests)
{
    cloud::CloudProvider provider(tinyServiceParams());
    ServiceCore core(provider, /*audit_each_quantum=*/true);

    Request arrive;
    arrive.id = 1;
    arrive.op = Op::Arrive;
    arrive.cls = 0;
    arrive.residence = 100; // outlives the test: departs are ours
    JsonValue resp = core.apply(arrive);
    ASSERT_EQ(resp.getBool("ok"), true);
    auto tenant = resp.getUint("tenant");
    ASSERT_TRUE(tenant.has_value());
    EXPECT_TRUE(resp.getString("app").has_value());

    Request step;
    step.id = 2;
    step.op = Op::Step;
    step.quanta = 5;
    resp = core.apply(step);
    ASSERT_EQ(resp.getBool("ok"), true);
    EXPECT_EQ(resp.getUint("round"), 5u);

    Request query;
    query.id = 3;
    query.op = Op::Query;
    query.tenant = static_cast<std::uint32_t>(*tenant);
    resp = core.apply(query);
    ASSERT_EQ(resp.getBool("ok"), true);
    EXPECT_EQ(resp.getString("state"), "active");
    EXPECT_GT(resp.getNumber("bill").value_or(0.0), 0.0);

    Request depart;
    depart.id = 4;
    depart.op = Op::Depart;
    depart.tenant = query.tenant;
    resp = core.apply(depart);
    ASSERT_EQ(resp.getBool("ok"), true);
    EXPECT_EQ(resp.getString("state"), "departed");

    // Departing again: unknown_tenant, not a crash.
    depart.id = 5;
    resp = core.apply(depart);
    ASSERT_EQ(resp.getBool("ok"), false);
    EXPECT_EQ(resp.getString("error"), errors::UnknownTenant);
}

TEST(Core, SnapshotReportsOccupancy)
{
    cloud::CloudProvider provider(tinyServiceParams());
    ServiceCore core(provider, true);

    Request arrive;
    arrive.op = Op::Arrive;
    arrive.residence = 100;
    core.apply(arrive);
    Request step;
    step.op = Op::Step;
    core.apply(step);

    Request snap;
    snap.id = 9;
    snap.op = Op::Snapshot;
    JsonValue resp = core.apply(snap);
    ASSERT_EQ(resp.getBool("ok"), true);
    EXPECT_EQ(resp.getUint("arrivals"), 1u);
    EXPECT_EQ(resp.getUint("active"), 1u);
    EXPECT_EQ(resp.getBool("draining"), false);
    EXPECT_TRUE(resp.getUint("free_slices").has_value());
}

TEST(Core, DrainClosesAdmissionsAndConservesBilling)
{
    cloud::CloudProvider provider(tinyServiceParams());
    ServiceCore core(provider, true);

    for (int i = 0; i < 3; ++i) {
        Request arrive;
        arrive.op = Op::Arrive;
        arrive.cls = static_cast<std::uint32_t>(i);
        arrive.residence = 100;
        core.apply(arrive);
    }
    Request step;
    step.op = Op::Step;
    step.quanta = 4;
    core.apply(step);

    Request drain;
    drain.id = 77;
    drain.op = Op::Drain;
    JsonValue resp = core.apply(drain);
    ASSERT_EQ(resp.getBool("ok"), true);
    EXPECT_EQ(resp.getUint("id"), 77u);

    // Every admitted tenant produced a final bill, and the report's
    // revenue is their sum (drainReport() also ran auditProvider —
    // the billing-conservation gate — or apply() would have thrown).
    const JsonValue *bills = resp.find("bills");
    ASSERT_NE(bills, nullptr);
    ASSERT_TRUE(bills->isArray());
    double total = 0.0;
    for (const JsonValue &row : bills->items())
        total += row.getNumber("bill").value_or(0.0);
    EXPECT_NEAR(total, resp.getNumber("revenue").value_or(-1.0),
                1e-9);
    EXPECT_EQ(resp.getUint("departed"), bills->items().size());

    // Post-drain arrivals are rejected with the draining code.
    Request late;
    late.id = 78;
    late.op = Op::Arrive;
    late.residence = 5;
    resp = core.apply(late);
    ASSERT_EQ(resp.getBool("ok"), false);
    EXPECT_EQ(resp.getString("error"), errors::Draining);

    // Stepping a drained provider stays legal and audited.
    Request after;
    after.op = Op::Step;
    EXPECT_EQ(core.apply(after).getBool("ok"), true);
}

// --- Loopback integration ---------------------------------------

std::string
testSocketPath(const char *tag)
{
    return strfmt("/tmp/cash_test_svc.%d.%s.sock",
                  static_cast<int>(::getpid()), tag);
}

/** A service counter's current value. The registry is process-wide
 *  and outlives every server, so tests compare readings taken
 *  before start() and after stop(). */
std::uint64_t
metric(const char *name)
{
    return trace::MetricsRegistry::global().counter(name).value();
}

/** Raw framed connection for hostile-input tests: no client-side
 *  validation, so we can put anything on the wire. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void sendRaw(std::string_view bytes)
    {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** The next response frame as parsed JSON; nullopt on EOF. */
    std::optional<JsonValue> readResponse()
    {
        while (true) {
            if (auto payload = dec_.next()) {
                auto v = parseJson(*payload);
                EXPECT_TRUE(v.has_value());
                return v;
            }
            EXPECT_EQ(dec_.error(), nullptr);
            char buf[1024];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return std::nullopt; // EOF (server closed)
            dec_.feed(buf, static_cast<std::size_t>(n));
        }
    }

    /** True when a response (or EOF) is waiting to be read, or
     *  arrives within timeout_ms; by default never blocks. */
    bool readable(int timeout_ms = 0) const
    {
        pollfd p{fd_, POLLIN, 0};
        return ::poll(&p, 1, timeout_ms) > 0;
    }

    /** True when the server has closed its side. */
    bool waitForEof()
    {
        char buf[64];
        while (true) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
        }
    }

  private:
    int fd_ = -1;
    FrameDecoder dec_;
};

TEST(Loopback, SynchronousSessionOverUnixSocket)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("sync");
    sc.audit = true;
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t requests0 = metric("service.requests");
    const std::uint64_t responses0 = metric("service.responses");
    server.start();

    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        JsonValue resp = client.ping();
        EXPECT_EQ(resp.getBool("ok"), true);

        resp = client.arrive(0, 100);
        ASSERT_EQ(resp.getBool("ok"), true);
        auto tenant = resp.getUint("tenant");
        ASSERT_TRUE(tenant.has_value());

        resp = client.step(3);
        EXPECT_EQ(resp.getUint("round"), 3u);

        resp = client.query(static_cast<std::uint32_t>(*tenant));
        EXPECT_EQ(resp.getString("state"), "active");

        resp = client.snapshot();
        EXPECT_EQ(resp.getUint("active"), 1u);

        resp = client.depart(static_cast<std::uint32_t>(*tenant));
        EXPECT_EQ(resp.getString("state"), "departed");
    }

    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
    EXPECT_EQ(metric("service.requests") - requests0, 6u);
    EXPECT_EQ(metric("service.responses") - responses0, 6u);
}

TEST(Loopback, TcpEphemeralPort)
{
    ServerConfig sc;
    sc.listenTcp = true;
    sc.tcpPort = 0; // ephemeral
    ServiceServer server(tinyServiceParams(), sc);
    server.start();
    ASSERT_NE(server.tcpPort(), 0);

    {
        ServiceClient client =
            ServiceClient::connectTcp(server.tcpPort());
        EXPECT_EQ(client.ping().getBool("ok"), true);
        EXPECT_EQ(client.arrive(1, 10).getBool("ok"), true);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

TEST(Loopback, PipelinedResponsesMatchByIdOutOfWaitOrder)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("pipe");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();

    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        Request a;
        a.op = Op::Arrive;
        a.residence = 50;
        Request p;
        p.op = Op::Ping;
        std::uint64_t id1 = client.send(a);
        std::uint64_t id2 = client.send(p);
        std::uint64_t id3 = client.send(p);
        // Waiting for the LAST id first forces the stash path.
        JsonValue r3 = client.wait(id3);
        JsonValue r1 = client.wait(id1);
        JsonValue r2 = client.wait(id2);
        EXPECT_EQ(r1.getUint("id"), id1);
        EXPECT_EQ(r2.getUint("id"), id2);
        EXPECT_EQ(r3.getUint("id"), id3);
        EXPECT_EQ(r1.getBool("ok"), true);
    }
    server.stop();
}

TEST(Loopback, ConcurrentClientsAllGetAnswers)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("conc");
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t requests0 = metric("service.requests");
    const std::uint64_t responses0 = metric("service.responses");
    const std::uint64_t errors0 = metric("service.protocol_errors");
    server.start();

    constexpr unsigned kClients = 8;
    constexpr unsigned kCalls = 24;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                ServiceClient client =
                    ServiceClient::connectUnix(sc.unixPath);
                Rng rng(1000 + t);
                std::vector<std::uint32_t> owned;
                for (unsigned i = 0; i < kCalls; ++i) {
                    JsonValue resp;
                    unsigned pick =
                        static_cast<unsigned>(rng.nextBounded(4));
                    if (pick == 0 && !owned.empty()) {
                        std::uint32_t id = owned.back();
                        owned.pop_back();
                        resp = client.depart(id);
                    } else if (pick == 1) {
                        resp = client.step(1);
                    } else {
                        resp = client.arrive(
                            static_cast<std::uint32_t>(
                                rng.nextBounded(3)),
                            1 + static_cast<std::uint32_t>(
                                    rng.nextBounded(20)));
                        if (resp.getBool("ok") == true
                            && resp.getString("state")
                                != "rejected")
                            owned.push_back(
                                static_cast<std::uint32_t>(
                                    *resp.getUint("tenant")));
                    }
                    // Every call() returned: one response per
                    // request. Application-level rejections are
                    // fine; transport failures throw.
                }
                if (client.received() != kCalls)
                    ++failures;
            } catch (const FatalError &) {
                ++failures;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0u);

    server.stop();
    // The drain report is the billing-conservation gate: drain()
    // plus auditProvider ran inside stop().
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
    const std::uint64_t requests = metric("service.requests") - requests0;
    EXPECT_EQ(requests, static_cast<std::uint64_t>(kClients) * kCalls);
    EXPECT_EQ(metric("service.responses") - responses0, requests);
    EXPECT_EQ(metric("service.protocol_errors") - errors0, 0u);
}

TEST(Loopback, QueueFullIsAnsweredNotDropped)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("full");
    sc.queueCapacity = 1;
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t full0 = metric("service.queue_full");
    server.start();

    unsigned full = 0;
    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        // One heavy step occupies the sim thread...
        Request heavy;
        heavy.op = Op::Step;
        heavy.quanta = 2000;
        client.send(heavy);
        // ...then a burst of pings lands on a capacity-1 queue. The
        // contract is every request answered exactly once — some
        // with ok:true, the overflow with the queue_full error —
        // and NONE silently dropped.
        constexpr unsigned kBurst = 64;
        Request ping;
        ping.op = Op::Ping;
        for (unsigned i = 0; i < kBurst; ++i)
            client.send(ping);

        unsigned oks = 0;
        for (unsigned i = 0; i < kBurst + 1; ++i) {
            JsonValue resp = client.next();
            if (resp.getBool("ok") == true) {
                ++oks;
            } else {
                EXPECT_EQ(resp.getString("error"),
                          errors::QueueFull);
                ++full;
            }
        }
        EXPECT_EQ(oks + full, kBurst + 1);
        EXPECT_EQ(client.received(), kBurst + 1);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
    EXPECT_EQ(metric("service.queue_full") - full0, full);
}

/** Frame a request for RawConn. */
std::string
framed(Request req)
{
    return encodeFrame(req.toJson().dump());
}

/**
 * Reads come from the shard's published view: a query on another
 * connection is answered while a long step is still running on the
 * same shard, and reports the state before that step.
 */
TEST(Loopback, QueryIsAnsweredWhileAStepRuns)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("viewread");
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t requests0 = metric("service.requests");
    server.start();
    {
        ServiceClient reader = ServiceClient::connectUnix(sc.unixPath);
        auto tenant = static_cast<std::uint32_t>(
            reader.arrive(0, 1000).getUint("tenant").value_or(0));
        EXPECT_EQ(reader.step(1).getBool("ok"), true);
        const auto rounds_before =
            reader.query(tenant).getUint("active_rounds");
        ASSERT_TRUE(rounds_before.has_value());

        // A step long enough that the reader's round trips all fit
        // inside it.
        RawConn stepper(sc.unixPath);
        Request step;
        step.id = 900;
        step.op = Op::Step;
        step.quanta = 400;
        stepper.sendRaw(framed(step));
        // The step has been read (and so queued) before the queries
        // below are sent: one IO thread handles frames in order.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (metric("service.requests") - requests0 < 4) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "the step was never read";
            std::this_thread::yield();
        }

        for (int i = 0; i < 3; ++i) {
            JsonValue q = reader.query(tenant);
            EXPECT_EQ(q.getBool("ok"), true);
            EXPECT_EQ(q.getUint("active_rounds"), rounds_before);
        }
        EXPECT_EQ(reader.ping().getUint("round"), 1u);
        // Every read was answered, and the step's answer is still
        // owed.
        EXPECT_FALSE(stepper.readable());

        std::optional<JsonValue> done = stepper.readResponse();
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->getUint("id"), 900u);
        EXPECT_EQ(done->getUint("round"), 401u);
        // A client that waited for an answer reads its effects.
        EXPECT_EQ(reader.query(tenant).getUint("active_rounds"),
                  *rounds_before + 400);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

/**
 * A read pipelined behind a write on the same connection queues
 * behind it, so it sees the write's effects.
 */
TEST(Loopback, PipelinedQueryReadsItsOwnStep)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("ownwrite");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();
    {
        ServiceClient client = ServiceClient::connectUnix(sc.unixPath);
        auto tenant = static_cast<std::uint32_t>(
            client.arrive(0, 1000).getUint("tenant").value_or(0));
        const auto rounds_before =
            client.query(tenant).getUint("active_rounds");
        ASSERT_TRUE(rounds_before.has_value());

        Request step;
        step.op = Op::Step;
        step.quanta = 5;
        Request query;
        query.op = Op::Query;
        query.tenant = tenant;
        Request ping;
        ping.op = Op::Ping;
        std::uint64_t step_id = client.send(step);
        std::uint64_t query_id = client.send(query);
        std::uint64_t ping_id = client.send(ping);
        // Answers come back in request order.
        EXPECT_EQ(client.next().getUint("id"), step_id);
        JsonValue q = client.next();
        EXPECT_EQ(q.getUint("id"), query_id);
        EXPECT_EQ(q.getUint("active_rounds"), *rounds_before + 5);
        JsonValue p = client.next();
        EXPECT_EQ(p.getUint("id"), ping_id);
        EXPECT_EQ(p.getUint("round"), 5u);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

/**
 * idleTimeoutMs closes a connection that stays silent that long and
 * counts it; a connection that keeps talking stays open.
 */
TEST(Loopback, IdleConnectionIsClosedAndCounted)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("idle");
    sc.idleTimeoutMs = 100;
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t idle0 = metric("service.idle_closed");
    server.start();
    {
        RawConn silent(sc.unixPath);
        RawConn talker(sc.unixPath);
        // The talker pings every 20 ms for 300 ms, long past the
        // silent connection's timeout.
        Request ping;
        ping.op = Op::Ping;
        const auto until = std::chrono::steady_clock::now()
            + std::chrono::milliseconds(300);
        while (std::chrono::steady_clock::now() < until) {
            ++ping.id;
            talker.sendRaw(framed(ping));
            std::optional<JsonValue> resp = talker.readResponse();
            ASSERT_TRUE(resp.has_value()) << "ping " << ping.id;
            EXPECT_EQ(resp->getUint("id"), ping.id);
            EXPECT_EQ(resp->getBool("ok"), true);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        EXPECT_GE(ping.id, 10u);
        ASSERT_TRUE(silent.readable(5000)) << "never closed";
        EXPECT_TRUE(silent.waitForEof());
        EXPECT_EQ(metric("service.idle_closed") - idle0, 1u);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

TEST(Loopback, MalformedJsonGetsErrorThenClose)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("badjson");
    ServiceServer server(tinyServiceParams(), sc);
    const std::uint64_t errors0 = metric("service.protocol_errors");
    server.start();

    {
        RawConn conn(sc.unixPath);
        conn.sendRaw(encodeFrame("{\"id\":3,\"op\""));
        auto resp = conn.readResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->getBool("ok"), false);
        EXPECT_EQ(resp->getString("error"), errors::Malformed);
        // Undecodable JSON means unknowable framing intent: the
        // server flushes the error and closes.
        EXPECT_TRUE(conn.waitForEof());
    }

    // Valid JSON that is not a valid request keeps the connection:
    // the client is speaking the protocol, just asking nonsense.
    {
        RawConn conn(sc.unixPath);
        conn.sendRaw(encodeFrame("{\"id\":4,\"op\":\"warp\"}"));
        auto resp = conn.readResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->getString("error"), errors::UnknownOp);
        EXPECT_EQ(resp->getUint("id"), 4u);

        conn.sendRaw(encodeFrame("{\"id\":5,\"op\":\"ping\"}"));
        resp = conn.readResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->getBool("ok"), true);
        EXPECT_EQ(resp->getUint("id"), 5u);
    }

    server.stop();
    EXPECT_GE(metric("service.protocol_errors") - errors0, 1u);
}

TEST(Loopback, OversizedAndEmptyFramesAreRejected)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("hostile");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();

    {
        // Oversized: the length prefix alone convicts the stream. The
        // whole frame is sent: a server that closed over the unread
        // payload would reset the socket, so the EOF below shows it
        // drained the input it no longer decodes.
        RawConn conn(sc.unixPath);
        conn.sendRaw(encodeFrame(std::string(kDefaultMaxFrame + 1, ' ')));
        auto resp = conn.readResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->getString("error"), errors::FrameTooLarge);
        EXPECT_TRUE(conn.waitForEof());
    }
    {
        // Empty frame: malformed, poisoned, closed.
        RawConn conn(sc.unixPath);
        conn.sendRaw(std::string(4, '\0'));
        auto resp = conn.readResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->getString("error"), errors::Malformed);
        EXPECT_TRUE(conn.waitForEof());
    }

    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

TEST(Loopback, DrainOpAndHalfClose)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("drain");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();

    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        ASSERT_EQ(client.arrive(0, 100).getBool("ok"), true);
        client.step(2);

        JsonValue resp = client.drain();
        ASSERT_EQ(resp.getBool("ok"), true);
        ASSERT_NE(resp.find("bills"), nullptr);
        EXPECT_EQ(resp.find("bills")->items().size(), 1u);

        // Admissions are closed once drained.
        resp = client.arrive(0, 5);
        EXPECT_EQ(resp.getString("error"), errors::Draining);

        // Half-close: pipeline a ping, shut down our write side,
        // and the server still flushes the response before closing.
        Request ping;
        ping.op = Op::Ping;
        std::uint64_t id = client.send(ping);
        client.finishSending();
        EXPECT_EQ(client.wait(id).getBool("ok"), true);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

TEST(Loopback, StopDrainReportCarriesFinalBills)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("bills");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();

    std::size_t admitted = 0;
    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        for (unsigned i = 0; i < 4; ++i) {
            JsonValue resp = client.arrive(i % 3, 100);
            ASSERT_EQ(resp.getBool("ok"), true);
            if (resp.getString("state") != "rejected")
                ++admitted;
        }
        client.step(3);
    }

    server.stop();
    const JsonValue &report = server.finalReport();
    ASSERT_EQ(report.getBool("ok"), true);
    const JsonValue *bills = report.find("bills");
    ASSERT_NE(bills, nullptr);
    EXPECT_EQ(bills->items().size(), admitted);
    double total = 0.0;
    for (const JsonValue &row : bills->items()) {
        EXPECT_TRUE(row.getUint("tenant").has_value());
        EXPECT_TRUE(row.getString("app").has_value());
        total += row.getNumber("bill").value_or(0.0);
    }
    EXPECT_NEAR(total, report.getNumber("revenue").value_or(-1.0),
                1e-9);

    // stop() is idempotent.
    server.stop();
}

TEST(Loadgen, DrawnOpMixFollowsTheFlags)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("mix");
    ServiceServer server(tinyServiceParams(), sc);
    server.start();

    LoadConfig lc;
    lc.unixPath = sc.unixPath;
    lc.sessions = 2;
    lc.requests = 64;
    lc.classes = 3;
    // Every session starts owning no tenant; those depart/query
    // draws must arrive, never step.
    lc.stepProb = 0.0;
    lc.seed = 3;
    LoadReport none = runLoad(lc);
    EXPECT_EQ(none.dropped(), 0u);
    EXPECT_EQ(none.steps, 0u);
    EXPECT_GT(none.arrives, 0u);
    EXPECT_EQ(none.arrives + none.departs + none.queries
                  + none.migrates,
              none.sent);

    // Each draw is a step with probability stepProb whatever the
    // session owns: a binomial count, held to four sigma.
    lc.stepProb = 0.5;
    lc.seed = 4;
    LoadReport half = runLoad(lc);
    EXPECT_EQ(half.dropped(), 0u);
    double n = static_cast<double>(half.sent);
    EXPECT_NEAR(static_cast<double>(half.steps), 0.5 * n,
                4.0 * std::sqrt(n * 0.5 * 0.5));

    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

} // namespace
} // namespace cash::service
