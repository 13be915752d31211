/**
 * @file
 * The trace/metrics subsystem's contract:
 *
 *  - ring-buffer flight-recorder semantics (overwrite-oldest, exact
 *    overwritten() accounting),
 *  - thread-safe concurrent emission (stressed under TSan in CI's
 *    sanitize matrix),
 *  - canonical drain order and thread-count determinism of event
 *    *contents* (minus host timestamps),
 *  - Chrome trace_event JSON schema of the exporter, validated with
 *    a minimal JSON parser,
 *  - MetricsRegistry aggregation and its reset-on-install.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "harness/experiment_engine.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

using namespace cash;
using namespace cash::trace;

namespace
{

/**
 * Minimal recursive-descent JSON parser — just enough to validate
 * the exporter's output structurally without external dependencies.
 * Numbers are kept as doubles, objects as string->node maps.
 */
struct JsonNode
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind =
        Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonNode> items;
    std::map<std::string, JsonNode> fields;
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &src) : src_(src) {}

    JsonNode parse()
    {
        JsonNode n = value();
        skipWs();
        if (pos_ != src_.size())
            fail("trailing content");
        return n;
    }

  private:
    [[noreturn]] void fail(const char *what)
    {
        fatal("JSON parse error at offset %zu: %s", pos_, what);
    }

    void skipWs()
    {
        while (pos_ < src_.size()
               && std::isspace(static_cast<unsigned char>(
                   src_[pos_])))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= src_.size())
            fail("unexpected end");
        return src_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    JsonNode value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't':
          case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    JsonNode object()
    {
        JsonNode n;
        n.kind = JsonNode::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return n;
        }
        while (true) {
            skipWs();
            JsonNode key = string();
            skipWs();
            expect(':');
            n.fields[key.text] = value();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return n;
        }
    }

    JsonNode array()
    {
        JsonNode n;
        n.kind = JsonNode::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return n;
        }
        while (true) {
            n.items.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return n;
        }
    }

    JsonNode string()
    {
        JsonNode n;
        n.kind = JsonNode::String;
        expect('"');
        while (true) {
            if (pos_ >= src_.size())
                fail("unterminated string");
            char c = src_[pos_++];
            if (c == '"')
                return n;
            if (c == '\\') {
                if (pos_ >= src_.size())
                    fail("unterminated escape");
                char e = src_[pos_++];
                switch (e) {
                  case '"': n.text += '"'; break;
                  case '\\': n.text += '\\'; break;
                  case '/': n.text += '/'; break;
                  case 'n': n.text += '\n'; break;
                  case 't': n.text += '\t'; break;
                  case 'u':
                    if (pos_ + 4 > src_.size())
                        fail("bad \\u escape");
                    // The exporter only emits \u00xx controls.
                    n.text += static_cast<char>(std::stoi(
                        src_.substr(pos_ + 2, 2), nullptr, 16));
                    pos_ += 4;
                    break;
                  default: fail("unknown escape");
                }
            } else {
                n.text += c;
            }
        }
    }

    JsonNode boolean()
    {
        JsonNode n;
        n.kind = JsonNode::Bool;
        if (src_.compare(pos_, 4, "true") == 0) {
            n.boolean = true;
            pos_ += 4;
        } else if (src_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return n;
    }

    JsonNode null()
    {
        if (src_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonNode{};
    }

    JsonNode number()
    {
        JsonNode n;
        n.kind = JsonNode::Number;
        std::size_t end = pos_;
        while (end < src_.size()
               && (std::isdigit(static_cast<unsigned char>(
                       src_[end]))
                   || src_[end] == '-' || src_[end] == '+'
                   || src_[end] == '.' || src_[end] == 'e'
                   || src_[end] == 'E'))
            ++end;
        if (end == pos_)
            fail("bad number");
        n.number = std::stod(src_.substr(pos_, end - pos_));
        pos_ = end;
        return n;
    }

    const std::string &src_;
    std::size_t pos_ = 0;
};

/** Canonical text form of an event for cross-run comparison.
 *  Host-clock fields (Engine ts/dur) are excluded: they are the
 *  only nondeterministic part of the contract. */
std::string
canonical(const TraceEvent &ev)
{
    std::string s = strfmt("%llu|%s|%s|%d",
                           static_cast<unsigned long long>(ev.track),
                           ev.name, categoryName(ev.cat),
                           static_cast<int>(ev.kind));
    if (ev.cat != Category::Engine)
        s += strfmt("|ts=%.17g|dur=%.17g", ev.ts, ev.dur);
    for (std::uint8_t i = 0; i < ev.numArgs; ++i)
        s += strfmt("|%s=%.17g", ev.argKey[i], ev.argVal[i]);
    return s;
}

} // namespace

TEST(TraceSession, DisabledEmitsAreNoOps)
{
    ASSERT_EQ(TraceSession::active(), nullptr);
    EXPECT_FALSE(CASH_TRACE_ON());
    // Must not crash or allocate a buffer anywhere.
    CASH_TRACE_INSTANT(Category::Runtime, "ignored", 1);
    TraceSession session;
    EXPECT_TRUE(session.drain().empty());
}

TEST(TraceSession, InstallUninstallGate)
{
    TraceSession session;
    session.install();
    EXPECT_EQ(TraceSession::active(), &session);
    EXPECT_TRUE(CASH_TRACE_ON());
    CASH_TRACE_INSTANT(Category::Runtime, "one", 5,
                       {{"k", 1}, {"j", 2.5}});
    session.uninstall();
    EXPECT_EQ(TraceSession::active(), nullptr);
    CASH_TRACE_INSTANT(Category::Runtime, "after", 6);

    auto events = session.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "one");
    EXPECT_EQ(events[0].kind, EventKind::Instant);
    EXPECT_DOUBLE_EQ(events[0].ts, usFromCycles(5));
    ASSERT_EQ(events[0].numArgs, 2);
    EXPECT_STREQ(events[0].argKey[0], "k");
    EXPECT_DOUBLE_EQ(events[0].argVal[0], 1.0);
    EXPECT_DOUBLE_EQ(events[0].argVal[1], 2.5);
}

TEST(TraceSession, SecondInstallIsFatal)
{
    TraceSession a;
    a.install();
    TraceSession b;
    EXPECT_THROW(b.install(), FatalError);
    a.uninstall();
}

TEST(TraceSession, RingOverflowKeepsNewestAndCounts)
{
    TraceConfig cfg;
    cfg.bufferCapacity = 16;
    TraceSession session(cfg);
    session.install();
    for (int i = 0; i < 100; ++i)
        CASH_TRACE_INSTANT(Category::Fabric, "e",
                           static_cast<Cycle>(i), {{"i", i}});
    session.uninstall();

    EXPECT_EQ(session.overwritten(), 84u);
    auto events = session.drain();
    ASSERT_EQ(events.size(), 16u);
    // Oldest-first among the survivors: 84..99.
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(events[i].argVal[0], 84.0 + i);
}

TEST(TraceSession, ExcessArgsAreDropped)
{
    TraceSession session;
    session.install();
    CASH_TRACE_INSTANT(Category::Cloud, "wide", 1,
                       {{"a", 1},
                        {"b", 2},
                        {"c", 3},
                        {"d", 4},
                        {"e", 5},
                        {"f", 6},
                        {"g", 7},
                        {"h", 8},
                        {"i", 9},
                        {"j", 10},
                        {"k", 11},
                        {"l", 12}});
    session.uninstall();
    auto events = session.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].numArgs, maxArgs);
    EXPECT_STREQ(events[0].argKey[maxArgs - 1], "j");
}

TEST(TraceSession, ConcurrentEmitStress)
{
    // Many threads hammer emits and metrics at once; with TSan in
    // CI's sanitize matrix this is the data-race probe. Counts must
    // come out exact: nothing torn, nothing dropped (buffers are
    // sized to hold every event).
    constexpr int kTracks = 8;
    constexpr int kPerTrack = 2000;
    constexpr int kThreads = 4;
    TraceConfig cfg;
    // Buffers are per *thread*: each of the kThreads threads emits
    // kTracks / kThreads tracks, and its ring must hold them all for
    // the exact-count check.
    cfg.bufferCapacity = 16384;
    TraceSession session(cfg);
    session.install();
    {
        std::vector<std::thread> threads;
        for (int w = 0; w < kThreads; ++w) {
            threads.emplace_back([w] {
                for (int t = w; t < kTracks; t += kThreads) {
                    TrackScope scope(
                        static_cast<std::uint64_t>(t + 1));
                    for (int i = 0; i < kPerTrack; ++i) {
                        CASH_TRACE_INSTANT(
                            Category::Runtime, "tick",
                            static_cast<Cycle>(i),
                            {{"track", t + 1}, {"i", i}});
                        CASH_METRIC_INC("stress.events");
                        CASH_METRIC_SAMPLE("stress.value",
                                           static_cast<double>(i));
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    session.uninstall();

    EXPECT_EQ(session.overwritten(), 0u);
    auto events = session.drain();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kTracks) * kPerTrack);
    // Canonical order: tracks ascending, emission order within.
    std::map<std::uint64_t, int> next;
    for (const TraceEvent &ev : events) {
        EXPECT_DOUBLE_EQ(ev.argVal[1], next[ev.track]);
        ++next[ev.track];
    }
    for (int t = 0; t < kTracks; ++t)
        EXPECT_EQ(next[static_cast<std::uint64_t>(t + 1)],
                  kPerTrack);

    auto &reg = MetricsRegistry::global();
    EXPECT_EQ(reg.counter("stress.events").value(),
              static_cast<std::uint64_t>(kTracks) * kPerTrack);
    EXPECT_EQ(reg.histogram("stress.value").count(),
              static_cast<std::uint64_t>(kTracks) * kPerTrack);
    EXPECT_DOUBLE_EQ(reg.histogram("stress.value").max(),
                     kPerTrack - 1.0);
}

TEST(TraceSession, EventContentsIdenticalAcrossThreadCounts)
{
    // The determinism contract: event contents — everything but
    // host-clock timestamps — are identical at any engine thread
    // count. Cells emit from their own track (assigned by the
    // engine in declaration order), so the canonical drain order
    // must agree too.
    auto run_once = [](std::size_t threads) {
        TraceSession session;
        session.install();
        harness::ExperimentEngine engine(threads);
        std::vector<harness::Cell> cells;
        for (std::uint64_t c = 0; c < 12; ++c) {
            harness::CellKey key{"trace_det", "", c, 7};
            cells.push_back({key, [c] {
                                 for (std::uint64_t i = 0; i < 50;
                                      ++i) {
                                     CASH_TRACE_SPAN(
                                         Category::Runtime, "work",
                                         i * 100, 100,
                                         {{"cell", c}, {"i", i}});
                                     CASH_METRIC_INC("det.events");
                                 }
                             }});
        }
        engine.run(std::move(cells));
        session.uninstall();
        std::vector<std::string> lines;
        for (const TraceEvent &ev : session.drain())
            lines.push_back(canonical(ev));
        lines.push_back(
            strfmt("metric=%llu",
                   static_cast<unsigned long long>(
                       MetricsRegistry::global()
                           .counter("det.events")
                           .value())));
        return lines;
    };

    auto serial = run_once(1);
    auto parallel = run_once(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "at line " << i;
    // Engine cell spans rode along (one per cell) on their own
    // tracks.
    std::size_t engine_events = 0;
    for (const std::string &l : serial)
        engine_events += l.find("|cell|engine|") != std::string::npos;
    EXPECT_EQ(engine_events, 12u);
}

TEST(ChromeExport, SchemaValidates)
{
    TraceSession session;
    session.install();
    {
        TrackScope scope(3, "named \"track\"");
        CASH_TRACE_INSTANT(Category::Cloud, "admit", 10,
                           {{"tenant", 1}});
        CASH_TRACE_SPAN(Category::Fabric, "EXPAND", 20, 5,
                        {{"vcore", 2}, {"stall", 5}});
        CASH_TRACE_COUNTER(Category::Runtime, "qos", 30, "value",
                           1.25);
    }
    session.uninstall();

    std::ostringstream out;
    writeChromeTrace(out, session);
    JsonNode root = JsonParser(out.str()).parse();

    ASSERT_EQ(root.kind, JsonNode::Object);
    ASSERT_TRUE(root.fields.count("traceEvents"));
    const JsonNode &events = root.fields["traceEvents"];
    ASSERT_EQ(events.kind, JsonNode::Array);
    // One metadata record (the named track) + three events.
    ASSERT_EQ(events.items.size(), 4u);

    std::map<std::string, int> phases;
    for (const JsonNode &ev : events.items) {
        ASSERT_EQ(ev.kind, JsonNode::Object);
        for (const char *req : {"name", "ph", "pid", "tid"})
            EXPECT_TRUE(ev.fields.count(req))
                << "missing field " << req;
        std::string ph = ev.fields.at("ph").text;
        ++phases[ph];
        if (ph == "M")
            continue; // metadata: no ts
        EXPECT_TRUE(ev.fields.count("ts"));
        EXPECT_TRUE(ev.fields.count("cat"));
        EXPECT_TRUE(ev.fields.count("args"));
        EXPECT_EQ(ev.fields.at("args").kind, JsonNode::Object);
        if (ph == "X") {
            EXPECT_TRUE(ev.fields.count("dur"));
        }
        if (ph == "I") {
            EXPECT_EQ(ev.fields.at("s").text, "t");
        }
    }
    EXPECT_EQ(phases["M"], 1);
    EXPECT_EQ(phases["I"], 1);
    EXPECT_EQ(phases["X"], 1);
    EXPECT_EQ(phases["C"], 1);

    // The escaped track name survives a round-trip.
    const JsonNode &meta = events.items[0];
    EXPECT_EQ(meta.fields.at("args").fields.at("name").text,
              "named \"track\"");
    // ph X carries its duration in microseconds.
    for (const JsonNode &ev : events.items) {
        if (ev.fields.at("ph").text == "X") {
            EXPECT_DOUBLE_EQ(ev.fields.at("dur").number,
                             usFromCycles(5));
        }
    }
}

TEST(ChromeExport, TraceLineEscapesAndSanitizes)
{
    TraceEvent ev;
    ev.name = "odd\"name\n";
    ev.cat = Category::Runtime;
    ev.kind = EventKind::Instant;
    ev.ts = 1.0;
    ev.track = 9;
    std::string line = chromeTraceLine(ev);
    JsonNode n = JsonParser(line).parse();
    EXPECT_EQ(n.fields.at("name").text, "odd\"name\n");
    EXPECT_EQ(n.fields.at("pid").number, 9.0);
}

TEST(Metrics, CountersAndHistograms)
{
    TraceSession session; // install resets the registry
    session.install();
    auto &reg = MetricsRegistry::global();
    CASH_METRIC_ADD("m.counter", 5);
    CASH_METRIC_INC("m.counter");
    for (int i = 1; i <= 100; ++i)
        CASH_METRIC_SAMPLE("m.hist", static_cast<double>(i));
    session.uninstall();

    EXPECT_EQ(reg.counter("m.counter").value(), 6u);
    const Histogram &h = reg.histogram("m.hist");
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // Approximate quantiles land within their half-octave bin.
    EXPECT_GE(h.quantile(0.5), 45.0);
    EXPECT_LE(h.quantile(0.5), 91.0);
    EXPECT_LE(h.quantile(1.0), 100.0);

    // A name cannot be both kinds.
    EXPECT_THROW(reg.histogram("m.counter"), FatalError);
    EXPECT_THROW(reg.counter("m.hist"), FatalError);

    // Rows are name-sorted and skip empty metrics.
    auto rows = reg.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "m.counter");
    EXPECT_EQ(rows[1].name, "m.hist");
    EXPECT_FALSE(reg.summaryTable().empty());

    std::ostringstream csv;
    reg.writeCsv(csv);
    EXPECT_NE(csv.str().find("metric,kind,count"),
              std::string::npos);
    EXPECT_NE(csv.str().find("m.hist"), std::string::npos);

    // The next install starts a fresh recording.
    TraceSession fresh;
    fresh.install();
    fresh.uninstall();
    EXPECT_EQ(reg.counter("m.counter").value(), 0u);
}

TEST(Metrics, CountWithoutASession)
{
    ASSERT_EQ(TraceSession::active(), nullptr);
    auto &reg = MetricsRegistry::global();
    const Counter &counter = reg.counter("nosession.counter");
    const Histogram &hist = reg.histogram("nosession.hist");
    const std::uint64_t before = counter.value();
    const std::uint64_t samples = hist.count();
    // The same three call sites run before and after a reset, so
    // the handles they resolved on their first run keep counting.
    auto bump = [] {
        CASH_METRIC_INC("nosession.counter");
        CASH_METRIC_ADD("nosession.counter", 4);
        CASH_METRIC_SAMPLE("nosession.hist", 2.5);
    };
    bump();
    bump();
    EXPECT_EQ(counter.value(), before + 10);
    EXPECT_EQ(hist.count(), samples + 2);

    // A session still starts from zero.
    TraceSession session;
    session.install();
    session.uninstall();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(hist.count(), 0u);
    bump();
    EXPECT_EQ(counter.value(), 5u);
    EXPECT_EQ(hist.count(), 1u);
}
