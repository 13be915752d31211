/**
 * @file
 * Tests of the benchmark's open-loop driver: the drawn op mix, latency
 * timed from the due time across a server stall, and reported
 * generator lateness.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <thread>

#include "driver.hh"
#include "util.hh"

namespace pb
{
namespace
{

using cash::service::Op;

TEST(DrawOp, MixMatchesConfiguredWeightsWhenTenantsAreOwned)
{
    Mix mix{0.45, 0.45, 0.05, 0.05, 0.0};
    cash::Rng rng(7);
    std::map<Op, int> n;
    constexpr int kDraws = 200'000;
    for (int i = 0; i < kDraws; ++i)
        ++n[drawOp(rng, mix, true)];
    EXPECT_EQ(n[Op::Step], 0);
    EXPECT_NEAR(n[Op::Ping] / double(kDraws), 0.45, 0.005);
    EXPECT_NEAR(n[Op::Query] / double(kDraws), 0.45, 0.005);
    EXPECT_NEAR(n[Op::Arrive] / double(kDraws), 0.05, 0.003);
    EXPECT_NEAR(n[Op::Depart] / double(kDraws), 0.05, 0.003);
}

TEST(DrawOp, EmptySessionTurnsQueryAndDepartIntoArrive)
{
    Mix mix{0.45, 0.45, 0.05, 0.05, 0.0};
    cash::Rng rng(11);
    std::map<Op, int> n;
    constexpr int kDraws = 100'000;
    for (int i = 0; i < kDraws; ++i)
        ++n[drawOp(rng, mix, false)];
    EXPECT_EQ(n[Op::Step], 0);
    EXPECT_EQ(n[Op::Query], 0);
    EXPECT_EQ(n[Op::Depart], 0);
    EXPECT_NEAR(n[Op::Ping] / double(kDraws), 0.45, 0.006);
    EXPECT_NEAR(n[Op::Arrive] / double(kDraws), 0.55, 0.006);
}

TEST(DrawOp, StepsOnlyWhenConfigured)
{
    Mix mix{0.0, 0.5, 0.0, 0.0, 0.5};
    cash::Rng rng(3);
    int steps = 0;
    for (int i = 0; i < 10'000; ++i)
        steps += drawOp(rng, mix, true) == Op::Step;
    EXPECT_NEAR(steps / 10'000.0, 0.5, 0.02);
}

/**
 * A one-connection stub server: answers every frame with
 * {"id":N,"ok":true}, except that it sleeps `stall_ms` once before
 * answering request `stall_at`, recording when the stall ended.
 */
class StubServer
{
  public:
    StubServer(int stall_at, double stall_ms)
    {
        int sv[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_ = sv[0];
        server_ = sv[1];
        thread_ = std::thread([this, stall_at, stall_ms] {
            cash::service::FrameDecoder dec;
            char buf[4096];
            int seen = 0;
            for (;;) {
                ssize_t n = ::read(server_, buf, sizeof buf);
                if (n <= 0)
                    return;
                dec.feed(buf, static_cast<std::size_t>(n));
                while (auto payload = dec.next()) {
                    auto doc = cash::service::parseJson(*payload);
                    std::uint64_t id = doc->getUint("id").value_or(0);
                    if (++seen == stall_at) {
                        ::usleep(static_cast<useconds_t>(stall_ms * 1e3));
                        stallEnd_ = nowUs();
                    }
                    std::string frame = cash::service::encodeFrame(
                        "{\"id\":" + std::to_string(id) + ",\"ok\":true}");
                    if (::write(server_, frame.data(), frame.size()) < 0)
                        return;
                }
            }
        });
    }

    ~StubServer()
    {
        ::shutdown(server_, SHUT_RDWR);
        thread_.join();
        ::close(server_);
    }

    StubServer(const StubServer &) = delete;
    StubServer &operator=(const StubServer &) = delete;

    int clientFd() const { return client_; }
    double stallEnd() const { return stallEnd_.load(); }

  private:
    int client_ = -1;
    int server_ = -1;
    std::atomic<double> stallEnd_{0.0};
    std::thread thread_;
};

/** Pings every `gap_us`, starting `first_due_us` after now. */
OpenLoopDriver::PlanFn
pingSchedule(int count, double gap_us, double first_due_us)
{
    auto sent = std::make_shared<int>(0);
    double t0 = nowUs() + first_due_us;
    return [=](double) -> std::optional<Planned> {
        if (*sent >= count)
            return std::nullopt;
        Planned p;
        p.due = t0 + gap_us * (*sent)++;
        p.req.op = Op::Ping;
        return p;
    };
}

TEST(OpenLoopDriver, LatencyFromDueTimeIncludesAServerStall)
{
    constexpr int kStallAt = 20;
    constexpr double kStallMs = 40.0;
    StubServer stub(kStallAt, kStallMs);
    OpenLoopDriver drv({stub.clientFd()}, false);
    // 1 ms apart: the stall spans ~40 later requests.
    ASSERT_TRUE(drv.run(pingSchedule(100, 1000.0, 1000.0),
                        [](Record &, const cash::service::JsonValue &) {},
                        2e6, 1));
    const std::deque<Record> &recs = drv.records();
    ASSERT_EQ(recs.size(), 100u);
    double stall_end = stub.stallEnd();
    ASSERT_GT(stall_end, 0.0);
    int delayed = 0;
    for (std::size_t i = kStallAt - 1; i < recs.size(); ++i) {
        const Record &r = recs[i];
        ASSERT_EQ(r.answers, 1);
        if (r.due < stall_end) {
            // Due before the stall ended: answered only after it, so
            // its latency covers the rest of the stall from its due
            // time, however early it was actually written.
            EXPECT_GE(r.latencyUs(), stall_end - r.due - 1.0) << i;
            ++delayed;
        }
    }
    EXPECT_GE(delayed, 30);
    // Before the stall, answers are prompt.
    EXPECT_LT(recs[5].latencyUs(), kStallMs * 1e3 / 2);
}

TEST(OpenLoopDriver, GeneratorLatenessIsReportedAndCounted)
{
    StubServer stub(-1, 0.0);
    OpenLoopDriver drv({stub.clientFd()}, false);
    // Every request was due 5 ms before the driver started, so each
    // is sent late and its latency includes that lateness.
    ASSERT_TRUE(drv.run(pingSchedule(10, 10.0, -5000.0),
                        [](Record &, const cash::service::JsonValue &) {},
                        2e6, 1));
    for (const Record &r : drv.records()) {
        EXPECT_GE(r.lateUs(), 4900.0);
        EXPECT_GE(r.latencyUs(), r.lateUs());
    }
    EXPECT_GT(drv.wallUs(), 0.0);
    EXPECT_GE(drv.busyUs(), 0.0);
    EXPECT_LE(drv.busyUs(), drv.wallUs());
}

TEST(OpenLoopDriver, EveryRequestAnsweredExactlyOnce)
{
    StubServer stub(-1, 0.0);
    OpenLoopDriver drv({stub.clientFd()}, true);
    ASSERT_TRUE(drv.run(pingSchedule(50, 100.0, 0.0),
                        [](Record &, const cash::service::JsonValue &) {},
                        2e6, 1));
    EXPECT_EQ(drv.outstanding(), 0u);
    EXPECT_EQ(drv.duplicates(), 0u);
    EXPECT_EQ(drv.strays(), 0u);
    for (const Record &r : drv.records()) {
        EXPECT_EQ(r.answers, 1);
        EXPECT_FALSE(r.reqPayload.empty());
        EXPECT_FALSE(r.respPayload.empty());
    }
}

} // namespace
} // namespace pb
