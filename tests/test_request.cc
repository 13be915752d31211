/**
 * @file
 * Tests for the open-loop request stream.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "workload/request.hh"

namespace cash
{
namespace
{

RequestStreamParams
baseParams()
{
    RequestStreamParams p;
    p.baseRatePerMcycle = 50.0;
    p.amplitude = 0.0;
    p.period = 10'000'000;
    p.meanInstsPerRequest = 1000;
    p.minInstsPerRequest = 100;
    p.mix.name = "req";
    p.mix.lengthInsts = 1000;
    return p;
}

TEST(Request, ConstantRateMatches)
{
    RequestSource src(baseParams(), 7);
    // Drain instructions at a generous clock so arrivals dominate.
    Cycle now = 0;
    std::uint64_t insts = 0;
    while (now < 10'000'000) {
        FetchResult fr = src.next(now);
        if (fr.kind == FetchResult::Kind::IdleUntil) {
            now = fr.idleUntil;
        } else {
            ++insts;
            now += 1; // IPC 1 consumer
        }
    }
    // 50 req/Mcycle over 10 Mcycles = ~500 arrivals.
    EXPECT_NEAR(static_cast<double>(src.arrivals()), 500.0, 75.0);
}

TEST(Request, OscillationChangesRate)
{
    RequestStreamParams p = baseParams();
    p.amplitude = 0.8;
    RequestSource src(p, 7);
    double peak = src.rateAt(p.period / 4);   // sin = 1
    double trough = src.rateAt(3 * p.period / 4);
    EXPECT_NEAR(peak, 90.0, 1.0);
    EXPECT_NEAR(trough, 10.0, 1.0);
    EXPECT_NEAR(src.rateAt(0), 50.0, 1.0);
}

TEST(Request, EndOfRequestMarked)
{
    RequestSource src(baseParams(), 7);
    Cycle now = 0;
    std::uint64_t started = 0, ended = 0;
    for (int i = 0; i < 20000; ++i) {
        FetchResult fr = src.next(now);
        if (fr.kind == FetchResult::Kind::IdleUntil) {
            now = fr.idleUntil;
            continue;
        }
        ++now;
        if (fr.op.endOfRequest) {
            ++ended;
            EXPECT_NE(fr.op.request, invalidRequest);
        }
        if (fr.op.request != invalidRequest)
            started = std::max(started, fr.op.request);
    }
    EXPECT_GT(ended, 5u);
    EXPECT_GE(started, ended);
}

TEST(Request, LatencyRecordedOnCommit)
{
    RequestSource src(baseParams(), 7);
    MicroOp op;
    op.endOfRequest = true;
    op.request = 1;
    op.requestArrival = 1000;
    src.onCommit(op, 5000);
    EXPECT_EQ(src.completed(), 1u);
    EXPECT_DOUBLE_EQ(src.latency().mean(), 4000.0);
}

TEST(Request, BacklogGrowsWhenUnserved)
{
    RequestSource src(baseParams(), 7);
    // Never fetch; just observe the queue by asking at a late time.
    FetchResult fr = src.next(5'000'000);
    EXPECT_EQ(fr.kind, FetchResult::Kind::Inst);
    EXPECT_GT(src.backlog(), 100u);
}

TEST(Request, IdleWhenQueueEmpty)
{
    RequestStreamParams p = baseParams();
    p.baseRatePerMcycle = 0.5; // sparse
    RequestSource src(p, 7);
    FetchResult fr = src.next(0);
    if (fr.kind == FetchResult::Kind::IdleUntil) {
        EXPECT_GT(fr.idleUntil, 0u);
    }
}

TEST(Request, MinimumSizeEnforced)
{
    RequestStreamParams p = baseParams();
    p.meanInstsPerRequest = 120;
    p.minInstsPerRequest = 100;
    RequestSource src(p, 9);
    Cycle now = 0;
    std::uint64_t run = 0;
    for (int i = 0; i < 50000; ++i) {
        FetchResult fr = src.next(now);
        if (fr.kind == FetchResult::Kind::IdleUntil) {
            now = fr.idleUntil;
            continue;
        }
        ++now;
        ++run;
        if (fr.op.endOfRequest) {
            EXPECT_GE(run, 100u);
            run = 0;
        }
    }
}

TEST(Request, BadParamsRejected)
{
    RequestStreamParams p = baseParams();
    p.baseRatePerMcycle = 0;
    EXPECT_THROW(RequestSource(p, 1), FatalError);
    p = baseParams();
    p.amplitude = 1.0;
    EXPECT_THROW(RequestSource(p, 1), FatalError);
    p = baseParams();
    p.period = 0;
    EXPECT_THROW(RequestSource(p, 1), FatalError);
    p = baseParams();
    p.meanInstsPerRequest = 10;
    p.minInstsPerRequest = 100;
    EXPECT_THROW(RequestSource(p, 1), FatalError);
}

TEST(Request, DeterministicAcrossRuns)
{
    RequestSource a(baseParams(), 42), b(baseParams(), 42);
    Cycle now = 0;
    for (int i = 0; i < 5000; ++i) {
        FetchResult fa = a.next(now), fb = b.next(now);
        ASSERT_EQ(fa.kind, fb.kind);
        if (fa.kind == FetchResult::Kind::IdleUntil) {
            EXPECT_EQ(fa.idleUntil, fb.idleUntil);
            now = fa.idleUntil;
        } else {
            EXPECT_EQ(fa.op.request, fb.op.request);
            ++now;
        }
    }
}

} // namespace
} // namespace cash
