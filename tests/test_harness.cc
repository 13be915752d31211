/**
 * @file
 * Tests for the ExperimentEngine layer: deterministic collection,
 * exception propagation, reporting, the bound on cells in flight,
 * the cell-key -> RNG stream derivation, and the headline
 * determinism regression — one Fig-7-style cell set run with 1
 * thread and with N threads must produce bit-identical RunOutput
 * stats and series.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/log.hh"
#include "harness/eval_grid.hh"
#include "harness/experiment_engine.hh"

namespace cash
{
namespace
{

TEST(ExperimentEngine, MapCollectsInIndexOrder)
{
    harness::ExperimentEngine engine(4);
    std::vector<std::uint64_t> out = engine.map<std::uint64_t>(
        100, [](std::size_t i) { return Rng(i).next(); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], Rng(i).next());
}

TEST(ExperimentEngine, PropagatesFirstExceptionInDeclarationOrder)
{
    harness::ExperimentEngine engine(4);
    std::vector<harness::Cell> cells;
    for (std::size_t i = 0; i < 16; ++i) {
        cells.push_back({{"test", "throws", i, 0}, [i] {
            // Two cells throw; the one declared first must win no
            // matter which thread reaches it first.
            if (i == 3)
                fatal("cell three failed");
            if (i == 11)
                fatal("cell eleven failed");
        }});
    }
    try {
        engine.run(std::move(cells));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "cell three failed");
    }
}

TEST(ExperimentEngine, ReportRecordsEveryCell)
{
    harness::ExperimentEngine engine(2);
    EXPECT_EQ(engine.threads(), 2u);
    engine.map<int>(7, [](std::size_t i) {
        return static_cast<int>(i);
    });
    engine.map<int>(5, [](std::size_t i) {
        return static_cast<int>(i);
    });
    EXPECT_EQ(engine.report().cells.size(), 12u);
    EXPECT_EQ(engine.report().threads, 2u);
    for (const harness::CellTiming &t : engine.report().cells)
        EXPECT_GE(t.millis, 0.0);
}

TEST(ExperimentEngine, RunsAtMostThreadsCellsAtOnce)
{
    // The calling thread only waits: N workers run N cells at once,
    // never more, so per-cell wall clock is not inflated.
    for (std::size_t threads : {1u, 3u}) {
        harness::ExperimentEngine engine(threads);
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        engine.map<int>(24, [&](std::size_t) {
            int now = ++running;
            int seen = peak.load();
            while (now > seen
                   && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            --running;
            return 0;
        });
        EXPECT_EQ(peak.load(), static_cast<int>(threads))
            << threads << " thread(s)";
    }
}

TEST(ExperimentEngine, DefaultThreadCountIsPositive)
{
    EXPECT_GE(harness::defaultThreadCount(), 1u);
    harness::ExperimentEngine engine;
    EXPECT_EQ(engine.threads(), harness::defaultThreadCount());
}

TEST(ExperimentEngine, RunsTheNextBatchAfterACellThrew)
{
    // Every third cell throws: each one still runs, the first is
    // re-thrown, no worker dies, and the engine takes a new batch.
    harness::ExperimentEngine engine(4);
    std::atomic<int> ran{0};
    try {
        engine.map<int>(300, [&ran](std::size_t i) {
            ++ran;
            if (i % 3 == 1)
                throw std::runtime_error("cell " + std::to_string(i));
            return 0;
        });
        FAIL() << "expected the first cell's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 1");
    }
    EXPECT_EQ(ran.load(), 300);

    std::vector<std::uint64_t> out = engine.map<std::uint64_t>(
        50, [](std::size_t i) { return Rng(i).next(); });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], Rng(i).next());
    EXPECT_EQ(engine.report().cells.size(), 350u);
}

// Run under TSan in CI: many tiny cells keep the workers contending
// for the batch mutex, and batches follow each other back to back.
TEST(ExperimentEngine, ManySmallCellsUnderContention)
{
    harness::ExperimentEngine engine(8);
    constexpr std::size_t kBatches = 20;
    constexpr std::size_t kCells = 1'000;
    for (std::size_t b = 0; b < kBatches; ++b) {
        std::atomic<std::uint64_t> sum{0};
        std::vector<harness::Cell> cells;
        cells.reserve(kCells);
        for (std::size_t i = 0; i < kCells; ++i)
            cells.push_back(
                {{"tiny", "", i, b}, [i, &sum] { sum += i; }});
        engine.run(std::move(cells));
        EXPECT_EQ(sum.load(), kCells * (kCells - 1) / 2)
            << "batch " << b;
    }
    EXPECT_EQ(engine.report().cells.size(), kBatches * kCells);
}

TEST(ExperimentEngine, JsonSummaryListsCells)
{
    harness::ExperimentEngine engine(1);
    engine.map<int>(
        3, [](std::size_t i) { return static_cast<int>(i); },
        [](std::size_t i) {
            return harness::CellKey{"subj", "var\"iant", i, 9};
        });
    std::string json = engine.jsonSummary("mybench");
    EXPECT_NE(json.find("\"bench\":\"mybench\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\":1"), std::string::npos);
    EXPECT_NE(json.find("\"subject\":\"subj\""), std::string::npos);
    EXPECT_NE(json.find("var\\\"iant"), std::string::npos);
    EXPECT_NE(json.find("\"seed\":9"), std::string::npos);
}

TEST(ExperimentEngine, WritesJsonSummaryNextToCsv)
{
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("CASH_BENCH_CSV", dir.c_str(), 1), 0);
    {
        harness::ExperimentEngine engine(1);
        engine.map<int>(2, [](std::size_t i) {
            return static_cast<int>(i);
        });
        engine.writeJsonSummary("enginetest");
    }
    unsetenv("CASH_BENCH_CSV");
    std::ifstream file(dir + "/enginetest_engine.json");
    ASSERT_TRUE(file.is_open());
    std::string content((std::istreambuf_iterator<char>(file)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"bench\":\"enginetest\""),
              std::string::npos);
    EXPECT_NE(content.find("\"cells\":["), std::string::npos);
}

// ---- Cell-key -> stream derivation ----

TEST(CellStream, DeterministicPerKey)
{
    harness::CellKey key{"x264", "CASH", 3, 5};
    EXPECT_EQ(harness::cellStream(key), harness::cellStream(key));
    Rng a = harness::cellRng(key);
    Rng b = harness::cellRng(key);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(CellStream, EveryFieldChangesTheStream)
{
    harness::CellKey base{"x264", "CASH", 3, 5};
    std::set<std::uint64_t> streams;
    streams.insert(harness::cellStream(base));
    harness::CellKey k1 = base;
    k1.subject = "apache";
    streams.insert(harness::cellStream(k1));
    harness::CellKey k2 = base;
    k2.variant = "Optimal";
    streams.insert(harness::cellStream(k2));
    harness::CellKey k3 = base;
    k3.config = 4;
    streams.insert(harness::cellStream(k3));
    harness::CellKey k4 = base;
    k4.seed = 6;
    streams.insert(harness::cellStream(k4));
    EXPECT_EQ(streams.size(), 5u);
}

TEST(CellStream, FieldBoundariesDoNotAlias)
{
    // {"ab","c"} and {"a","bc"} must not hash alike.
    harness::CellKey a{"ab", "c", 0, 0};
    harness::CellKey b{"a", "bc", 0, 0};
    EXPECT_NE(harness::cellStream(a), harness::cellStream(b));
}

TEST(CellStream, NearbyKeysDecorrelate)
{
    // Consecutive configs must not yield correlated first draws
    // (the xoshiro256** split decorrelates them); check the
    // distribution of first doubles is not monotone in config.
    std::vector<double> first;
    for (std::uint64_t k = 0; k < 16; ++k) {
        harness::CellKey key{"app", "pol", k, 1};
        first.push_back(harness::cellRng(key).nextDouble());
    }
    bool monotone = true;
    for (std::size_t i = 1; i < first.size(); ++i)
        monotone = monotone && first[i] > first[i - 1];
    EXPECT_FALSE(monotone);
    std::set<double> uniq(first.begin(), first.end());
    EXPECT_EQ(uniq.size(), first.size());
}

// ---- Determinism regression (Fig-7-style cells) ----

AppModel
phasedApp()
{
    AppModel a;
    a.name = "toy";
    a.seed = 3;
    PhaseParams fast;
    fast.name = "compute";
    fast.ilpMeanDist = 30;
    fast.memFrac = 0.15;
    fast.workingSet = 64 * kiB;
    fast.seqFrac = 0.7;
    fast.lengthInsts = 400'000;
    PhaseParams slow;
    slow.name = "memory";
    slow.ilpMeanDist = 3;
    slow.memFrac = 0.45;
    slow.workingSet = 512 * kiB;
    slow.seqFrac = 0.1;
    slow.lengthInsts = 400'000;
    slow.dataBase = 64 * miB;
    a.phases = {fast, slow};
    return a;
}

std::vector<harness::EvalResult>
runFig7Cells(std::size_t threads)
{
    ConfigSpace space(4, 8); // 4 slices x 4 bank steps = 16
    CostModel cost;
    ExperimentParams ep;
    ep.horizon = 6'000'000;
    ep.quantum = 500'000;
    ep.phaseScale = 2.0;
    AppModel app = harness::prepareApp(phasedApp(), ep);

    ProfileParams pp;
    pp.warmupInsts = 5'000;
    pp.measureInsts = 10'000;

    harness::ExperimentEngine engine(threads);
    std::vector<harness::EvalSpec> specs;
    for (PolicyKind k : {PolicyKind::Oracle, PolicyKind::ConvexOpt,
                         PolicyKind::RaceToIdle, PolicyKind::Cash})
        specs.push_back({"", app, k, &space, ep});
    return harness::runEvalGrid(engine, specs, cost, pp);
}

TEST(Determinism, ThreadCountDoesNotChangeResults)
{
    std::vector<harness::EvalResult> serial = runFig7Cells(1);
    std::vector<harness::EvalResult> parallel = runFig7Cells(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const harness::EvalResult &a = serial[i];
        const harness::EvalResult &b = parallel[i];
        SCOPED_TRACE(a.label);
        EXPECT_EQ(a.appName, b.appName);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.out.policy, b.out.policy);

        // Characterization: bit-identical profiles.
        ASSERT_EQ(a.profile.phasePerf.size(),
                  b.profile.phasePerf.size());
        for (std::size_t ph = 0; ph < a.profile.phasePerf.size();
             ++ph)
            EXPECT_EQ(a.profile.phasePerf[ph],
                      b.profile.phasePerf[ph]);
        EXPECT_EQ(a.profile.qosTarget, b.profile.qosTarget);

        // Run stats: bit-identical (== on doubles, no tolerance).
        EXPECT_EQ(a.out.stats.cost, b.out.stats.cost);
        EXPECT_EQ(a.out.stats.cycles, b.out.stats.cycles);
        EXPECT_EQ(a.out.stats.busyCycles, b.out.stats.busyCycles);
        EXPECT_EQ(a.out.stats.samples, b.out.stats.samples);
        EXPECT_EQ(a.out.stats.violations, b.out.stats.violations);
        EXPECT_EQ(a.out.stats.qosSum, b.out.stats.qosSum);
        EXPECT_EQ(a.out.stats.reconfigs, b.out.stats.reconfigs);
        EXPECT_EQ(a.out.qosTarget, b.out.qosTarget);
        EXPECT_EQ(a.costRate, b.costRate);

        // Full time series: bit-identical point by point.
        ASSERT_EQ(a.out.series.size(), b.out.series.size());
        for (std::size_t p = 0; p < a.out.series.size(); ++p) {
            EXPECT_EQ(a.out.series[p].cycle, b.out.series[p].cycle);
            EXPECT_EQ(a.out.series[p].costRate,
                      b.out.series[p].costRate);
            EXPECT_EQ(a.out.series[p].qos, b.out.series[p].qos);
            EXPECT_EQ(a.out.series[p].config,
                      b.out.series[p].config);
        }
    }
}

} // namespace
} // namespace cash
