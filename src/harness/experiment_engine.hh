/**
 * @file
 * The parallel experiment-execution layer.
 *
 * The paper's evaluation (Figs 7-10, Table III) is a grid of fully
 * independent cells — (app, policy | config, params, seed) — and
 * every bench used to walk that grid serially. ExperimentEngine
 * models each unit of evaluation work as a Cell and executes the
 * whole set on its own N worker threads (CASH_BENCH_THREADS, or
 * hardware concurrency by default). A batch is one flat list: each
 * worker claims the next unstarted cell under one mutex and runs it
 * unlocked, so N threads run exactly N cells at once and a cell's
 * wall clock is not inflated by extra runners. The workers live as
 * long as the engine (trace rings are per thread, so a thread per
 * batch would allocate a ring per batch under --trace).
 *
 * Determinism contract: results are bit-identical regardless of the
 * thread count.
 *
 *  - Every cell owns its state: a fresh SSim per run, per-cell
 *    sources and policies, no mutable globals (audited: the only
 *    process-wide state in src/ is the log level and the const
 *    allApps() table).
 *  - A cell that needs randomness derives its stream from its
 *    CellKey via cellRng() — the existing xoshiro256** split — so
 *    the stream depends only on the key, never on scheduling.
 *  - run()/map() collect results by cell index and report timings
 *    in declaration order, so formatting code downstream observes
 *    the same sequence at any thread count. Exceptions are
 *    re-thrown from the first failing cell in declaration order.
 *
 * The engine records per-cell wall-clock and can append a
 * machine-readable JSON summary ({bench, threads, wall_ms, cells})
 * next to the CSV output (CASH_BENCH_CSV), giving bench_out/ a perf
 * trajectory future changes can be compared against.
 */

#ifndef CASH_HARNESS_EXPERIMENT_ENGINE_HH
#define CASH_HARNESS_EXPERIMENT_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace cash::harness
{

/**
 * Identity of one independent evaluation cell. The key both labels
 * the cell in reports and seeds its random streams.
 */
struct CellKey
{
    /** What is being evaluated (usually the application name). */
    std::string subject;
    /** Which treatment (policy, scheme, phase, variant...). */
    std::string variant;
    /** Configuration / sweep-point index within the variant. */
    std::uint64_t config = 0;
    /** Base seed of the experiment this cell belongs to. */
    std::uint64_t seed = 0;

    bool operator==(const CellKey &o) const = default;

    /** "subject/variant[config]@seed" for logs and reports. */
    std::string str() const;
};

/**
 * Derive the cell's 64-bit stream seed from its key alone. Fields
 * are mixed with explicit separators (so {"ab","c"} and {"a","bc"}
 * differ) and the result is passed through the xoshiro256** split
 * (Rng::fork) to decorrelate nearby keys.
 */
std::uint64_t cellStream(const CellKey &key);

/** An Rng positioned at the start of the cell's private stream. */
Rng cellRng(const CellKey &key);

/** Worker count from CASH_BENCH_THREADS, else hardware concurrency
 *  (at least 1). Values that fail to parse warn and fall back to 1. */
std::size_t defaultThreadCount();

/** One unit of evaluation work. */
struct Cell
{
    CellKey key;
    std::function<void()> fn;
};

/** Wall-clock record of one executed cell. */
struct CellTiming
{
    CellKey key;
    double millis = 0.0;
};

/** Accumulated execution record of an engine. */
struct EngineReport
{
    std::size_t threads = 0;
    /** Sum of run()-call wall times (not of cell times). */
    double wallMillis = 0.0;
    /** Per-cell wall clock, in declaration order. */
    std::vector<CellTiming> cells;
};

/**
 * Executes batches of independent cells on the engine's own worker
 * threads, at most threads() cells at a time.
 */
class ExperimentEngine
{
  public:
    /** Starts the workers.
     *  @param threads worker count; 0 means defaultThreadCount(). */
    explicit ExperimentEngine(std::size_t threads = 0);

    /** Joins the workers. */
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    std::size_t threads() const { return workers_.size(); }

    /**
     * Execute every cell, in parallel, and return once all have
     * finished. Per-cell wall clock is appended to the report in
     * declaration order. If cells threw, the exception of the
     * first throwing cell (by declaration order, not completion
     * order) is re-thrown.
     *
     * Call run() (and map()) from one thread and never from inside
     * a cell: the engine holds one batch at a time, and the caller
     * only waits for it.
     */
    void run(std::vector<Cell> cells);

    /**
     * Typed fan-out: evaluate fn(i) for i in [0, n) and return the
     * results in index order. `key(i)` labels each cell for the
     * report. T must be default-constructible and movable.
     */
    template <typename T, typename Fn, typename KeyFn>
    std::vector<T>
    map(std::size_t n, Fn fn, KeyFn key)
    {
        std::vector<T> results(n);
        std::vector<Cell> cells;
        cells.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            cells.push_back(Cell{key(i), [i, &results, &fn] {
                                     results[i] = fn(i);
                                 }});
        }
        run(std::move(cells));
        return results;
    }

    /** map() with anonymous keys ("label[i]"). */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn fn, const std::string &label = "cell")
    {
        return map<T>(n, std::move(fn), [&label](std::size_t i) {
            return CellKey{label, "", i, 0};
        });
    }

    const EngineReport &report() const { return report_; }

    /**
     * Serialize the report as JSON:
     * {"bench":..., "threads":..., "wall_ms":..., "cells":[...]}.
     */
    std::string jsonSummary(const std::string &bench_name) const;

    /**
     * When CASH_BENCH_CSV names a directory, write the JSON
     * summary to <dir>/<bench_name>_engine.json alongside the CSV
     * output; warn() (once per engine) if the file cannot be
     * opened. No-op when the variable is unset.
     */
    void writeJsonSummary(const std::string &bench_name);

  private:
    void workerLoop();
    /** Stop the started workers and join them. */
    void joinWorkers();

    EngineReport report_;
    bool warnedJson_ = false;

    std::mutex mutex_;
    std::condition_variable posted_;   ///< a batch arrived, or stop
    std::condition_variable finished_; ///< the batch's cells returned
    /** The current batch: per-cell wrappers built by run(). */
    std::vector<std::function<void()>> batch_;
    std::size_t next_ = 0; ///< first unclaimed index in batch_
    std::size_t done_ = 0; ///< wrappers in batch_ that returned
    bool stopping_ = false;
    /** Declared last: every member above outlives the workers. */
    std::vector<std::thread> workers_;
};

} // namespace cash::harness

#endif // CASH_HARNESS_EXPERIMENT_ENGINE_HH
