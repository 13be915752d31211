/**
 * @file
 * The experiment harness behind the paper's evaluation figures.
 *
 * runPolicy() reproduces one cell of Figs 7/10 (or one curve of
 * Figs 2/8/9): it instantiates a fresh chip, deploys the
 * application with its QoS target (throughput apps are paced at the
 * target — work arrives at the QoS rate, so a fast configuration
 * idles and a slow one accumulates backlog), runs the chosen
 * resource-allocation policy to a horizon, and returns cost, QoS
 * violations and the per-quantum time series.
 */

#ifndef CASH_BASELINES_EXPERIMENT_HH
#define CASH_BASELINES_EXPERIMENT_HH

#include <memory>
#include <string>

#include "baselines/policy.hh"
#include "baselines/profile.hh"
#include "core/runtime.hh"
#include "sim/sampler.hh"

namespace cash
{

/** Policy selector for runPolicy(). */
enum class PolicyKind
{
    Oracle,
    ConvexOpt,
    RaceToIdle,
    Cash,
};

/** Printable policy name. */
const char *policyName(PolicyKind kind);

/**
 * Shared experiment knobs.
 */
struct ExperimentParams
{
    FabricParams fabric;
    SimParams sim;
    /** Simulated horizon per run (cycles). */
    Cycle horizon = 75'000'000;
    /** Control quantum for all policies (cycles). */
    Cycle quantum = 500'000;
    /** Workload stream seed. */
    std::uint64_t seed = 5;
    /** Phase-length multiplier applied to throughput apps (the
     *  models define short phases; experiments stretch them to the
     *  paper's multi-quantum timescale). */
    double phaseScale = 8.0;
    /** CASH runtime tunables (quantum is overridden by `quantum`). */
    RuntimeParams runtime;
    /** Full or sampled simulation (bench --sampled sets Sampled;
     *  results then carry the error-gate bound, see DESIGN.md §12). */
    SimMode simMode = SimMode::Full;
};

/**
 * Result of one (app, policy) run.
 */
struct RunOutput
{
    std::string policy;
    PolicyStats stats;
    std::vector<SeriesPoint> series;
    double qosTarget = 0.0;
};

/** Copy an app model with phase lengths scaled. */
AppModel scalePhases(const AppModel &app, double factor);

/**
 * Execute one policy on one application.
 *
 * @param app the application (already phase-scaled if desired)
 * @param profile its characterization over `space`
 * @param kind which policy to run
 * @param space configuration space (full grid, or big.LITTLE)
 * @param cost pricing
 * @param params experiment knobs
 */
RunOutput
runPolicy(const AppModel &app, const AppProfile &profile,
          PolicyKind kind, const ConfigSpace &space,
          const CostModel &cost, const ExperimentParams &params);

} // namespace cash

#endif // CASH_BASELINES_EXPERIMENT_HH
