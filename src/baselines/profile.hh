/**
 * @file
 * Exhaustive application characterization (paper Sec V-C).
 *
 * The paper constructs its oracle by "running all applications in
 * every possible configuration of the CASH architecture", manually
 * identifying phases, and brute-forcing the lowest-cost resource
 * combination for any performance goal. This module is that
 * machinery:
 *
 *  - Throughput apps: for every (phase, configuration) pair, run
 *    the phase's stationary mix on a fresh virtual core (warm-up
 *    discarded) and record IPC.
 *  - Request apps: for every (arrival-rate bin, configuration)
 *    pair, run a constant-rate request stream and record the mean
 *    request latency.
 *
 * The profile also derives the experiment QoS targets:
 *  - throughput: the paper's "highest worst case IPC" — the best
 *    IPC that is achievable in the app's worst phase by some
 *    configuration (with a small feasibility margin);
 *  - latency: the paper's "smallest possible worst-case latency"
 *    (110 Kcycles/request for their apache), again with margin.
 */

#ifndef CASH_BASELINES_PROFILE_HH
#define CASH_BASELINES_PROFILE_HH

#include <cstdint>
#include <vector>

#include "core/config_space.hh"
#include "fabric/grid.hh"
#include "sim/params.hh"
#include "workload/apps.hh"

namespace cash
{

namespace harness
{
class ExperimentEngine;
} // namespace harness

/**
 * Characterization effort knobs.
 */
struct ProfileParams
{
    /** Instructions discarded before measuring (per point). */
    InstCount warmupInsts = 40'000;
    /** Instructions measured (per point). */
    InstCount measureInsts = 80'000;
    /** Cycles simulated per (rate bin, config) point. */
    Cycle requestWindow = 3'000'000;
    /** Number of arrival-rate bins for request apps. */
    std::uint32_t rateBins = 5;
    /** Stream seed. */
    std::uint64_t seed = 999;
};

/**
 * The complete characterization of one application.
 */
struct AppProfile
{
    QosKind kind = QosKind::Throughput;
    /** perf[phase][config] = IPC (throughput apps). */
    std::vector<std::vector<double>> phasePerf;
    /** Rate of each bin in requests/Mcycle (request apps). */
    std::vector<double> binRates;
    /** latency[bin][config] = mean cycles/request (request apps). */
    std::vector<std::vector<double>> binLatency;
    /** Derived QoS target: IPC floor, or latency ceiling. */
    double qosTarget = 0.0;

    /** Worst-phase IPC (or worst-bin inverse latency) of config k. */
    double worstCasePerf(std::size_t k) const;

    /** True if config k meets the target in phase/bin i. */
    bool meets(std::size_t i, std::size_t k) const;

    /**
     * Cheapest configuration meeting the target in phase/bin i,
     * or the best-performing one if none does.
     */
    std::size_t cheapestMeeting(std::size_t i,
                                const ConfigSpace &space,
                                const CostModel &cost) const;

    /**
     * Cheapest configuration meeting the target in *every*
     * phase/bin (the race-to-idle worst-case allocation), or the
     * best worst-case performer if none qualifies.
     */
    std::size_t cheapestMeetingAll(const ConfigSpace &space,
                                   const CostModel &cost) const;

    /** Number of phases (or rate bins). */
    std::size_t regions() const;

    /** Average performance of config k across phases/bins —
     *  the convex baseline's "average case" model. */
    double averagePerf(std::size_t k) const;
};

/**
 * Characterize one application over a configuration space, fanning
 * the (phase | rate bin) x configuration sweep out through the
 * engine. Every sweep point runs on a fresh simulator with a seed
 * derived only from the profile parameters and the point itself,
 * so the result is bit-identical at any thread count.
 *
 * @param engine parallel execution engine for the sweep
 * @param app the application model
 * @param space configurations to sweep
 * @param fabric chip geometry
 * @param sim_params microarchitecture parameters
 * @param params effort knobs
 */
AppProfile
characterize(harness::ExperimentEngine &engine, const AppModel &app,
             const ConfigSpace &space, const FabricParams &fabric,
             const SimParams &sim_params,
             const ProfileParams &params = ProfileParams());

/**
 * Convenience overload running the sweep on a private engine
 * (CASH_BENCH_THREADS or hardware-concurrency workers).
 */
AppProfile
characterize(const AppModel &app, const ConfigSpace &space,
             const FabricParams &fabric, const SimParams &sim_params,
             const ProfileParams &params = ProfileParams());

/**
 * Measure steady-state IPC of a single phase on one configuration.
 * Exposed for Fig 1 (the per-phase contour sweep).
 */
double
measurePhaseIpc(const PhaseParams &phase_params,
                const VCoreConfig &config, const FabricParams &fabric,
                const SimParams &sim_params, InstCount warmup,
                InstCount measure, std::uint64_t seed);

/**
 * Measure mean request latency at a constant arrival rate.
 */
double
measureRequestLatency(const RequestStreamParams &stream,
                      double rate_per_mcycle,
                      const VCoreConfig &config,
                      const FabricParams &fabric,
                      const SimParams &sim_params, Cycle window,
                      std::uint64_t seed);

} // namespace cash

#endif // CASH_BASELINES_PROFILE_HH
