#include "baselines/profile.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "harness/experiment_engine.hh"
#include "sim/ssim.hh"
#include "workload/request.hh"
#include "workload/trace_gen.hh"

namespace cash
{

namespace
{

/** Feasibility margin applied to derived throughput targets. */
constexpr double kTargetMargin = 0.92;
/** Headroom multiplier on the smallest worst-case latency (the
 *  paper's 110 Kcycles target is comfortably feasible at peak load
 *  by construction). */
constexpr double kLatencyHeadroom = 1.6;

} // namespace

double
measurePhaseIpc(const PhaseParams &phase_params,
                const VCoreConfig &config, const FabricParams &fabric,
                const SimParams &sim_params, InstCount warmup,
                InstCount measure, std::uint64_t seed)
{
    SSim sim(fabric, sim_params);
    auto id = sim.createVCore(config.slices, config.banks);
    if (!id)
        fatal("fabric too small for configuration %s",
              config.str().c_str());
    VirtualCore &vc = sim.vcore(*id);

    PhaseParams p = phase_params;
    p.lengthInsts = std::max<InstCount>(p.lengthInsts,
                                        warmup + measure);
    PhasedTraceSource warm({p}, seed, true, 0);
    CappedSource warm_cap(warm, warmup);
    vc.bindSource(&warm_cap);
    vc.runUntil(std::numeric_limits<Cycle>::max() / 2);

    Cycle c0 = vc.now();
    InstCount i0 = vc.meta().totalCommitted;
    PhasedTraceSource meas({p}, seed ^ 0x5a5au, true, 0);
    CappedSource meas_cap(meas, measure);
    vc.bindSource(&meas_cap);
    vc.runUntil(std::numeric_limits<Cycle>::max() / 2);

    Cycle cycles = vc.now() - c0;
    InstCount insts = vc.meta().totalCommitted - i0;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(insts) / static_cast<double>(cycles);
}

double
measureRequestLatency(const RequestStreamParams &stream,
                      double rate_per_mcycle,
                      const VCoreConfig &config,
                      const FabricParams &fabric,
                      const SimParams &sim_params, Cycle window,
                      std::uint64_t seed)
{
    SSim sim(fabric, sim_params);
    auto id = sim.createVCore(config.slices, config.banks);
    if (!id)
        fatal("fabric too small for configuration %s",
              config.str().c_str());
    VirtualCore &vc = sim.vcore(*id);

    RequestStreamParams constant = stream;
    constant.baseRatePerMcycle = rate_per_mcycle;
    constant.amplitude = 0.0;
    RequestSource src(constant, seed);
    vc.bindSource(&src);
    vc.runUntil(window);

    if (src.completed() == 0) {
        // Nothing finished inside the window: effectively saturated.
        return static_cast<double>(window);
    }
    // Penalize growing backlog (overload) by accounting queued
    // requests at the window-end age floor.
    double mean_done = src.latency().mean();
    if (src.backlog() > 4 * std::max<std::size_t>(1, src.completed()))
        return std::max(mean_done, static_cast<double>(window));
    return mean_done;
}

std::size_t
AppProfile::regions() const
{
    return kind == QosKind::Throughput ? phasePerf.size()
                                       : binLatency.size();
}

double
AppProfile::worstCasePerf(std::size_t k) const
{
    double worst = std::numeric_limits<double>::max();
    if (kind == QosKind::Throughput) {
        for (const auto &row : phasePerf)
            worst = std::min(worst, row[k]);
    } else {
        for (const auto &row : binLatency)
            worst = std::min(worst, 1.0 / std::max(row[k], 1e-9));
    }
    return worst;
}

bool
AppProfile::meets(std::size_t i, std::size_t k) const
{
    if (kind == QosKind::Throughput)
        return phasePerf[i][k] >= qosTarget;
    return binLatency[i][k] <= qosTarget;
}

std::size_t
AppProfile::cheapestMeeting(std::size_t i, const ConfigSpace &space,
                            const CostModel &cost) const
{
    constexpr std::size_t none = ~std::size_t(0);
    std::size_t best = none;
    double best_rate = 0.0;
    for (std::size_t k = 0; k < space.size(); ++k) {
        if (!meets(i, k))
            continue;
        double rate = cost.ratePerHour(space.at(k));
        if (best == none || rate < best_rate) {
            best = k;
            best_rate = rate;
        }
    }
    if (best != none)
        return best;
    // Infeasible region: fall back to the best performer.
    best = 0;
    double best_perf = -1.0;
    for (std::size_t k = 0; k < space.size(); ++k) {
        double perf = kind == QosKind::Throughput
            ? phasePerf[i][k]
            : 1.0 / std::max(binLatency[i][k], 1e-9);
        if (perf > best_perf) {
            best = k;
            best_perf = perf;
        }
    }
    return best;
}

std::size_t
AppProfile::cheapestMeetingAll(const ConfigSpace &space,
                               const CostModel &cost) const
{
    constexpr std::size_t none = ~std::size_t(0);
    std::size_t best = none;
    double best_rate = 0.0;
    for (std::size_t k = 0; k < space.size(); ++k) {
        bool ok = true;
        for (std::size_t i = 0; i < regions() && ok; ++i)
            ok = meets(i, k);
        if (!ok)
            continue;
        double rate = cost.ratePerHour(space.at(k));
        if (best == none || rate < best_rate) {
            best = k;
            best_rate = rate;
        }
    }
    if (best != none)
        return best;
    // No config meets the target everywhere: best worst-case.
    best = 0;
    double best_perf = -1.0;
    for (std::size_t k = 0; k < space.size(); ++k) {
        double perf = worstCasePerf(k);
        if (perf > best_perf) {
            best = k;
            best_perf = perf;
        }
    }
    return best;
}

double
AppProfile::averagePerf(std::size_t k) const
{
    double sum = 0.0;
    std::size_t n = regions();
    for (std::size_t i = 0; i < n; ++i) {
        sum += kind == QosKind::Throughput
            ? phasePerf[i][k]
            : 1.0 / std::max(binLatency[i][k], 1e-9);
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

AppProfile
characterize(harness::ExperimentEngine &engine, const AppModel &app,
             const ConfigSpace &space, const FabricParams &fabric,
             const SimParams &sim_params, const ProfileParams &params)
{
    AppProfile prof;
    prof.kind = app.qosKind;
    const std::size_t nk = space.size();

    if (app.qosKind == QosKind::Throughput) {
        // Every (phase, configuration) point is an independent
        // fresh-simulator run whose seed depends only on the
        // point, so the sweep fans out through the engine and is
        // scattered back by index.
        const std::size_t nph = app.phases.size();
        std::vector<double> flat = engine.map<double>(
            nph * nk,
            [&](std::size_t i) {
                std::size_t ph = i / nk, k = i % nk;
                return measurePhaseIpc(app.phases[ph], space.at(k),
                                       fabric, sim_params,
                                       params.warmupInsts,
                                       params.measureInsts,
                                       params.seed + ph);
            },
            [&](std::size_t i) {
                return harness::CellKey{
                    app.name, "phase:" + app.phases[i / nk].name,
                    i % nk, params.seed};
            });
        prof.phasePerf.assign(nph, std::vector<double>(nk));
        for (std::size_t ph = 0; ph < nph; ++ph) {
            for (std::size_t k = 0; k < nk; ++k)
                prof.phasePerf[ph][k] = flat[ph * nk + k];
        }
        // Target: the best IPC achievable in the worst phase.
        double best_worst = 0.0;
        for (std::size_t k = 0; k < nk; ++k)
            best_worst = std::max(best_worst, prof.worstCasePerf(k));
        prof.qosTarget = best_worst * kTargetMargin;
    } else {
        const std::size_t nb = params.rateBins;
        prof.binRates.resize(nb);
        double lo = app.request.baseRatePerMcycle
            * (1.0 - app.request.amplitude);
        double hi = app.request.baseRatePerMcycle
            * (1.0 + app.request.amplitude);
        for (std::size_t b = 0; b < nb; ++b) {
            double frac = nb > 1
                ? static_cast<double>(b)
                      / static_cast<double>(nb - 1)
                : 0.5;
            prof.binRates[b] = lo + frac * (hi - lo);
        }
        std::vector<double> flat = engine.map<double>(
            nb * nk,
            [&](std::size_t i) {
                std::size_t b = i / nk, k = i % nk;
                return measureRequestLatency(
                    app.request, prof.binRates[b], space.at(k),
                    fabric, sim_params, params.requestWindow,
                    params.seed + b);
            },
            [&](std::size_t i) {
                return harness::CellKey{
                    app.name,
                    strfmt("bin:%zu", i / nk), i % nk,
                    params.seed};
            });
        prof.binLatency.assign(nb, std::vector<double>(nk));
        for (std::size_t b = 0; b < nb; ++b) {
            for (std::size_t k = 0; k < nk; ++k)
                prof.binLatency[b][k] = flat[b * nk + k];
        }
        // Target: smallest achievable worst-bin latency, padded.
        double best_worst = std::numeric_limits<double>::max();
        for (std::size_t k = 0; k < nk; ++k) {
            double worst = 0.0;
            for (std::size_t b = 0; b < nb; ++b)
                worst = std::max(worst, prof.binLatency[b][k]);
            best_worst = std::min(best_worst, worst);
        }
        prof.qosTarget = best_worst * kLatencyHeadroom;
    }
    return prof;
}

AppProfile
characterize(const AppModel &app, const ConfigSpace &space,
             const FabricParams &fabric, const SimParams &sim_params,
             const ProfileParams &params)
{
    harness::ExperimentEngine engine;
    return characterize(engine, app, space, fabric, sim_params,
                        params);
}

} // namespace cash
