#include "baselines/experiment.hh"

#include "common/log.hh"
#include "workload/request.hh"
#include "workload/trace_gen.hh"

namespace cash
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Oracle:
        return "Optimal";
      case PolicyKind::ConvexOpt:
        return "ConvexOpt";
      case PolicyKind::RaceToIdle:
        return "RaceToIdle";
      case PolicyKind::Cash:
        return "CASH";
    }
    return "?";
}

AppModel
scalePhases(const AppModel &app, double factor)
{
    AppModel scaled = app;
    for (PhaseParams &p : scaled.phases) {
        p.lengthInsts = static_cast<InstCount>(
            static_cast<double>(p.lengthInsts) * factor);
        if (p.lengthInsts == 0)
            p.lengthInsts = 1;
    }
    return scaled;
}

RunOutput
runPolicy(const AppModel &app, const AppProfile &profile,
          PolicyKind kind, const ConfigSpace &space,
          const CostModel &cost, const ExperimentParams &params)
{
    SSim sim(params.fabric, params.sim);
    if (params.simMode == SimMode::Sampled)
        sim.setSampling(SimMode::Sampled);
    const VCoreConfig &start = space.base();
    auto id = sim.createVCore(start.slices, start.banks);
    if (!id)
        fatal("fabric cannot host the starting configuration");
    VirtualCore &vc = sim.vcore(*id);

    // Build the workload stream.
    std::unique_ptr<PhasedTraceSource> phased;
    std::unique_ptr<PacedSource> paced;
    std::unique_ptr<RequestSource> requests;
    if (app.isRequestDriven()) {
        requests = std::make_unique<RequestSource>(app.request,
                                                   params.seed);
        vc.bindSource(requests.get());
    } else {
        phased = std::make_unique<PhasedTraceSource>(
            app.phases, params.seed, true, 0);
        // Work arrives at the QoS rate: the paced stream is how
        // "maintain this throughput" becomes a workload property.
        paced = std::make_unique<PacedSource>(*phased,
                                              profile.qosTarget);
        vc.bindSource(paced.get());
    }

    // Build the policy.
    std::unique_ptr<Policy> policy;
    switch (kind) {
      case PolicyKind::Oracle:
        policy = std::make_unique<OraclePolicy>(
            sim, *id, app.qosKind, profile.qosTarget, space, cost,
            params.quantum, profile, phased.get(),
            app.isRequestDriven() ? &app.request : nullptr);
        break;
      case PolicyKind::ConvexOpt:
        policy = std::make_unique<ConvexOptPolicy>(
            sim, *id, app.qosKind, profile.qosTarget, space, cost,
            params.quantum, profile);
        break;
      case PolicyKind::RaceToIdle:
        policy = std::make_unique<RaceToIdlePolicy>(
            sim, *id, app.qosKind, profile.qosTarget, space, cost,
            params.quantum, profile);
        break;
      case PolicyKind::Cash: {
        RuntimeParams rp = params.runtime;
        rp.quantum = params.quantum;
        if (app.isRequestDriven()) {
            // Latency feedback is steep near saturation: damp the
            // loop harder so reconfiguration churn (whose stalls
            // themselves spike latency) cannot self-sustain.
            rp.deadband = 0.10;
            rp.stickiness = 0.20;
            rp.epsilon = 0.02;
        }
        policy = std::make_unique<CashPolicy>(
            sim, *id, app.qosKind, profile.qosTarget, space, cost,
            rp, params.seed ^ 0xca5f);
        break;
      }
    }

    policy->run(params.horizon);

    RunOutput out;
    out.policy = policy->name();
    out.stats = policy->stats();
    out.series = policy->series();
    out.qosTarget = profile.qosTarget;
    return out;
}

} // namespace cash
