/**
 * @file
 * The resource-allocation policies the paper compares (Sec VI).
 *
 *  - OraclePolicy: per-phase (or per-rate-bin) cheapest
 *    configuration that meets the QoS target, from the brute-force
 *    characterization — the paper's "Optimal".
 *  - RaceToIdlePolicy: the single cheapest configuration meeting
 *    the target in the worst case, held forever. For paced
 *    (throughput) workloads idling is free per the paper's
 *    optimistic assumption; for latency workloads the reservation
 *    is charged continuously ("always reserves resources").
 *  - ConvexOptPolicy: a feedback controller over a *fixed convex
 *    average-case model* — only configurations on the upper convex
 *    hull of (cost, average speedup) are reachable, so per-phase
 *    local optima are invisible to it.
 *  - CashPolicy: adapter over the real CashRuntime (Sec IV).
 *
 * Coarse-grain (big.LITTLE) variants are the same policies run on
 * a two-configuration custom ConfigSpace.
 *
 * Every policy records a per-quantum time series (cost rate,
 * normalized QoS, configuration) for the paper's Figs 2/8/9.
 */

#ifndef CASH_BASELINES_POLICY_HH
#define CASH_BASELINES_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/profile.hh"
#include "core/monitor.hh"
#include "core/optimizer.hh"
#include "core/runtime.hh"
#include "sim/ssim.hh"
#include "workload/trace_gen.hh"

namespace cash
{

/**
 * One time-series observation (per quantum).
 */
struct SeriesPoint
{
    Cycle cycle = 0;
    double costRate = 0.0; ///< $/hr being charged
    double qos = 0.0;      ///< normalized (1.0 = on target)
    std::size_t config = 0;
};

/**
 * Aggregated policy statistics.
 */
struct PolicyStats
{
    double cost = 0.0;
    Cycle cycles = 0;
    Cycle busyCycles = 0;
    std::uint64_t samples = 0;
    std::uint64_t violations = 0;
    double qosSum = 0.0;
    std::uint32_t reconfigs = 0;

    double
    meanQos() const
    {
        return samples ? qosSum / static_cast<double>(samples) : 0.0;
    }

    double
    violationPct() const
    {
        return samples ? 100.0 * static_cast<double>(violations)
                / static_cast<double>(samples)
                       : 0.0;
    }
};

/**
 * Abstract policy: drives one virtual core quantum by quantum.
 */
class Policy
{
  public:
    Policy(std::string name, Cycle quantum);
    virtual ~Policy() = default;

    /** Execute one control quantum. */
    virtual void runQuantum() = 0;

    /** Current simulated time of the managed vcore. */
    virtual Cycle now() const = 0;

    virtual bool finished() const = 0;

    /** Run quanta until the vcore clock reaches the horizon. */
    void run(Cycle horizon);

    const std::string &name() const { return name_; }
    const PolicyStats &stats() const { return stats_; }
    const std::vector<SeriesPoint> &series() const { return series_; }

  protected:
    std::string name_;
    Cycle quantum_;
    PolicyStats stats_;
    std::vector<SeriesPoint> series_;
};

/**
 * Shared machinery for the profile-driven baselines: executes a
 * (possibly two-slot) schedule per quantum, samples QoS, accounts
 * cost (optionally free-idling), and counts violations.
 */
class BaselinePolicy : public Policy
{
  public:
    /**
     * @param free_idle do not charge for cycles the vcore idled
     *        (the paper's race-to-idle assumption)
     */
    BaselinePolicy(std::string name, SSim &sim, VCoreId id,
                   QosKind kind, double target,
                   const ConfigSpace &space, const CostModel &cost,
                   Cycle quantum, bool free_idle);

    void runQuantum() override;
    Cycle now() const override;
    bool finished() const override { return finished_; }

  protected:
    /** The policy brain: schedule for the next quantum. */
    virtual QuantumSchedule decide(const QosReading &last) = 0;

    void runSlot(std::size_t cfg, Cycle duration);

    SSim &sim_;
    VCoreId id_;
    const ConfigSpace &space_;
    const CostModel &cost_;
    VCoreMonitor monitor_;
    bool freeIdle_;
    std::size_t currentCfg_;
    QosReading lastReading_;
    bool finished_ = false;
    Cycle lastIdle_ = 0;
    bool flipOrder_ = false;
    std::uint64_t quantaRun_ = 0;
    std::uint32_t warmupQuanta_ = 5;
    double ewmaQ_ = 1.0;
    /** Per-quantum accumulators (cycle-weighted QoS, cost rate). */
    double quantumQ_ = 0.0;
    Cycle quantumValid_ = 0;
    double quantumCostRate_ = 0.0;
    Cycle quantumCycles_ = 0;
};

/**
 * The paper's "Optimal": phase-aware cheapest-feasible allocation.
 */
class OraclePolicy : public BaselinePolicy
{
  public:
    /**
     * @param profile brute-force characterization
     * @param phase_source the workload's phase oracle (throughput
     *        apps; may be nullptr for request apps)
     * @param request_params request stream (request apps)
     */
    OraclePolicy(SSim &sim, VCoreId id, QosKind kind, double target,
                 const ConfigSpace &space, const CostModel &cost,
                 Cycle quantum, const AppProfile &profile,
                 const PhasedTraceSource *phase_source,
                 const RequestStreamParams *request_params);

  protected:
    QuantumSchedule decide(const QosReading &last) override;

  private:
    /** Current rate bin for request apps. */
    std::size_t currentBin() const;

    const AppProfile &profile_;
    const PhasedTraceSource *phaseSource_;
    const RequestStreamParams *requestParams_;
};

/**
 * Race-to-idle: worst-case allocation, free idling (throughput).
 */
class RaceToIdlePolicy : public BaselinePolicy
{
  public:
    RaceToIdlePolicy(SSim &sim, VCoreId id, QosKind kind,
                     double target, const ConfigSpace &space,
                     const CostModel &cost, Cycle quantum,
                     const AppProfile &profile);

  protected:
    QuantumSchedule decide(const QosReading &last) override;

  private:
    std::size_t worstCaseCfg_;
};

/**
 * Convex optimization: feedback control over a fixed convex
 * average-case model (no learning, no phase adaptation).
 */
class ConvexOptPolicy : public BaselinePolicy
{
  public:
    ConvexOptPolicy(SSim &sim, VCoreId id, QosKind kind,
                    double target, const ConfigSpace &space,
                    const CostModel &cost, Cycle quantum,
                    const AppProfile &profile);

    /** Configurations on the model's convex hull (for tests). */
    const std::vector<std::size_t> &hull() const { return hull_; }

  protected:
    QuantumSchedule decide(const QosReading &last) override;

  private:
    /** Normalized average-case performance of config k. */
    double normAvg(std::size_t k) const;

    const AppProfile &profile_;
    std::vector<std::size_t> hull_;
    double fixedBase_;
    double speedup_ = 1.0;
};

/**
 * Adapter running the real CashRuntime under the Policy interface.
 */
class CashPolicy : public Policy
{
  public:
    CashPolicy(SSim &sim, VCoreId id, QosKind kind, double target,
               const ConfigSpace &space, const CostModel &cost,
               const RuntimeParams &params, std::uint64_t seed = 7);

    void runQuantum() override;
    Cycle now() const override;
    bool finished() const override;

    const CashRuntime &runtime() const { return runtime_; }

  private:
    SSim &sim_;
    VCoreId id_;
    const ConfigSpace &space_;
    const CostModel &cost_;
    CashRuntime runtime_;
    bool finishedFlag_ = false;
};

} // namespace cash

#endif // CASH_BASELINES_POLICY_HH
