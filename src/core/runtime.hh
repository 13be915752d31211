/**
 * @file
 * The CASH runtime (paper Sec IV, Algorithm 1).
 *
 * Every quantum the runtime
 *
 *  1. reads the delivered QoS q(t) from the monitor,
 *  2. updates the Kalman estimate of base speed b(t) — a large
 *     innovation flags a phase change (the learned speedup table
 *     re-levels itself inside SpeedupLearner::update(), so its
 *     shape survives across phases),
 *  3. computes the deadbeat speedup command s(t),
 *  4. solves the two-configuration LP for the cheapest schedule
 *     delivering s(t) under the *learned* speedup table,
 *  5. reconfigures the virtual core (EXPAND/SHRINK over the RIN),
 *     runs each sub-interval, and folds the measured QoS back into
 *     the Q-learning table (Eqn 7); occasional epsilon-exploration
 *     refreshes estimates of configurations the schedule would
 *     never visit.
 *
 * The loop body is O(K) table scans and O(1) arithmetic — no
 * application knowledge, no offline training.
 */

#ifndef CASH_CORE_RUNTIME_HH
#define CASH_CORE_RUNTIME_HH

#include <cstdint>

#include "common/rng.hh"
#include "core/config_space.hh"
#include "core/controller.hh"
#include "core/kalman.hh"
#include "core/monitor.hh"
#include "core/optimizer.hh"
#include "core/qlearn.hh"
#include "sim/ssim.hh"

namespace cash
{

/**
 * The SLA tolerance every QoS judge shares — the runtime, the
 * baseline policies and the provider: a sample whose short-window
 * mean of normalized QoS falls below 1 - kSlaTolerance is a
 * violation.
 */
constexpr double kSlaTolerance = 0.05;

/**
 * Tunables of the CASH runtime (its fixed constants live in
 * runtime.cc).
 */
struct RuntimeParams
{
    /** Quantum length tau in cycles. */
    Cycle quantum = 500'000;
    /** Probability of an exploration slot per quantum. */
    double epsilon = 0.03;
    /** Controller setpoint above the target (guard band). */
    double guardBand = 1.05;
    /** Controller deadband: errors smaller than this hold the
     *  demand (reconfiguring on noise costs more than it saves). */
    double deadband = 0.04;
    /** Controller damping (1.0 = pure deadbeat; below 1 adds the
     *  stability margin a delayed loop needs). */
    double controlGain = 0.6;
    /** Keep the incumbent over/under configuration when the newly
     *  selected one promises less than this much improvement — a
     *  reconfiguration (cold caches) costs more than a near-tie. */
    double stickiness = 0.05;
    /** Start-up quanta excluded from violation accounting. */
    std::uint32_t warmupQuanta = 5;
    /** Enable the joint (tiles x frequency) action space: one
     *  speedup table per DVFS P-state, a per-quantum P-state pick
     *  minimizing the estimated tile + energy $ rate among feasible
     *  points, and SET_FREQ commands over the RIN. Off by default —
     *  the classic tile-only CASH loop. */
    bool dvfs = false;
};

/**
 * Statistics of one runtime quantum (one pass of Algorithm 1).
 */
struct QuantumStats
{
    /** Simulated cycles the quantum actually covered (== tau minus
     *  early termination; 1 cycle = 1 ns at the modeled 1 GHz). */
    Cycle cycles = 0;
    /** $ charged for resources held this quantum: the integral of
     *  the per-tile rates ($0.0098/Slice-hr + $0.0032/bank-hr,
     *  Table IV pricing) over `cycles`. */
    double cost = 0.0;
    /** Mean normalized QoS across valid samples (1.0 == target;
     *  >1 over-delivering). */
    double qos = 0.0;
    /** SLA samples contributed (0 during warm-up, else 1). */
    std::uint32_t samples = 0;
    /** 1 when the smoothed QoS fell below 1 - kSlaTolerance. */
    std::uint32_t violations = 0;
    /** EXPAND/SHRINK commands executed this quantum. */
    std::uint32_t reconfigs = 0;
    /** Cycles stalled in reconfiguration (pipeline + register +
     *  cache flushes; Tables I-II). */
    Cycle reconfigStall = 0;
    /** Speedup command s(t) of Eqn 2, in units of the base
     *  configuration's throughput. */
    double speedupCmd = 0.0;
    /** SET_FREQ commands executed this quantum (0 or 1). */
    std::uint32_t freqChanges = 0;
    /** Cycles stalled in DVFS transitions (pipeline drain + PLL
     *  relock), billed at the held configuration. */
    Cycle dvfsStall = 0;
    /** P-state the quantum ran at (0 = nominal). */
    std::uint32_t pstate = 0;
    /** Kalman a-posteriori base-speed estimate b_hat(t) (Eqn 4),
     *  normalized-QoS per unit of table-promised QoS. */
    double baseEstimate = 0.0;
    /** Innovation exceeded the phase threshold (Sec IV-B). */
    bool phaseDetected = false;
    /** The bound workload ran out of trace. */
    bool finished = false;
    /** Schedule actually executed (Eqn 6's two-configuration mix,
     *  post stickiness/merging; durations in cycles). */
    QuantumSchedule schedule;
};

/**
 * The adaptive, cost-minimizing QoS runtime.
 */
class CashRuntime
{
  public:
    /**
     * @param sim the chip (the runtime talks to it via the RIN)
     * @param id the managed virtual core
     * @param kind QoS metric
     * @param target absolute QoS target (IPC or cycles/request)
     * @param space configuration space
     * @param cost pricing model
     * @param params tunables
     * @param seed exploration RNG seed
     */
    CashRuntime(SSim &sim, VCoreId id, QosKind kind, double target,
                const ConfigSpace &space, const CostModel &cost,
                const RuntimeParams &params = RuntimeParams(),
                std::uint64_t seed = 7);

    /** Execute one quantum of Algorithm 1. */
    QuantumStats step();

    /** Run quanta until the vcore clock reaches the target cycle or
     *  the workload finishes; returns aggregated stats. */
    QuantumStats runUntil(Cycle target_cycle);

    /** Base-speed estimator b_hat(t) (Eqns 3-4). */
    const KalmanEstimator &kalman() const { return kalman_; }
    /** Deadbeat speedup controller s(t) (Eqns 1-2). */
    const DeadbeatController &controller() const { return ctrl_; }
    /** Learned per-configuration speedup table q_hat (Eqn 7) of
     *  the P-state currently held (the nominal-frequency table
     *  when DVFS is off). */
    const SpeedupLearner &learner() const { return activeLearner(); }
    /** Index into the ConfigSpace currently held by the vcore. */
    std::size_t currentConfig() const { return currentCfg_; }
    /** P-state currently held (always 0 when DVFS is off). */
    std::uint32_t currentPState() const { return currentPState_; }

    /** Total $ accumulated across all quanta. */
    double totalCost() const { return totalCost_; }
    /** SLA samples across all quanta (warm-up excluded). */
    std::uint64_t totalSamples() const { return totalSamples_; }
    /** Samples whose smoothed QoS fell below 1 - kSlaTolerance. */
    std::uint64_t totalViolations() const { return totalViolations_; }

  private:
    /** Reconfigure if needed; run a sub-interval; sample + learn. */
    void runSlot(std::size_t cfg, Cycle duration, QuantumStats &st);

    /** The Q-table of the P-state the vcore currently runs at:
     *  measurements teach the operating point that produced them. */
    SpeedupLearner &activeLearner()
    {
        return currentPState_ == 0 ? learner_
                                   : dvfsLearners_[currentPState_ - 1];
    }
    const SpeedupLearner &activeLearner() const
    {
        return currentPState_ == 0 ? learner_
                                   : dvfsLearners_[currentPState_ - 1];
    }

    /** Estimated $/second of running a quantum schedule at a
     *  P-state: tile rate + energy rate (leakage at the held
     *  configuration plus approximate per-instruction switching
     *  energy at the P-state's voltage). */
    double dollarRate(std::uint32_t pstate,
                      const QuantumSchedule &sched) const;

    /** Solve the tile LP per P-state, pick the cheapest feasible
     *  operating point, and SET_FREQ to it (billing the transition
     *  stall). Runs once per quantum when params.dvfs is on, except
     *  in the probe quanta (probeQuantum()). */
    void selectPState(double q_demand, QuantumStats &st);

    /** SET_FREQ to `want` if different from the held P-state,
     *  billing the transition stall at the held tiles. */
    void switchPState(std::uint32_t want, QuantumStats &st);

    /** True when the current quantum is a DVFS probe (throughput
     *  tenants only, quanta 1..kNumPStates-1). */
    bool probeQuantum() const
    {
        return params_.dvfs
            && monitor_.kind() == QosKind::Throughput
            && quantaRun_ >= 1 && quantaRun_ < kNumPStates;
    }

    SSim &sim_;
    VCoreId id_;
    const ConfigSpace &space_;
    const CostModel &cost_;
    RuntimeParams params_;
    VCoreMonitor monitor_;
    DeadbeatController ctrl_;
    KalmanEstimator kalman_;
    SpeedupLearner learner_;
    /** P-state 1..kNumPStates-1 tables (empty unless params.dvfs);
     *  each starts from the frequency-scaled prior of the nominal
     *  table, and learning corrects it toward the application's
     *  true IPC-per-Hz. */
    std::vector<SpeedupLearner> dvfsLearners_;
    TwoConfigOptimizer optimizer_;
    Rng rng_;

    double target_;
    std::uint32_t currentPState_ = 0;
    std::size_t currentCfg_;
    double lastQ_ = 1.0;
    double lastS_ = 1.0;
    bool finished_ = false;
    /** Cycles covered by valid QoS readings this quantum. */
    Cycle validCycles_ = 0;
    /** Queue depth above which latency readings are drain
     *  transients rather than configuration quality. */
    std::uint64_t backlogFloor_ = 4;
    std::uint64_t lastBacklog_ = 0;
    /** Last slot's steady-state reading (phase-collapse check). */
    double lastSlotQ_ = 1.0;
    bool lastSlotValid_ = false;
    std::uint64_t quantaRun_ = 0;
    /** The previous quantum was a probe: its reading must reach
     *  neither the estimator nor the controller. */
    bool lastWasProbe_ = false;
    double ewmaQ_ = 1.0;
    /** Incumbent schedule for stickiness. */
    std::size_t lastOver_ = 0;
    std::size_t lastUnder_ = 0;
    bool haveLastSched_ = false;

    double totalCost_ = 0.0;
    std::uint64_t totalSamples_ = 0;
    std::uint64_t totalViolations_ = 0;
};

} // namespace cash

#endif // CASH_CORE_RUNTIME_HH
