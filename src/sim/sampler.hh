/**
 * @file
 * Sampled simulation: the SMARTS/XIOSim-style slice controller.
 *
 * The cycle-level vcore loop is the hot path under every layer of
 * the repo (figure benches, fuzzer, CloudProvider, the sharded
 * region service). Most cycles of most workloads are steady state:
 * once a program phase's IPC and miss rates are known, simulating
 * every instruction of it in detail buys nothing. Sampled mode
 * (SimMode::Sampled, off by default) interleaves three kinds of
 * quanta, in the style of XIOSim's slices.cpp (SNIPPETS.md #1):
 *
 *   Warmup       detailed simulation; re-warms the frozen
 *                microarchitectural state (caches, predictor,
 *                structural floors) after a fast-forward gap, but
 *                its measurements are discarded.
 *   Measure      detailed simulation; per-quantum IPC and counter
 *                deltas accumulate into the fast-forward model and
 *                feed the Kalman base-speed filter (the same
 *                recursion the runtime controller uses, paper Sec
 *                IV-B) for phase-change detection.
 *   FastForward  no timing simulation. The instruction source is
 *                functionally advanced (InstSource::skip) by
 *                ipc x quantum instructions and architectural
 *                state is extrapolated from the measured rates.
 *
 * What stays EXACT in sampled mode: the billing integrals (Slice x
 * cycles and bank x cycles depend only on the clock and membership,
 * both of which fast-forward maintains), membership/lifecycle
 * accounting, and SLA sample counting. What is ESTIMATED: committed
 * instruction counts during fast-forward (tracked separately as
 * VCoreMeta::estimatedInsts so the auditors can tell), cache/branch
 * counter extrapolations, and request latencies inside skipped
 * regions. The error-bound harness (bench_sim_speed
 * --sampled-error, tools/sample_error_gate.sh) checks end-to-end
 * runtime estimates against full simulation on every figure
 * workload: geomean error <= 3%, per workload <= 5%.
 *
 * A phase boundary reported by skip(), or an innovation spike in
 * the Kalman filter during measurement, aborts extrapolation and
 * restarts the warmup/measure schedule within one quantum — the
 * property tests in tests/test_sampler.cc pin this down.
 */

#ifndef CASH_SIM_SAMPLER_HH
#define CASH_SIM_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/kalman.hh"
#include "sim/perf_counter.hh"

namespace cash
{

/** How SSim advances virtual cores. */
enum class SimMode : std::uint8_t
{
    Full,    ///< every instruction through the detailed model
    Sampled, ///< slice sampling + analytic fast-forward
};

/**
 * The slice-sampling quantum, the one sampler knob a caller sets.
 *
 * The rest of the schedule is fixed in sampler.cc. Warmup is
 * ADAPTIVE: after any restart (cold start, phase boundary,
 * reconfiguration, completed fast-forward burst) the controller
 * stays in detailed warmup until the busy IPC of a full quantum
 * agrees within 3% with the previous one (so at least 2 quanta),
 * capped at 12. Fixed-length warmup is the classic SMARTS weakness
 * this avoids: cache-refill transients here range from ~2 quanta
 * (re-warming after a fast-forward gap inside one phase) to ~10
 * quanta (cold caches at a working-set switch), and measuring
 * mid-transient folds the refill penalty into the model, biasing
 * every extrapolated quantum of the phase. Then 2 quanta are
 * measured and 56 extrapolated; a Kalman innovation above 0.25
 * during measurement aborts the slice. Steady state is ~2 warmup +
 * 2 measured / 56 extrapolated quanta (~7% detail -> ~14x ideal
 * speedup). The error gate certifies these constants; changing
 * them moves the speed/error trade-off.
 */
struct SamplerParams
{
    /** Sampling quantum in cycles. */
    Cycle sliceQuantum = 20'000;
};

/** Classification of one sampling quantum. */
enum class SliceMode : std::uint8_t
{
    Warmup,
    Measure,
    FastForward,
};

/**
 * The extrapolation model distilled from one measurement slice:
 * busy-cycle IPC plus per-committed-instruction event rates.
 */
struct FfModel
{
    bool valid = false;
    /** Committed instructions per BUSY cycle (idle excluded), so
     *  paced workloads extrapolate capacity, not arrival rate. */
    double ipc = 0.0;
    double l1dAccessRate = 0.0;
    double l1dMissRate = 0.0;
    double l1iAccessRate = 0.0;
    double l1iMissRate = 0.0;
    double l2AccessRate = 0.0;
    double l2MissRate = 0.0;
    double branchRate = 0.0;
    double mispredictRate = 0.0;
    double operandNetRate = 0.0;
    double requestRate = 0.0;
};

/** One scheduled quantum, for determinism tests and debugging. */
struct SliceRecord
{
    SliceMode mode = SliceMode::Warmup;
    Cycle start = 0;
    Cycle cycles = 0;
    InstCount insts = 0;
    /** This quantum ended in a phase-boundary abort. */
    bool phaseAbort = false;

    bool operator==(const SliceRecord &) const = default;
};

/** Aggregate sampling statistics (exported via CASH_METRIC too). */
struct SamplerStats
{
    Cycle detailedCycles = 0;
    Cycle ffCycles = 0;
    InstCount detailedInsts = 0;
    InstCount ffInsts = 0;
    /** Completed measurement slices that armed a model. */
    std::uint64_t measurementSlices = 0;
    /** Fast-forwards aborted at a source phase boundary. */
    std::uint64_t phaseAborts = 0;
    /** Measurement slices aborted by a Kalman innovation spike. */
    std::uint64_t innovationAborts = 0;
    /** Schedule resets forced by reconfigurations. */
    std::uint64_t reconfigResets = 0;
};

/**
 * Per-vcore slice scheduler: classifies quanta, accumulates the
 * measurement model, and decides when extrapolation is safe.
 * Deterministic: state depends only on the simulated history.
 */
class SliceController
{
  public:
    explicit SliceController(const SamplerParams &params);

    /** End of the sampling quantum containing `now` (grid-aligned
     *  so detailed overshoot does not drift the schedule). */
    Cycle segmentEnd(Cycle now) const
    {
        return (now / params_.sliceQuantum + 1) * params_.sliceQuantum;
    }

    /** True when the next quantum may be extrapolated. */
    bool fastForwarding() const
    {
        return mode_ == SliceMode::FastForward && model_.valid;
    }

    SliceMode mode() const { return mode_; }
    const FfModel &model() const { return model_; }
    const SamplerParams &params() const { return params_; }
    const SamplerStats &stats() const { return stats_; }
    /** The first quanta's records (the log is bounded). */
    const std::vector<SliceRecord> &schedule() const
    {
        return schedule_;
    }

    /**
     * Account one detailed (warmup or measurement) quantum.
     *
     * @param start vcore clock at the start of the quantum
     * @param insts instructions committed in it
     * @param cycles clock advance (>= quantum; commits overshoot)
     * @param idle_cycles idle portion of the advance
     * @param delta aggregate counter delta over the quantum
     */
    void onDetailedQuantum(Cycle start, InstCount insts, Cycle cycles,
                           Cycle idle_cycles,
                           const SliceCounters &delta);

    /**
     * Account one fast-forwarded quantum (possibly cut short).
     *
     * @param phase_boundary the source hit a phase boundary: the
     *        model is invalidated and the schedule restarts at
     *        warmup, so the next quantum is simulated in detail
     */
    void onFastForward(Cycle start, InstCount insts, Cycle cycles,
                       bool phase_boundary);

    /** A reconfiguration changed the hardware under the model:
     *  restart the schedule and re-seed the filter. */
    void onReconfigure();

  private:
    void record(SliceMode mode, Cycle start, Cycle cycles,
                InstCount insts, bool abort);
    /** Restart the schedule at adaptive warmup. Cold (the phase or
     *  the hardware changed) also invalidates the Kalman filter;
     *  warm (periodic re-measurement mid-phase) keeps it as the
     *  phase-drift detector for the next measurement. */
    void restart(bool cold);

    SamplerParams params_;
    SliceMode mode_ = SliceMode::Warmup;
    /** Quanta spent in the current mode. */
    std::uint32_t quantaInMode_ = 0;

    // Measurement accumulation for the pending model.
    InstCount measInsts_ = 0;
    Cycle measBusy_ = 0;
    SliceCounters measCtrs_{};
    /** Busy IPC of the previous full warmup quantum (< 0 until one
     *  has been seen); the adaptive-warmup settle reference. */
    double prevWarmIpc_ = -1.0;

    FfModel model_{};
    KalmanEstimator kalman_{1.0, 1e-4, 1e-2};
    bool kalmanSeeded_ = false;

    SamplerStats stats_{};
    std::vector<SliceRecord> schedule_;
};

} // namespace cash

#endif // CASH_SIM_SAMPLER_HH
