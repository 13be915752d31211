#include "sim/sampler.hh"

#include <cmath>

#include "check/invariant.hh"
#include "common/log.hh"
#include "trace/metrics.hh"

namespace cash
{

namespace
{

/** Warmup cap: measurement starts here even if IPC has not settled
 *  (bounds detail cost on noisy streams). */
constexpr std::uint32_t kMaxWarmupQuanta = 12;
/** Warmup ends once consecutive full-quantum busy IPCs agree within
 *  this relative tolerance. */
constexpr double kWarmupSettle = 0.03;
/** Detailed quanta measured into the fast-forward model. */
constexpr std::uint32_t kMeasureQuanta = 2;
/** Quanta extrapolated per measurement slice. */
constexpr std::uint32_t kFfQuanta = 56;
/** Kalman innovation above this aborts a measurement slice
 *  (suspected phase change mid-measurement). */
constexpr double kPhaseThreshold = 0.25;
/** Bound on the schedule log; later quanta are not recorded. */
constexpr std::size_t kMaxScheduleRecords = 65'536;

void
accumulate(SliceCounters &into, const SliceCounters &delta)
{
    into.committedInsts += delta.committedInsts;
    into.committedRequests += delta.committedRequests;
    into.requestLatencySum += delta.requestLatencySum;
    into.l1dAccesses += delta.l1dAccesses;
    into.l1dMisses += delta.l1dMisses;
    into.l1iAccesses += delta.l1iAccesses;
    into.l1iMisses += delta.l1iMisses;
    into.l2Accesses += delta.l2Accesses;
    into.l2Misses += delta.l2Misses;
    into.branches += delta.branches;
    into.branchMispredicts += delta.branchMispredicts;
    into.operandNetMsgs += delta.operandNetMsgs;
}

} // namespace

SliceController::SliceController(const SamplerParams &params)
    : params_(params)
{
    if (params_.sliceQuantum == 0)
        fatal("sampler sliceQuantum must be positive");
}

void
SliceController::record(SliceMode mode, Cycle start, Cycle cycles,
                        InstCount insts, bool abort)
{
    if (schedule_.size() >= kMaxScheduleRecords)
        return;
    schedule_.push_back(SliceRecord{mode, start, cycles, insts, abort});
}

void
SliceController::restart(bool cold)
{
    mode_ = SliceMode::Warmup;
    quantaInMode_ = 0;
    measInsts_ = 0;
    measBusy_ = 0;
    measCtrs_ = SliceCounters{};
    prevWarmIpc_ = -1.0;
    model_ = FfModel{};
    if (cold)
        kalmanSeeded_ = false;
}

void
SliceController::onDetailedQuantum(Cycle start, InstCount insts,
                                   Cycle cycles, Cycle idle_cycles,
                                   const SliceCounters &delta)
{
    CASH_INVARIANT(idle_cycles <= cycles,
                   "sampler quantum with %llu idle of %llu cycles",
                   static_cast<unsigned long long>(idle_cycles),
                   static_cast<unsigned long long>(cycles));
    record(mode_, start, cycles, insts, false);
    stats_.detailedCycles += cycles;
    stats_.detailedInsts += insts;

    // A quantum cut short by the caller's horizon (not by the
    // quantum grid) carries too little signal: account it, but do
    // not let it advance the schedule or pollute the filter — a
    // partial window's IPC sample would defeat both the settle
    // detector and the measurement mean.
    if (cycles * 4 < params_.sliceQuantum * 3)
        return;

    Cycle busy = cycles - idle_cycles;
    double ipc = busy > 0
        ? static_cast<double>(insts) / static_cast<double>(busy)
        : 0.0;

    // The Kalman filter tracks busy IPC across MEASUREMENT quanta
    // only (speedup input 1.0: the hardware under it is fixed
    // between reconfigurations). Warmup quanta are excluded on
    // purpose — cache-refill transients would drag the estimate
    // below steady state. A large innovation during measurement
    // means the phase moved under us: discard and re-warm.
    bool suspicious = false;
    if (mode_ == SliceMode::Measure && busy > 0 && insts > 0) {
        if (kalmanSeeded_) {
            kalman_.update(ipc, 1.0);
            suspicious = kalman_.innovation() > kPhaseThreshold;
        } else {
            kalman_.reset(ipc);
            kalmanSeeded_ = true;
        }
    }

    switch (mode_) {
      case SliceMode::Warmup: {
        // Adaptive warmup: measurement may start once consecutive
        // full quanta agree within kWarmupSettle (the microarch
        // transient has decayed), so after 2 quanta at the least,
        // and at the latest after kMaxWarmupQuanta.
        bool settled = prevWarmIpc_ > 0.0 && ipc > 0.0
            && std::fabs(ipc - prevWarmIpc_) / prevWarmIpc_
                <= kWarmupSettle;
        prevWarmIpc_ = ipc;
        ++quantaInMode_;
        if (settled || quantaInMode_ >= kMaxWarmupQuanta) {
            mode_ = SliceMode::Measure;
            quantaInMode_ = 0;
            measInsts_ = 0;
            measBusy_ = 0;
            measCtrs_ = SliceCounters{};
        }
        break;
      }

      case SliceMode::Measure:
        if (suspicious) {
            ++stats_.innovationAborts;
            CASH_METRIC_INC("sim.sampler.innovation_aborts");
            restart(true);
            break;
        }
        measInsts_ += insts;
        measBusy_ += busy;
        accumulate(measCtrs_, delta);
        if (++quantaInMode_ >= kMeasureQuanta) {
            if (measInsts_ == 0 || measBusy_ == 0) {
                // Nothing committed (source idle): there is no
                // rate to extrapolate, stay detailed.
                restart(true);
                break;
            }
            auto insts_d = static_cast<double>(measInsts_);
            model_.ipc = insts_d / static_cast<double>(measBusy_);
            model_.l1dAccessRate = measCtrs_.l1dAccesses / insts_d;
            model_.l1dMissRate = measCtrs_.l1dMisses / insts_d;
            model_.l1iAccessRate = measCtrs_.l1iAccesses / insts_d;
            model_.l1iMissRate = measCtrs_.l1iMisses / insts_d;
            model_.l2AccessRate = measCtrs_.l2Accesses / insts_d;
            model_.l2MissRate = measCtrs_.l2Misses / insts_d;
            model_.branchRate = measCtrs_.branches / insts_d;
            model_.mispredictRate =
                measCtrs_.branchMispredicts / insts_d;
            model_.operandNetRate =
                measCtrs_.operandNetMsgs / insts_d;
            model_.requestRate =
                measCtrs_.committedRequests / insts_d;
            model_.valid = true;
            mode_ = SliceMode::FastForward;
            quantaInMode_ = 0;
            ++stats_.measurementSlices;
            CASH_METRIC_INC("sim.sampler.measurement_slices");
        }
        break;

      case SliceMode::FastForward:
        // The caller ran this quantum in detail although the
        // controller offered extrapolation (e.g. a reconfiguration
        // landed between segments). Treat it as warmup.
        restart(true);
        ++quantaInMode_;
        break;
    }
}

void
SliceController::onFastForward(Cycle start, InstCount insts,
                               Cycle cycles, bool phase_boundary)
{
    CASH_INVARIANT(mode_ == SliceMode::FastForward && model_.valid,
                   "fast-forward accounted outside FastForward mode");
    record(SliceMode::FastForward, start, cycles, insts,
           phase_boundary);
    stats_.ffCycles += cycles;
    stats_.ffInsts += insts;
    CASH_METRIC_ADD("sim.sampler.ff_cycles", cycles);
    CASH_METRIC_ADD("sim.sampler.ff_insts", insts);

    if (phase_boundary) {
        // The source crossed into a different program phase: the
        // model no longer describes the stream. Re-warm and
        // re-measure starting with the very next quantum.
        ++stats_.phaseAborts;
        CASH_METRIC_INC("sim.sampler.phase_aborts");
        restart(true);
        return;
    }
    if (++quantaInMode_ >= kFfQuanta) {
        // Budget spent: re-warm and re-measure. The restart is
        // warm — the stream is still mid-phase (a boundary would
        // have aborted above), so the Kalman filter keeps its
        // estimate to cross-check the fresh measurements; adaptive
        // warmup typically settles in ~2 quanta here.
        restart(false);
    }
}

void
SliceController::onReconfigure()
{
    // The IPC level is a property of the configuration; the cold
    // restart invalidates the filter's state, not just the model.
    ++stats_.reconfigResets;
    CASH_METRIC_INC("sim.sampler.reconfig_resets");
    restart(true);
}

} // namespace cash
