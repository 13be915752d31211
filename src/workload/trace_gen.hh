/**
 * @file
 * Synthetic trace generation: PhasedTraceSource turns a list of
 * PhaseParams into a deterministic MicroOp stream, and PacedSource
 * throttles any stream to a work-arrival rate (the semantics under
 * which QoS targets, race-to-idle, and cost accounting are defined).
 */

#ifndef CASH_WORKLOAD_TRACE_GEN_HH
#define CASH_WORKLOAD_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/isa.hh"
#include "workload/phase.hh"

namespace cash
{

/**
 * Generates the instruction stream of a phased application.
 *
 * The stream is deterministic given (phases, seed). Phases are
 * visited in order; when looping is enabled the sequence repeats
 * indefinitely (the paper's workloads are long-running services or
 * encoders), otherwise the source finishes after the last phase.
 */
class PhasedTraceSource : public InstSource
{
  public:
    /**
     * @param phases phase list (non-empty)
     * @param seed RNG seed (stream-defining)
     * @param loop repeat the phase list forever
     * @param total_insts hard cap on emitted instructions
     *        (0 = unlimited; ignored unless loop is true)
     */
    PhasedTraceSource(std::vector<PhaseParams> phases,
                      std::uint64_t seed, bool loop = true,
                      InstCount total_insts = 0);

    FetchResult next(Cycle now) override;
    void onCommit(const MicroOp &op, Cycle commit_cycle) override;

    /**
     * Arithmetic O(#phases-crossed) fast-forward: bumps the emit
     * counters without drawing from the RNG, so the skipped stream
     * is statistically identical (phases are stationary mixes) but
     * not instruction-identical to what next() would produce.
     * Stops with phaseBoundary at any phase-INDEX change; a
     * single-phase looping app wraps laps silently (same phase,
     * same statistics, nothing to re-measure).
     */
    SkipResult skip(InstCount n, Cycle from, Cycle to) override;

    /** Index (into the phase list) of the phase being emitted. */
    std::uint32_t currentPhase() const { return phaseIdx_; }

    /** Instructions emitted so far. */
    InstCount emitted() const { return emitted_; }

    /** Completed passes over the whole phase list. */
    std::uint64_t laps() const { return laps_; }

  private:
    void enterPhase(std::uint32_t idx);
    MicroOp genInst();

    std::vector<PhaseParams> phases_;
    Rng rng_;
    bool loop_;
    InstCount totalInsts_;

    std::uint32_t phaseIdx_ = 0;
    InstCount phaseEmitted_ = 0;
    InstCount emitted_ = 0;
    std::uint64_t laps_ = 0;

    // Per-phase generator state.
    Addr pc_ = 0x1000;
    Addr codeBase_ = 0x1000;
    Addr streamAddr_ = 0;
    std::vector<double> branchBias_;
    std::vector<std::uint32_t> loopPeriod_;
    std::vector<std::uint32_t> loopCount_;
};

/**
 * Paces an inner stream to a work-arrival rate: work arrives in
 * chunks (frames to encode, items to process) of `chunk`
 * instructions; chunk C becomes available at cycle C*chunk/pace.
 * A vcore faster than the pace idles between chunks (and its busy
 * IPC measures its true capacity); a slower one accumulates
 * backlog.
 */
class PacedSource : public InstSource
{
  public:
    /**
     * @param inner the unpaced stream (not owned)
     * @param pace work arrival rate in instructions per cycle (> 0)
     * @param chunk work-item granularity in instructions (>= 1)
     */
    PacedSource(InstSource &inner, double pace,
                InstCount chunk = 2000);

    FetchResult next(Cycle now) override;
    void onCommit(const MicroOp &op, Cycle commit_cycle) override;

    /** Delegates to the inner stream, clamped to the work that has
     *  arrived by `to` (an arrival shortfall is pacing, not a phase
     *  boundary — the caller idles out the rest of the window). */
    SkipResult skip(InstCount n, Cycle from, Cycle to) override;

    double pace() const { return pace_; }
    InstCount chunk() const { return chunk_; }

  private:
    InstSource &inner_;
    double pace_;
    InstCount chunk_;
    InstCount handedOut_ = 0;
    /** The chunk that holds instruction handedOut_ ends before
     *  instruction chunkEnd_ and arrives at cycle chunkArrival_
     *  (both recomputed once per chunk). */
    InstCount chunkEnd_ = 0;
    Cycle chunkArrival_ = 0;
};

/**
 * A fixed-length wrapper: passes through at most n instructions of
 * the inner source, then reports Finished. Used by characterization
 * sweeps that measure a bounded window.
 */
class CappedSource : public InstSource
{
  public:
    CappedSource(InstSource &inner, InstCount cap);

    FetchResult next(Cycle now) override;
    void onCommit(const MicroOp &op, Cycle commit_cycle) override;
    std::uint64_t backlog() const override { return inner_.backlog(); }

    /** Delegates to the inner stream, clamped to the cap. */
    SkipResult skip(InstCount n, Cycle from, Cycle to) override;

    InstCount remaining() const { return cap_ - used_; }

  private:
    InstSource &inner_;
    InstCount cap_;
    InstCount used_ = 0;
};

} // namespace cash

#endif // CASH_WORKLOAD_TRACE_GEN_HH
