/**
 * @file
 * The virtual core: the central timing model of SSim.
 *
 * A virtual core is a dynamically composed processor made of member
 * Slices and L2 banks. The model is trace-driven and structural:
 * every dynamic instruction's fetch, dispatch, issue, completion and
 * commit cycles are derived from
 *
 *  - dataflow: dependence distances against a completion-time
 *    history window, with scalar-operand-network hop latency added
 *    when producer and consumer sit on different Slices;
 *  - structural resources: per-Slice fetch bandwidth (2/cycle), one
 *    ALU and one LSU per Slice, ROB/issue-window/LSQ/store-buffer
 *    occupancy, an in-flight-load cap, and a global commit width;
 *  - the memory system: per-Slice L1I/L1D (address-partitioned
 *    across Slices by the LS-bank sorting hash), the banked L2 with
 *    distance-dependent hit delay, and a flat 100-cycle memory;
 *  - control flow: a shared gshare+BTB front-end whose mispredicts
 *    redirect fetch on every member Slice.
 *
 * Processing is in program order and O(1) per instruction, which
 * keeps the oracle's exhaustive 64-configuration sweeps tractable
 * while every stall remains attributable to a hardware cause.
 */

#ifndef CASH_SIM_VCORE_HH
#define CASH_SIM_VCORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/energy.hh"
#include "fabric/grid.hh"
#include "fabric/resource.hh"
#include "sim/branch_pred.hh"
#include "sim/cache.hh"
#include "sim/isa.hh"
#include "sim/l2system.hh"
#include "sim/params.hh"
#include "sim/perf_counter.hh"
#include "sim/reconfig.hh"
#include "sim/regfile.hh"
#include "sim/sampler.hh"

namespace cash
{

/**
 * Aggregate, vcore-level state visible to the monitor.
 */
struct VCoreMeta
{
    Cycle clock = 0;
    InstCount totalCommitted = 0;
    Cycle idleCycles = 0;
    Cycle reconfigStallCycles = 0;
    std::uint64_t requestsDone = 0;
    std::uint64_t requestLatencySum = 0;
    /** Application-reported queued work (heartbeat counter). */
    std::uint64_t appBacklog = 0;
    std::uint32_t numSlices = 0;
    std::uint32_t numBanks = 0;
    /** Of totalCommitted, instructions advanced by fast-forward
     *  extrapolation instead of the detailed model (0 in full
     *  simulation — the auditors check that). */
    InstCount estimatedInsts = 0;
    /** Cycles covered by fast-forward (never exceeds clock). */
    Cycle ffCycles = 0;
    /** Current DVFS operating point (0 = nominal frequency). */
    std::uint32_t pstate = 0;
    /** Reference cycles lost to SET_FREQ transitions so far. */
    Cycle dvfsStallCycles = 0;
    /** Total dissipated energy (dynamic + leakage), joules. */
    double energyJoules = 0.0;
};

/**
 * Result of one runUntil() call.
 */
struct RunResult
{
    InstCount committed = 0;
    Cycle idleCycles = 0;
    bool finished = false;
};

/**
 * A dynamically composed CASH virtual core.
 */
class VirtualCore
{
  public:
    /**
     * @param grid fabric geometry (not owned)
     * @param params simulation parameters
     * @param id allocation handle
     * @param slices member Slices (>= 1)
     * @param banks member L2 banks (may be empty)
     */
    VirtualCore(const FabricGrid &grid, const SimParams &params,
                VCoreId id, std::vector<SliceId> slices,
                std::vector<BankId> banks);

    /** Attach the instruction source (not owned; must outlive). */
    void bindSource(InstSource *source);

    /**
     * Switch this vcore to sampled simulation (SMARTS-style slices
     * + analytic fast-forward; see sim/sampler.hh). Call before the
     * first runUntil. Irreversible for the vcore's lifetime.
     */
    void enableSampling(const SamplerParams &params);

    bool samplingEnabled() const { return sampler_ != nullptr; }

    /** The slice scheduler, or nullptr in full simulation. */
    const SliceController *sampler() const { return sampler_.get(); }

    /**
     * Advance simulated time until the vcore clock reaches target
     * or the source finishes. In sampled mode, steady quanta are
     * extrapolated instead of simulated (RunResult::committed then
     * includes estimated instructions; billing integrals and the
     * clock remain exact).
     */
    RunResult runUntil(Cycle target);

    /**
     * Reconfigure to a new Slice/bank membership, charging all
     * stalls (pipeline flush, register flush, cache flushes) to the
     * vcore clock.
     *
     * @param command_latency interface-network delivery delay
     */
    ReconfigCost reconfigure(std::vector<SliceId> new_slices,
                             std::vector<BankId> new_banks,
                             Cycle command_latency = 0);

    /**
     * Switch the core clock to a new DVFS operating point
     * (0 <= pstate < kNumPStates). Core-side latencies dilate by the
     * P-state's divider; memory-side latencies (L2, DRAM, networks)
     * stay in reference cycles, so memory-bound code loses less
     * throughput per downclock than compute-bound code. Charges a
     * pipeline-drain + PLL-relock stall to the vcore clock and
     * returns it (0 when the P-state is unchanged).
     */
    Cycle setPState(std::uint32_t pstate);

    /** Current DVFS operating point. */
    std::uint32_t pstate() const { return pstate_; }

    /**
     * Metered energy dissipated since construction, in joules. Like
     * the holdings integrals, the meter closes lazily: counter
     * deltas become voltage-scaled switching energy, and the clock
     * window becomes leakage at the held configuration. Exact in
     * sampled mode too — extrapolated quanta credit the same
     * counters the meter reads.
     */
    double energyJoules() const;
    /** The switching-energy component of energyJoules(). */
    double dynamicJoules() const;
    /** The leakage component of energyJoules(). */
    double leakageJoules() const;
    /** Where the joules went, by structure. */
    EnergyBreakdown energyBreakdown() const;

    Cycle now() const { return clock_; }
    VCoreId id() const { return id_; }
    std::uint32_t numSlices() const
    {
        return static_cast<std::uint32_t>(slices_.size());
    }
    std::uint32_t numBanks() const { return l2_.numBanks(); }

    /** Member Slice fabric ids, in member order. */
    std::vector<SliceId> sliceIds() const;

    /**
     * Integrated holdings: Σ Slices x cycles held since
     * construction, exact across every reconfiguration (stall
     * cycles are charged at the *new* membership, matching the
     * runtime's billing convention). The provider's billing
     * auditor reconciles revenue against these integrals.
     */
    std::uint64_t sliceCycles() const;
    /** Integrated holdings: Σ banks x cycles held. */
    std::uint64_t bankCycles() const;

    /** Per-member raw counters (member < numSlices). */
    const SliceCounters &counters(std::uint32_t member) const;

    /** Aggregate vcore state. */
    VCoreMeta meta() const;

    const L2System &l2() const { return l2_; }
    const RenameState &rename() const { return rename_; }
    const BranchPredictor &branchPredictor() const { return bpred_; }

  private:
    /** Per-member-Slice structural state. */
    struct SliceCtx
    {
        SliceCtx(SliceId sid, const SimParams &params);

        SliceId id;
        Addr lastFetchBlock = invalidAddr;
        Cycle aluFree = 0;
        Cycle lsuFree = 0;
        /** Ring buffers: slot (n % size) holds the cycle the
         *  resource taken by the n-th user frees. Each cursor is the
         *  next user's slot, wrapped as it advances. */
        std::vector<Cycle> robRing;
        std::vector<Cycle> iqRing;
        std::vector<Cycle> lsqRing;
        std::vector<Cycle> sbRing;
        std::vector<Cycle> loadRing;
        std::size_t robPos = 0;
        std::size_t iqPos = 0;
        std::size_t lsqPos = 0;
        std::size_t sbPos = 0;
        std::size_t loadPos = 0;
        /** Store-buffer address book for store-to-load forwarding:
         *  parallel to sbRing (block address of each buffered store). */
        std::vector<Addr> sbBlocks;
        SetAssocCache l1i;
        SetAssocCache l1d;
        SliceCounters ctrs;
    };

    /** Completion-history entry for dependence tracking. */
    struct HistEnt
    {
        Cycle complete = 0;
        std::uint32_t member = 0;
        std::uint8_t destReg = MicroOp::noDest;
    };

    /** Process one instruction; returns its commit cycle. */
    Cycle processInst(const MicroOp &op);

    /** The full-detail runUntil loop (every instruction timed). */
    RunResult runDetailed(Cycle target);

    /** Extrapolate one quantum ending at seg_end from the sampler
     *  model; returns true when the source finished inside it. */
    bool fastForward(Cycle seg_end, RunResult &result);

    /** Spread extrapolated event counts across the member Slices
     *  (sums preserved exactly, so per-member counters keep
     *  reconciling against the vcore totals). */
    void creditCounters(InstCount insts, std::uint64_t requests,
                        std::uint64_t request_latency);

    /** Sum of all member counters. */
    SliceCounters aggregateCounters() const;

    /**
     * Pick the member Slice an instruction executes on. Memory ops
     * go to the Slice owning their address partition (the LS-bank
     * sorting network); other ops follow their first available
     * producer (keeping dataflow chains local, as in Core Fusion
     * style steering) unless that Slice is overloaded, in which
     * case the least-loaded Slice is used.
     */
    std::uint32_t steer(const MicroOp &op,
                        const HistEnt *producers[2]) const;

    /** Operand-network one-way latency between two members. */
    Cycle operandLatency(std::uint32_t from, std::uint32_t to) const;

    /** Member Slice owning an address (LS-bank sorting hash). */
    std::uint32_t memoryOwner(Addr addr) const;

    /** Timing + functional simulation of a data-memory access on
     *  the Slice owning the address, which is where steer() runs
     *  every memory op. Returns the access latency. */
    Cycle memAccess(SliceCtx &owner, Addr addr, bool write,
                    Cycle when);

    /** Fast-forward all structural floors to at least `when`. */
    void advanceFloors(Cycle when);

    /** Rebuild the member-distance matrix. */
    void rebuildDistances();

    /** Fold clock progress into the holdings integrals. */
    void accrueHoldings() const;

    /** Fold counter deltas and the elapsed clock window into the
     *  energy meter at the current P-state and membership. Must run
     *  before any membership or P-state change (the old window's
     *  energy belongs to the old operating point). */
    void accrueEnergy() const;

    /** Refresh the dilated core-side latency constants from the
     *  current P-state's divider. */
    void recomputeDilation();

    const FabricGrid &grid_;
    SimParams params_;
    VCoreId id_;
    std::vector<std::unique_ptr<SliceCtx>> slices_;
    std::vector<std::uint32_t> distance_; ///< N*N member hop matrix
    L2System l2_;
    RenameState rename_;
    BranchPredictor bpred_;
    InstSource *source_ = nullptr;

    /** log2 of the cache block size (a power of two). */
    std::uint32_t blockShift_ = 0;

    Cycle clock_ = 0;
    std::uint64_t seq_ = 0;
    std::vector<HistEnt> hist_;
    /** seq_ % hist_.size(): the next instruction's history slot. */
    std::size_t histPos_ = 0;
    Cycle fetchRedirect_ = 0;
    Cycle lastCommit_ = 0;
    Cycle commitSlotCycle_ = 0;
    std::uint32_t commitSlotUsed_ = 0;
    /** Synchronized global front-end: fetch bandwidth is
     *  fetchWidth * numSlices per cycle across the vcore. */
    Cycle nextFetch_ = 0;
    std::uint32_t fetchUsed_ = 0;
    mutable std::uint32_t steerCursor_ = 0;

    /** DVFS state: the divider of the current P-state, plus the
     *  core-side latencies pre-multiplied by it so the per-inst hot
     *  path pays no multiplies. */
    std::uint32_t pstate_ = 0;
    Cycle freqDiv_ = 1;
    Cycle dFrontendDepth_ = 0;
    Cycle dIntAluLat_ = 0;
    Cycle dFpAluLat_ = 0;
    Cycle dMispredictRestart_ = 0;
    Cycle dL1HitLat_ = 0;
    Cycle dvfsStall_ = 0;

    /** Lazy energy meter (mirrors the holdings integral). */
    mutable EnergyModel energy_;
    mutable Cycle energyAccruedAt_ = 0;
    mutable SliceCounters lastCtrs_;

    InstCount totalCommitted_ = 0;
    Cycle idleCycles_ = 0;
    Cycle reconfigStall_ = 0;
    mutable Cycle holdingsAccruedAt_ = 0;
    mutable std::uint64_t sliceCycles_ = 0;
    mutable std::uint64_t bankCycles_ = 0;
    std::uint64_t requestsDone_ = 0;
    std::uint64_t requestLatencySum_ = 0;

    /** Sampled-mode state (null in full simulation). */
    std::unique_ptr<SliceController> sampler_;
    InstCount estimatedInsts_ = 0;
    Cycle ffCycles_ = 0;
};

} // namespace cash

#endif // CASH_SIM_VCORE_HH
