/**
 * @file
 * SSim: the top-level CASH architecture simulator.
 *
 * SSim owns the fabric (geometry + allocation), the virtual cores,
 * and the Runtime Interface Network (RIN). The RIN is the paper's
 * novel hardware/software interface (Sec III-B2): a dedicated
 * on-chip network on which a privileged Slice (the one running the
 * CASH runtime) can
 *
 *  - query any Slice's performance counters with a request/reply
 *    protocol; every sample is timestamped at the remote Slice and
 *    arrives after a distance-dependent round trip, so readings are
 *    slightly stale — exactly the interface the runtime must cope
 *    with on a fabric that has no fixed cores;
 *  - send EXPAND / SHRINK commands that retarget a virtual core's
 *    Slice and bank membership.
 *
 * The runtime itself executes on a single-Slice virtual core that
 * bypasses the reconfigurable L2 (Sec III-B1); SSim reserves that
 * Slice at construction.
 */

#ifndef CASH_SIM_SSIM_HH
#define CASH_SIM_SSIM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fabric/allocator.hh"
#include "fabric/grid.hh"
#include "sim/params.hh"
#include "sim/perf_counter.hh"
#include "sim/reconfig.hh"
#include "sim/vcore.hh"

namespace cash
{

/**
 * Reply to a RIN counter query: all member-Slice samples plus the
 * vcore-level aggregate (request QoS counters live there).
 */
struct VCoreSample
{
    std::vector<CounterSample> slices;
    VCoreMeta meta;
    /** Cycle the full reply reached the runtime Slice. */
    Cycle arrival = 0;
};

/**
 * Requested Slice/bank counts of an EXPAND/SHRINK command, as seen
 * by a command gate. A SET_FREQ rides the same channel: it carries
 * the vcore's current counts plus the requested P-state, so one
 * gate arbitrates both knobs.
 */
struct CommandRequest
{
    std::uint32_t slices = 0;
    std::uint32_t banks = 0;
    /** Requested DVFS P-state, or -1 for "no frequency change"
     *  (EXPAND/SHRINK commands leave this at -1; a gate that echoes
     *  the request back unchanged therefore grants the P-state). */
    std::int32_t pstate = -1;
};

/**
 * Outcome of a chip-level compaction.
 */
struct CompactOutcome
{
    /** VCores whose placement changed. */
    std::vector<VCoreId> moved;
    /** Per-move reconfiguration stall, parallel to `moved` (a
     *  provider charging migration time needs the split). */
    std::vector<Cycle> stalls;
    /** Total reconfiguration stall charged across moved vcores. */
    Cycle totalStall = 0;
};

/**
 * The CASH chip simulator.
 */
class SSim
{
  public:
    /**
     * A privileged interposer on the RIN command channel: called
     * before every EXPAND/SHRINK is applied, it may pass the
     * request through, clamp it (partial grant), or deny it by
     * returning nullopt. This is how a multi-tenant provider
     * arbitrates the fabric without owning every runtime's loop —
     * the gate runs on the privileged runtime Slice (Sec III-B2).
     */
    using CommandGate = std::function<std::optional<CommandRequest>(
        VCoreId, const CommandRequest &)>;

    explicit SSim(const FabricParams &fabric = FabricParams(),
                  const SimParams &params = SimParams());

    /**
     * Select full or sampled simulation for vcores created AFTER
     * this call (existing vcores keep their mode). Sampled mode
     * (sim/sampler.hh) trades per-instruction detail during steady
     * phases for raw speed; billing integrals and lifecycle
     * accounting stay exact, instruction counts become partially
     * estimated (VCoreMeta::estimatedInsts). Off by default.
     */
    void setSampling(SimMode mode,
                     const SamplerParams &params = SamplerParams());

    SimMode simMode() const { return simMode_; }

    /**
     * Allocate and construct a virtual core.
     *
     * @param num_slices member Slices (>= 1)
     * @param num_banks 64 KB L2 banks
     * @return the new vcore id, or nullopt if the fabric is full
     */
    std::optional<VCoreId>
    createVCore(std::uint32_t num_slices, std::uint32_t num_banks);

    /** Tear down a virtual core and release its resources. */
    void destroyVCore(VCoreId id);

    /** Access a live virtual core; panics on unknown ids. */
    VirtualCore &vcore(VCoreId id);
    const VirtualCore &vcore(VCoreId id) const;

    /**
     * RIN: sample a virtual core's counters from the runtime Slice.
     * Message latency (round trip per member, farthest member
     * dominating the reply) is reflected in the sample's arrival.
     */
    VCoreSample readCounters(VCoreId id);

    /**
     * RIN: EXPAND/SHRINK a virtual core to the given resource
     * counts. Placement is delegated to the fabric allocator
     * (which prefers keeping currently-held tiles).
     *
     * @return the reconfiguration cost, or nullopt if the fabric
     *         cannot supply the request (vcore left unchanged)
     */
    std::optional<ReconfigCost>
    command(VCoreId id, std::uint32_t num_slices,
            std::uint32_t num_banks);

    /**
     * RIN: SET_FREQ a virtual core to a DVFS P-state. Routed
     * through the command gate like EXPAND/SHRINK (the request
     * carries the current resource counts plus the P-state; the
     * gate may clamp or deny it). The transition stall is charged
     * to the vcore's clock.
     *
     * @return the stall charged (0 when already at the P-state), or
     *         nullopt if the gate denied the change
     */
    std::optional<Cycle> setFreq(VCoreId id, std::uint32_t pstate);

    /**
     * Install (or clear, with nullptr) the command gate. At most
     * one gate is active; commands issued while it is installed are
     * filtered through it.
     */
    void setCommandGate(CommandGate gate);

    /**
     * Fragmentation repair at chip level: reschedule all live
     * vcores (FabricAllocator::compact) and reconfigure every moved
     * vcore to its new placement, charging the stalls to the moved
     * vcores' clocks. Resource counts are preserved, so no QoS
     * contract changes — only placement quality.
     */
    CompactOutcome compact();

    /** The Slice reserved for the CASH runtime. */
    SliceId runtimeSlice() const { return runtimeSlice_; }

    /** Total RIN messages sent (queries, replies, commands). */
    std::uint64_t rinMessages() const { return rinMessages_; }

    const FabricGrid &grid() const { return grid_; }
    const FabricAllocator &allocator() const { return alloc_; }
    const SimParams &params() const { return params_; }

  private:
    /** RIN one-way latency from the runtime Slice to a Slice. */
    Cycle rinLatency(SliceId target) const;

    FabricGrid grid_;
    FabricAllocator alloc_;
    SimParams params_;
    std::map<VCoreId, std::unique_ptr<VirtualCore>> vcores_;
    SliceId runtimeSlice_ = invalidSlice;
    VCoreId runtimeHome_ = invalidVCore;
    std::uint64_t rinMessages_ = 0;
    CommandGate gate_;
    SimMode simMode_ = SimMode::Full;
    SamplerParams samplerParams_{};
};

} // namespace cash

#endif // CASH_SIM_SSIM_HH
