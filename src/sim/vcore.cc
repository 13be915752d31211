#include "sim/vcore.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "check/invariant.hh"
#include "common/log.hh"

namespace cash
{

namespace
{

/** Advance a ring cursor by one slot. */
inline void
advance(std::size_t &pos, std::size_t size)
{
    if (++pos == size)
        pos = 0;
}

} // namespace

VirtualCore::SliceCtx::SliceCtx(SliceId sid, const SimParams &params)
    : id(sid),
      robRing(params.slice.robSize, 0),
      iqRing(params.slice.issueWindow, 0),
      lsqRing(params.slice.lsqSize, 0),
      sbRing(params.slice.storeBuffer, 0),
      loadRing(params.slice.maxInflightLoads, 0),
      sbBlocks(params.slice.storeBuffer, invalidAddr),
      l1i(params.cache.l1iSize, params.cache.blockSize,
          params.cache.l1Assoc),
      l1d(params.cache.l1dSize, params.cache.blockSize,
          params.cache.l1Assoc)
{
}

VirtualCore::VirtualCore(const FabricGrid &grid,
                         const SimParams &params, VCoreId id,
                         std::vector<SliceId> slices,
                         std::vector<BankId> banks)
    : grid_(grid), params_(params), id_(id),
      l2_(grid, params.cache, banks),
      rename_(params.slice,
              static_cast<std::uint32_t>(slices.size())),
      blockShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.cache.blockSize))),
      hist_(params.depWindow),
      energy_(params.energy)
{
    if (slices.empty())
        fatal("a virtual core needs at least one Slice");
    if (params.depWindow < params.slice.robSize * 8)
        fatal("depWindow %u too small for ROB size %u",
              params.depWindow, params.slice.robSize);
    for (SliceId sid : slices)
        slices_.push_back(std::make_unique<SliceCtx>(sid, params_));
    rebuildDistances();
    recomputeDilation();
}

void
VirtualCore::bindSource(InstSource *source)
{
    source_ = source;
}

void
VirtualCore::enableSampling(const SamplerParams &params)
{
    if (sampler_)
        fatal("sampling already enabled on this vcore");
    sampler_ = std::make_unique<SliceController>(params);
}

std::vector<SliceId>
VirtualCore::sliceIds() const
{
    std::vector<SliceId> ids;
    ids.reserve(slices_.size());
    for (const auto &sc : slices_)
        ids.push_back(sc->id);
    return ids;
}

void
VirtualCore::accrueHoldings() const
{
    Cycle elapsed = clock_ - holdingsAccruedAt_;
    sliceCycles_ += static_cast<std::uint64_t>(elapsed)
        * slices_.size();
    bankCycles_ += static_cast<std::uint64_t>(elapsed)
        * l2_.numBanks();
    holdingsAccruedAt_ = clock_;
}

void
VirtualCore::accrueEnergy() const
{
    SliceCounters now = aggregateCounters();
    SliceCounters delta;
    delta.committedInsts =
        now.committedInsts - lastCtrs_.committedInsts;
    delta.l1dAccesses = now.l1dAccesses - lastCtrs_.l1dAccesses;
    delta.l1iAccesses = now.l1iAccesses - lastCtrs_.l1iAccesses;
    delta.l2Accesses = now.l2Accesses - lastCtrs_.l2Accesses;
    delta.branches = now.branches - lastCtrs_.branches;
    delta.branchMispredicts =
        now.branchMispredicts - lastCtrs_.branchMispredicts;
    delta.operandNetMsgs =
        now.operandNetMsgs - lastCtrs_.operandNetMsgs;
    energy_.accrueDynamic(delta, pstate_);
    energy_.accrueLeakage(
        clock_ - energyAccruedAt_,
        static_cast<std::uint32_t>(slices_.size()), l2_.numBanks(),
        pstate_);
    lastCtrs_ = now;
    energyAccruedAt_ = clock_;
}

double
VirtualCore::energyJoules() const
{
    accrueEnergy();
    return energy_.joules();
}

double
VirtualCore::dynamicJoules() const
{
    accrueEnergy();
    return energy_.dynamicJoules();
}

double
VirtualCore::leakageJoules() const
{
    accrueEnergy();
    return energy_.leakageJoules();
}

EnergyBreakdown
VirtualCore::energyBreakdown() const
{
    accrueEnergy();
    return energy_.breakdown();
}

void
VirtualCore::recomputeDilation()
{
    freqDiv_ = pstateTable()[pstate_].divider;
    dFrontendDepth_ = params_.slice.frontendDepth * freqDiv_;
    dIntAluLat_ = params_.slice.intAluLat * freqDiv_;
    dFpAluLat_ = params_.slice.fpAluLat * freqDiv_;
    dMispredictRestart_ = params_.slice.mispredictRestart * freqDiv_;
    dL1HitLat_ = params_.cache.l1HitLat * freqDiv_;
}

Cycle
VirtualCore::setPState(std::uint32_t pstate)
{
    if (pstate >= kNumPStates)
        fatal("SET_FREQ to unknown P-state %u", pstate);
    if (pstate == pstate_)
        return 0;

    // Close the energy integral at the outgoing operating point;
    // the counters accumulated so far switched at the old voltage.
    accrueEnergy();

    pstate_ = pstate;
    recomputeDilation();

    // Pipeline drain + PLL relock. Charged like a reconfiguration
    // stall: the clock (and thus billing and leakage) advances, and
    // the sampler's measured IPC is invalidated — the IPC level is
    // a property of the operating point.
    Cycle stall = params_.energy.dvfsStallCycles;
    dvfsStall_ += stall;
    advanceFloors(clock_ + stall);
    if (sampler_)
        sampler_->onReconfigure();
    return stall;
}

std::uint64_t
VirtualCore::sliceCycles() const
{
    accrueHoldings();
    return sliceCycles_;
}

std::uint64_t
VirtualCore::bankCycles() const
{
    accrueHoldings();
    return bankCycles_;
}

const SliceCounters &
VirtualCore::counters(std::uint32_t member) const
{
    if (member >= slices_.size())
        panic("counters for member %u of %zu", member, slices_.size());
    return slices_[member]->ctrs;
}

VCoreMeta
VirtualCore::meta() const
{
    VCoreMeta m;
    m.clock = clock_;
    m.totalCommitted = totalCommitted_;
    m.idleCycles = idleCycles_;
    m.reconfigStallCycles = reconfigStall_;
    m.requestsDone = requestsDone_;
    m.requestLatencySum = requestLatencySum_;
    m.appBacklog = source_ ? source_->backlog() : 0;
    m.numSlices = static_cast<std::uint32_t>(slices_.size());
    m.numBanks = l2_.numBanks();
    m.estimatedInsts = estimatedInsts_;
    m.ffCycles = ffCycles_;
    m.pstate = pstate_;
    m.dvfsStallCycles = dvfsStall_;
    m.energyJoules = energyJoules();
    return m;
}

SliceCounters
VirtualCore::aggregateCounters() const
{
    SliceCounters sum;
    for (const auto &sc : slices_) {
        sum.committedInsts += sc->ctrs.committedInsts;
        sum.committedRequests += sc->ctrs.committedRequests;
        sum.requestLatencySum += sc->ctrs.requestLatencySum;
        sum.l1dAccesses += sc->ctrs.l1dAccesses;
        sum.l1dMisses += sc->ctrs.l1dMisses;
        sum.l1iAccesses += sc->ctrs.l1iAccesses;
        sum.l1iMisses += sc->ctrs.l1iMisses;
        sum.l2Accesses += sc->ctrs.l2Accesses;
        sum.l2Misses += sc->ctrs.l2Misses;
        sum.branches += sc->ctrs.branches;
        sum.branchMispredicts += sc->ctrs.branchMispredicts;
        sum.operandNetMsgs += sc->ctrs.operandNetMsgs;
    }
    return sum;
}

void
VirtualCore::rebuildDistances()
{
    std::size_t n = slices_.size();
    distance_.assign(n * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            distance_[i * n + j] = grid_.sliceDistance(
                slices_[i]->id, slices_[j]->id);
        }
    }
}

Cycle
VirtualCore::operandLatency(std::uint32_t from, std::uint32_t to) const
{
    if (from == to)
        return 0;
    std::uint32_t hops = distance_[from * slices_.size() + to];
    return params_.net.operandInjectLat
        + static_cast<Cycle>(hops) * params_.net.operandHopLat;
}

std::uint32_t
VirtualCore::memoryOwner(Addr addr) const
{
    // LS-bank sorting: block addresses are hash-partitioned across
    // the member Slices' L1Ds.
    Addr block = addr >> blockShift_;
    std::uint64_t h = block * 0xff51afd7ed558ccdull;
    return static_cast<std::uint32_t>((h >> 33) % slices_.size());
}

Cycle
VirtualCore::memAccess(SliceCtx &oc, Addr addr, bool write,
                       Cycle when)
{
    Addr block = addr >> blockShift_;

    // Store-to-load forwarding from the owner's store buffer.
    if (!write) {
        for (std::size_t i = 0; i < oc.sbBlocks.size(); ++i) {
            if (oc.sbBlocks[i] == block && oc.sbRing[i] > when) {
                ++oc.ctrs.l1dAccesses;
                return freqDiv_;
            }
        }
    }

    ++oc.ctrs.l1dAccesses;
    CacheAccess l1 = oc.l1d.access(addr, write);
    if (l1.hit)
        return dL1HitLat_;

    ++oc.ctrs.l1dMisses;
    ++oc.ctrs.l2Accesses;
    L2Access l2 = l2_.access(oc.id, addr, write);
    if (!l2.hit)
        ++oc.ctrs.l2Misses;
    // The L1 lookup runs at the core clock; the L2/DRAM portion is
    // in the reference domain and does not dilate — the root of the
    // memory-bound IPC-per-Hz advantage DVFS exploits.
    return dL1HitLat_ + l2.latency;
}

std::uint32_t
VirtualCore::steer(const MicroOp &op,
                   const HistEnt *producers[2]) const
{
    auto n = static_cast<std::uint32_t>(slices_.size());
    if (n == 1)
        return 0;

    // Memory ops execute on the Slice owning the address partition
    // (the LS-bank sorting network routes them there anyway).
    if (op.isMem())
        return memoryOwner(op.addr);

    // Follow the first producer to keep dataflow chains local.
    std::uint32_t preferred = ~std::uint32_t(0);
    for (int s = 0; s < 2; ++s) {
        if (producers[s] && producers[s]->member < n) {
            preferred = producers[s]->member;
            break;
        }
    }

    // Least-loaded member (by ALU availability) as fallback and as
    // the overload escape hatch.
    std::uint32_t lightest = steerCursor_ % n;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (slices_[i]->aluFree < slices_[lightest]->aluFree)
            lightest = i;
    }
    ++steerCursor_;

    if (preferred == ~std::uint32_t(0))
        return lightest;
    // Stay with the chain unless its Slice is clearly backed up.
    if (slices_[preferred]->aluFree
        > slices_[lightest]->aluFree + 3) {
        return lightest;
    }
    return preferred;
}

Cycle
VirtualCore::processInst(const MicroOp &op)
{
    const SliceParams &sp = params_.slice;
#if CASH_CHECK_INVARIANTS
    const Cycle clock_before = clock_;
#endif

    // ------ Source lookup first (steering needs the producers).
    const HistEnt *producers[2] = {nullptr, nullptr};
    const std::uint16_t dists[2] = {op.srcDist1, op.srcDist2};
    for (int s = 0; s < 2; ++s) {
        std::uint16_t dist = dists[s];
        if (dist == 0 || dist > hist_.size() || dist > seq_)
            continue;
        producers[s] = &hist_[histPos_ >= dist
                                  ? histPos_ - dist
                                  : histPos_ + hist_.size() - dist];
    }

    std::uint32_t member = steer(op, producers);
    SliceCtx &sc = *slices_[member];

    // ------ Fetch: synchronized global front-end, fetchWidth slots
    // per member Slice per cycle.
    std::uint32_t fetch_bw = sp.fetchWidth
        * static_cast<std::uint32_t>(slices_.size());
    Cycle f = std::max(nextFetch_, fetchRedirect_);
    if (f > nextFetch_) {
        nextFetch_ = f;
        fetchUsed_ = 0;
    }

    // L1I probe once per fetched block (on the executing Slice).
    Addr fetch_block = op.pc >> blockShift_;
    if (fetch_block != sc.lastFetchBlock) {
        sc.lastFetchBlock = fetch_block;
        ++sc.ctrs.l1iAccesses;
        CacheAccess ia = sc.l1i.access(op.pc, false);
        if (!ia.hit) {
            ++sc.ctrs.l1iMisses;
            ++sc.ctrs.l2Accesses;
            L2Access l2 = l2_.access(sc.id, op.pc, false);
            if (!l2.hit)
                ++sc.ctrs.l2Misses;
            // The synchronized front-end resumes after the fill.
            nextFetch_ = f + l2.latency;
            fetchUsed_ = 0;
            f = nextFetch_;
        }
    }
    if (++fetchUsed_ >= fetch_bw) {
        nextFetch_ += freqDiv_;
        fetchUsed_ = 0;
    }

    // ------ Dispatch: front-end depth + ROB/IQ (+LSQ) occupancy.
    Cycle d = f + dFrontendDepth_;
    d = std::max(d, sc.robRing[sc.robPos]);
    d = std::max(d, sc.iqRing[sc.iqPos]);
    if (op.isMem())
        d = std::max(d, sc.lsqRing[sc.lsqPos]);

    // ------ Source readiness via the dependence history.
    Cycle ready = d;
    std::uint8_t producer_regs[2] = {MicroOp::noDest, MicroOp::noDest};
    for (int s = 0; s < 2; ++s) {
        const HistEnt *prod = producers[s];
        if (!prod)
            continue;
        Cycle avail = prod->complete;
        if (prod->member != member
            && prod->member < slices_.size()) {
            avail += operandLatency(prod->member, member);
            ++sc.ctrs.operandNetMsgs;
        }
        ready = std::max(ready, avail);
        producer_regs[s] = prod->destReg;
    }

    // ------ Issue: window exit + functional unit + memory ordering.
    // Core-side steps span freqDiv_ reference cycles each (the core
    // clock is the reference clock divided by the P-state divider).
    Cycle issue = std::max(d + freqDiv_, ready);
    Cycle complete = issue;

    switch (op.op) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
      case OpClass::Branch:
        issue = std::max(issue, sc.aluFree);
        sc.aluFree = issue + freqDiv_;
        complete = issue + (op.op == OpClass::FpAlu
                            ? dFpAluLat_ : dIntAluLat_);
        break;
      case OpClass::Load: {
        issue = std::max(issue, sc.lsuFree);
        issue = std::max(issue, sc.loadRing[sc.loadPos]);
        sc.lsuFree = issue + freqDiv_;
        Cycle lat = memAccess(sc, op.addr, false, issue);
        complete = issue + lat;
        sc.loadRing[sc.loadPos] = complete;
        advance(sc.loadPos, sc.loadRing.size());
        break;
      }
      case OpClass::Store:
        issue = std::max(issue, sc.lsuFree);
        issue = std::max(issue, sc.sbRing[sc.sbPos]);
        sc.lsuFree = issue + freqDiv_;
        complete = issue + freqDiv_; // enters the store buffer
        break;
      case OpClass::Nop:
        complete = issue;
        break;
    }

    // Branch resolution: shared front-end, synced across Slices.
    if (op.op == OpClass::Branch) {
        ++sc.ctrs.branches;
        BranchOutcome bo = bpred_.predictAndTrain(op.pc, op.taken);
        if (!bo.directionCorrect) {
            ++sc.ctrs.branchMispredicts;
            fetchRedirect_ = std::max(
                fetchRedirect_, complete + dMispredictRestart_);
        } else if (op.taken && !bo.btbHit) {
            // Correct direction but unknown target: decode bubble.
            fetchRedirect_ =
                std::max(fetchRedirect_, f + 2 * freqDiv_);
        }
    }

    // ------ Commit: program order, global commit bandwidth.
    Cycle commit = std::max(complete + freqDiv_, lastCommit_);
    std::uint32_t commit_bw = sp.commitWidth
        * static_cast<std::uint32_t>(slices_.size());
    if (commit > commitSlotCycle_) {
        commitSlotCycle_ = commit;
        commitSlotUsed_ = 0;
    } else {
        commit = commitSlotCycle_;
    }
    if (++commitSlotUsed_ >= commit_bw) {
        commitSlotCycle_ += freqDiv_;
        commitSlotUsed_ = 0;
    }
    lastCommit_ = commit;
    clock_ = commit;

    // Structural-floor ordering: an instruction moves strictly
    // forward through fetch -> dispatch -> issue -> completion ->
    // commit, and the vcore clock never runs backward.
    CASH_INVARIANT(d >= f, "dispatch at %llu before fetch at %llu",
                   static_cast<unsigned long long>(d),
                   static_cast<unsigned long long>(f));
    CASH_INVARIANT(issue > d,
                   "issue at %llu not after dispatch at %llu",
                   static_cast<unsigned long long>(issue),
                   static_cast<unsigned long long>(d));
    CASH_INVARIANT(complete >= issue,
                   "completion at %llu before issue at %llu",
                   static_cast<unsigned long long>(complete),
                   static_cast<unsigned long long>(issue));
    CASH_INVARIANT(commit > complete,
                   "commit at %llu not after completion at %llu",
                   static_cast<unsigned long long>(commit),
                   static_cast<unsigned long long>(complete));
    CASH_INVARIANT(clock_ >= clock_before,
                   "vcore clock ran backward (%llu -> %llu)",
                   static_cast<unsigned long long>(clock_before),
                   static_cast<unsigned long long>(clock_));

    // Store drains after commit: run the cache access now, charge
    // occupancy until the drain completes.
    if (op.op == OpClass::Store) {
        Cycle lat = memAccess(sc, op.addr, true, issue);
        Cycle drain = commit + lat;
        sc.sbRing[sc.sbPos] = drain;
        sc.sbBlocks[sc.sbPos] = op.addr >> blockShift_;
        advance(sc.sbPos, sc.sbRing.size());
        sc.lsqRing[sc.lsqPos] = drain;
        advance(sc.lsqPos, sc.lsqRing.size());
    } else if (op.op == OpClass::Load) {
        sc.lsqRing[sc.lsqPos] = complete;
        advance(sc.lsqPos, sc.lsqRing.size());
    }

    // Window bookkeeping (slot frees for inst seq + size).
    sc.robRing[sc.robPos] = commit;
    advance(sc.robPos, sc.robRing.size());
    sc.iqRing[sc.iqPos] = issue;
    advance(sc.iqPos, sc.iqRing.size());

    // Rename bookkeeping: reads of producer registers, then the
    // destination write (program order).
    for (std::uint8_t reg : producer_regs) {
        if (reg != MicroOp::noDest)
            rename_.read(reg, member);
    }
    if (op.destReg != MicroOp::noDest)
        rename_.write(op.destReg, member);

    // History for later consumers. A mispredicted branch's "value"
    // (the redirect) is already modeled via fetchRedirect_.
    hist_[histPos_] = HistEnt{complete, member, op.destReg};
    advance(histPos_, hist_.size());
    ++seq_;

    // Counters and request accounting.
    ++sc.ctrs.committedInsts;
    ++totalCommitted_;
    if (op.endOfRequest && op.request != invalidRequest) {
        ++requestsDone_;
        ++sc.ctrs.committedRequests;
        Cycle lat = commit > op.requestArrival
            ? commit - op.requestArrival : 0;
        requestLatencySum_ += lat;
        sc.ctrs.requestLatencySum += lat;
    }

    if (source_)
        source_->onCommit(op, commit);
    return commit;
}

void
VirtualCore::advanceFloors(Cycle when)
{
    for (auto &sc : slices_) {
        sc->aluFree = std::max(sc->aluFree, when);
        sc->lsuFree = std::max(sc->lsuFree, when);
    }
    if (nextFetch_ < when) {
        nextFetch_ = when;
        fetchUsed_ = 0;
    }
    fetchRedirect_ = std::max(fetchRedirect_, when);
    lastCommit_ = std::max(lastCommit_, when);
    commitSlotCycle_ = std::max(commitSlotCycle_, when);
    commitSlotUsed_ = 0;
    clock_ = std::max(clock_, when);
    CASH_INVARIANT(clock_ >= when && lastCommit_ >= when
                       && nextFetch_ >= when,
                   "structural floors below the advance target "
                   "%llu", static_cast<unsigned long long>(when));
}

RunResult
VirtualCore::runUntil(Cycle target)
{
    if (!source_)
        fatal("runUntil with no instruction source bound");
    if (!sampler_)
        return runDetailed(target);

    // Sampled mode: advance one sampling quantum at a time, on a
    // fixed grid so detailed commit overshoot cannot drift the
    // schedule. Warmup/measure quanta run through the detailed
    // loop (bracketed by counter snapshots so the controller sees
    // the quantum's deltas); steady quanta are extrapolated.
    RunResult result;
    while (clock_ < target) {
        Cycle seg_end = std::min(target, sampler_->segmentEnd(clock_));
        if (sampler_->fastForwarding()) {
            if (fastForward(seg_end, result)) {
                result.finished = true;
                break;
            }
        } else {
            Cycle c0 = clock_;
            InstCount i0 = totalCommitted_;
            Cycle idle0 = idleCycles_;
            SliceCounters before = aggregateCounters();
            RunResult r = runDetailed(seg_end);
            result.committed += r.committed;
            result.idleCycles += r.idleCycles;
            SliceCounters after = aggregateCounters();
            SliceCounters delta;
            delta.committedInsts =
                after.committedInsts - before.committedInsts;
            delta.committedRequests =
                after.committedRequests - before.committedRequests;
            delta.requestLatencySum =
                after.requestLatencySum - before.requestLatencySum;
            delta.l1dAccesses = after.l1dAccesses - before.l1dAccesses;
            delta.l1dMisses = after.l1dMisses - before.l1dMisses;
            delta.l1iAccesses = after.l1iAccesses - before.l1iAccesses;
            delta.l1iMisses = after.l1iMisses - before.l1iMisses;
            delta.l2Accesses = after.l2Accesses - before.l2Accesses;
            delta.l2Misses = after.l2Misses - before.l2Misses;
            delta.branches = after.branches - before.branches;
            delta.branchMispredicts =
                after.branchMispredicts - before.branchMispredicts;
            delta.operandNetMsgs =
                after.operandNetMsgs - before.operandNetMsgs;
            sampler_->onDetailedQuantum(c0, totalCommitted_ - i0,
                                        clock_ - c0,
                                        idleCycles_ - idle0, delta);
            if (r.finished) {
                result.finished = true;
                break;
            }
        }
    }
    return result;
}

bool
VirtualCore::fastForward(Cycle seg_end, RunResult &result)
{
    const FfModel &model = sampler_->model();
    Cycle start = clock_;
    Cycle dur = seg_end - clock_;
    auto want = static_cast<InstCount>(
        std::llround(model.ipc * static_cast<double>(dur)));

    SkipResult sk;
    if (want > 0)
        sk = source_->skip(want, clock_, seg_end);

    // Busy/idle split from the model: the quantum's busy portion
    // is what the skipped work would have taken at the measured
    // busy IPC; any remainder is pacing idle (or a boundary stop).
    Cycle busy = dur;
    if (sk.skipped < want) {
        busy = std::min(dur, static_cast<Cycle>(std::llround(
            static_cast<double>(sk.skipped) / model.ipc)));
    }
    Cycle advance_to;
    if (sk.phaseBoundary || sk.finished) {
        // Stop where the stream stopped; the rest of the quantum
        // is handled by the (re-measuring or finished) caller.
        advance_to = clock_ + busy;
    } else {
        advance_to = seg_end;
        Cycle idle = dur - busy;
        idleCycles_ += idle;
        result.idleCycles += idle;
    }

    totalCommitted_ += sk.skipped;
    estimatedInsts_ += sk.skipped;
    requestsDone_ += sk.requests;
    requestLatencySum_ += sk.requestLatencySum;
    result.committed += sk.skipped;
    creditCounters(sk.skipped, sk.requests, sk.requestLatencySum);

    Cycle advanced = advance_to > clock_ ? advance_to - clock_ : 0;
    ffCycles_ += advanced;
    if (advance_to > clock_)
        advanceFloors(advance_to);
    sampler_->onFastForward(start, sk.skipped, advanced,
                            sk.phaseBoundary);

    CASH_INVARIANT(estimatedInsts_ <= totalCommitted_,
                   "more estimated than committed instructions");
    CASH_INVARIANT(ffCycles_ <= clock_,
                   "fast-forwarded %llu of %llu total cycles",
                   static_cast<unsigned long long>(ffCycles_),
                   static_cast<unsigned long long>(clock_));
    return sk.finished;
}

void
VirtualCore::creditCounters(InstCount insts, std::uint64_t requests,
                            std::uint64_t request_latency)
{
    if (insts == 0)
        return;
    const FfModel &model = sampler_->model();
    auto n = static_cast<std::uint64_t>(slices_.size());
    // Integer even-split: member sums stay exactly equal to the
    // vcore-level totals, which the vcore auditor reconciles.
    auto spread = [&](std::uint64_t total,
                      std::uint64_t SliceCounters::*field) {
        std::uint64_t per = total / n;
        std::uint64_t rem = total % n;
        for (std::uint64_t i = 0; i < n; ++i)
            slices_[i]->ctrs.*field += per + (i < rem ? 1 : 0);
    };
    auto rate = [&](double r) {
        return static_cast<std::uint64_t>(
            std::llround(r * static_cast<double>(insts)));
    };
    spread(insts, &SliceCounters::committedInsts);
    spread(requests, &SliceCounters::committedRequests);
    spread(request_latency, &SliceCounters::requestLatencySum);
    spread(rate(model.l1dAccessRate), &SliceCounters::l1dAccesses);
    spread(rate(model.l1dMissRate), &SliceCounters::l1dMisses);
    spread(rate(model.l1iAccessRate), &SliceCounters::l1iAccesses);
    spread(rate(model.l1iMissRate), &SliceCounters::l1iMisses);
    spread(rate(model.l2AccessRate), &SliceCounters::l2Accesses);
    spread(rate(model.l2MissRate), &SliceCounters::l2Misses);
    spread(rate(model.branchRate), &SliceCounters::branches);
    spread(rate(model.mispredictRate),
           &SliceCounters::branchMispredicts);
    spread(rate(model.operandNetRate),
           &SliceCounters::operandNetMsgs);
}

RunResult
VirtualCore::runDetailed(Cycle target)
{
    RunResult result;
    while (clock_ < target) {
        FetchResult fr = source_->next(clock_);
        switch (fr.kind) {
          case FetchResult::Kind::Finished:
            result.finished = true;
            return result;
          case FetchResult::Kind::IdleUntil: {
            Cycle until = std::max(fr.idleUntil, clock_);
            Cycle stop = std::min(until, target);
            if (stop > clock_) {
                result.idleCycles += stop - clock_;
                idleCycles_ += stop - clock_;
                advanceFloors(stop);
            }
            if (until > target)
                return result; // still idle at the horizon
            break;
          }
          case FetchResult::Kind::Inst:
            processInst(fr.op);
            ++result.committed;
            break;
        }
    }
    return result;
}

ReconfigCost
VirtualCore::reconfigure(std::vector<SliceId> new_slices,
                         std::vector<BankId> new_banks,
                         Cycle command_latency)
{
    if (new_slices.empty())
        fatal("cannot reconfigure a virtual core to zero Slices");
    if (new_slices.size() > 64)
        fatal("virtual cores support at most 64 Slices");

    // Close the holdings and energy integrals at the outgoing
    // membership; the stall cycles below accrue at the new one (the
    // configuration the customer is billed for during the stall).
    // The energy meter must close first because counters of
    // non-surviving Slices are dropped with their contexts.
    accrueHoldings();
    accrueEnergy();

    ReconfigCost cost;
    cost.commandLatency = command_latency;

    auto old_count = static_cast<std::uint32_t>(slices_.size());
    auto new_count = static_cast<std::uint32_t>(new_slices.size());
    bool slice_change = false;
    {
        std::vector<SliceId> cur = sliceIds();
        slice_change = cur != new_slices;
    }

    if (slice_change) {
        // Any membership change flushes the pipelines.
        cost.pipelineFlush = params_.net.pipelineFlushLat;

        // Contraction: push primary-written live registers to the
        // survivors over the operand network.
        if (new_count < old_count) {
            cost.regsFlushed = rename_.shrink(new_count);
            std::uint32_t per_cycle = params_.net.regFlushPerCycle;
            cost.regFlushCycles =
                (cost.regsFlushed + per_cycle - 1) / per_cycle;
        } else if (new_count > old_count) {
            rename_.expand(new_count);
        }

        // The LS-bank address partition is a function of the Slice
        // count, so L1Ds must be flushed on any membership change.
        std::uint64_t l1_dirty = 0;
        for (auto &sc : slices_)
            l1_dirty += sc->l1d.dirtyLines();
        cost.l1FlushCycles = l1_dirty * params_.cache.blockSize
            / params_.cache.flushNetBytes;

        // Rebuild member contexts: survivors keep nothing in their
        // L1s (flushed); counters of surviving SliceIds persist.
        std::vector<std::unique_ptr<SliceCtx>> next;
        next.reserve(new_count);
        for (SliceId sid : new_slices) {
            std::unique_ptr<SliceCtx> ctx;
            for (auto &sc : slices_) {
                if (sc && sc->id == sid) {
                    ctx = std::move(sc);
                    break;
                }
            }
            if (!ctx) {
                ctx = std::make_unique<SliceCtx>(sid, params_);
            } else {
                // The LS-bank address partition is a function of
                // the Slice count, so survivor L1Ds flush; their
                // L1Is and the (fetch-synchronized) branch
                // predictor state survive the pipeline flush.
                ctx->l1d.invalidateAll();
                std::fill(ctx->sbBlocks.begin(), ctx->sbBlocks.end(),
                          invalidAddr);
            }
            next.push_back(std::move(ctx));
        }
        slices_ = std::move(next);
        rebuildDistances();
        steerCursor_ = 0;
    }

    // Re-anchor the energy meter's counter snapshot: dropped member
    // contexts took their counters with them, so the aggregate may
    // have moved backward (their energy is already folded in above).
    lastCtrs_ = aggregateCounters();

    // L2 membership change: hash-table remap + dirty flush.
    L2ReconfigCost l2cost = l2_.reconfigure(new_banks);
    cost.l2DirtyFlushed = l2cost.dirtyLinesFlushed;
    cost.l2FlushCycles = l2cost.flushCycles;

#if CASH_CHECK_INVARIANTS
    CASH_INVARIANT(rename_.numSlices() == slices_.size(),
                   "rename tracks %u members, core has %zu",
                   rename_.numSlices(), slices_.size());
    CASH_INVARIANT(l2_.numBanks() == new_banks.size(),
                   "L2 holds %u banks after a reconfigure to %zu",
                   l2_.numBanks(), new_banks.size());
    if (new_count < old_count) {
        // The paper's bound: at most all global registers move, at
        // regFlushPerCycle per cycle.
        std::uint32_t per_cycle = params_.net.regFlushPerCycle;
        CASH_INVARIANT(cost.regsFlushed <= params_.slice.physRegs,
                       "flushed %u registers from a %u-register "
                       "file", cost.regsFlushed,
                       params_.slice.physRegs);
        CASH_INVARIANT(cost.regFlushCycles
                           <= (params_.slice.physRegs + per_cycle
                               - 1) / per_cycle,
                       "register flush exceeded the paper bound");
    }
    const Cycle clock_pre = clock_;
#endif

    Cycle stall = cost.totalStall();
    reconfigStall_ += stall;
    advanceFloors(clock_ + stall);

    // A resize invalidates everything the sampler measured: the
    // IPC level is a property of the configuration.
    if (sampler_)
        sampler_->onReconfigure();

    CASH_INVARIANT(clock_ == clock_pre + stall,
                   "reconfiguration stall not charged to the clock");
    return cost;
}

} // namespace cash
