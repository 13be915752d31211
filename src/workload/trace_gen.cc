#include "workload/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace cash
{

PhasedTraceSource::PhasedTraceSource(std::vector<PhaseParams> phases,
                                     std::uint64_t seed, bool loop,
                                     InstCount total_insts)
    : phases_(std::move(phases)), rng_(seed), loop_(loop),
      totalInsts_(total_insts)
{
    if (phases_.empty())
        fatal("PhasedTraceSource needs at least one phase");
    for (const PhaseParams &p : phases_) {
        if (p.lengthInsts == 0)
            fatal("phase '%s' has zero length", p.name.c_str());
        if (p.ilpMeanDist < 1.0)
            fatal("phase '%s' has ilpMeanDist < 1", p.name.c_str());
        if (p.workingSet < 64)
            fatal("phase '%s' working set too small", p.name.c_str());
    }
    enterPhase(0);
}

void
PhasedTraceSource::enterPhase(std::uint32_t idx)
{
    phaseIdx_ = idx;
    phaseEmitted_ = 0;
    const PhaseParams &p = phases_[idx];

    // Phase-deterministic branch sites: the same phase re-entered
    // on a later lap presents the same static branches. A fraction
    // of sites are loop-style (deterministic taken/not-taken period,
    // learnable by history-based prediction); the rest are
    // data-dependent (i.i.d. with a per-site bias, where prediction
    // accuracy is capped by the bias itself). Higher phase
    // branchBias means more loop sites and stronger biases.
    Rng bias_rng(0x5eedu + 0x9e37u * idx);
    double loop_frac = std::clamp((p.branchBias - 0.65) / 0.35,
                                  0.0, 0.95);
    branchBias_.assign(p.staticBranches, 0.0);
    loopPeriod_.assign(p.staticBranches, 0);
    loopCount_.assign(p.staticBranches, 0);
    for (std::size_t s = 0; s < branchBias_.size(); ++s) {
        if (bias_rng.nextBool(loop_frac)) {
            loopPeriod_[s] = 4 + static_cast<std::uint32_t>(
                bias_rng.nextBounded(28));
        } else {
            double jitter = (bias_rng.nextDouble() - 0.5) * 0.16;
            branchBias_[s] =
                std::clamp(p.branchBias + jitter, 0.5, 0.995);
        }
    }

    codeBase_ = 0x1000;
    pc_ = codeBase_;
    streamAddr_ = p.dataBase;
}

MicroOp
PhasedTraceSource::genInst()
{
    const PhaseParams &p = phases_[phaseIdx_];
    MicroOp op;

    double u = rng_.nextDouble();
    if (u < p.branchFrac) {
        op.op = OpClass::Branch;
    } else if (u < p.branchFrac + p.memFrac) {
        op.op = rng_.nextBool(p.storeFrac) ? OpClass::Store
                                           : OpClass::Load;
    } else {
        op.op = rng_.nextBool(p.fpFrac) ? OpClass::FpAlu
                                        : OpClass::IntAlu;
    }

    // Dataflow: dependence distances with the phase's ILP profile.
    auto sample_dist = [&]() -> std::uint16_t {
        double d = 1.0 + rng_.nextExponential(
            1.0 / std::max(0.25, p.ilpMeanDist - 1.0));
        return static_cast<std::uint16_t>(
            std::clamp(d, 1.0, 900.0));
    };
    op.srcDist1 = sample_dist();
    if (rng_.nextBool(p.twoSrcFrac))
        op.srcDist2 = sample_dist();

    // Destination register for value-producing ops.
    if (op.op == OpClass::IntAlu || op.op == OpClass::FpAlu
        || op.op == OpClass::Load) {
        op.destReg = static_cast<std::uint8_t>(rng_.nextBounded(32));
    }

    // Memory address: streaming or random within the working set.
    if (op.op == OpClass::Load || op.op == OpClass::Store) {
        if (rng_.nextBool(p.seqFrac)) {
            streamAddr_ += 8;
            if (streamAddr_ >= p.dataBase + p.workingSet)
                streamAddr_ = p.dataBase;
            op.addr = streamAddr_;
        } else {
            op.addr = p.dataBase
                + (rng_.nextBounded(p.workingSet / 8) * 8);
        }
    }

    // Control flow: static branch sites with per-site bias; taken
    // branches jump within the code footprint.
    if (op.op == OpClass::Branch) {
        std::uint32_t site = static_cast<std::uint32_t>(
            rng_.nextBounded(p.staticBranches));
        op.pc = codeBase_ + static_cast<Addr>(site) * 16;
        if (loopPeriod_[site] != 0) {
            // Loop-style: taken (period-1) times, then fall through.
            op.taken = ++loopCount_[site] % loopPeriod_[site] != 0;
        } else {
            // Data-dependent: i.i.d. around the site's bias. A site
            // is either mostly-taken or mostly-not-taken; the bias
            // is the probability of its majority direction.
            double bias = branchBias_[site];
            bool majority_taken = (site & 1) == 0;
            bool follow = rng_.nextBool(bias);
            op.taken = majority_taken ? follow : !follow;
        }
        if (op.taken) {
            pc_ = codeBase_
                + rng_.nextBounded(
                      std::max<std::uint64_t>(p.codeFootprint, 64) / 4)
                * 4;
        }
    } else {
        op.pc = pc_;
        pc_ += 4;
        if (pc_ >= codeBase_ + p.codeFootprint)
            pc_ = codeBase_;
    }

    return op;
}

FetchResult
PhasedTraceSource::next(Cycle now)
{
    (void)now;
    FetchResult fr;
    if (totalInsts_ != 0 && emitted_ >= totalInsts_) {
        fr.kind = FetchResult::Kind::Finished;
        return fr;
    }
    if (phaseEmitted_ >= phases_[phaseIdx_].lengthInsts) {
        std::uint32_t nxt = phaseIdx_ + 1;
        if (nxt >= phases_.size()) {
            ++laps_;
            if (!loop_) {
                fr.kind = FetchResult::Kind::Finished;
                return fr;
            }
            nxt = 0;
        }
        enterPhase(nxt);
    }

    fr.kind = FetchResult::Kind::Inst;
    fr.op = genInst();
    ++phaseEmitted_;
    ++emitted_;
    return fr;
}

void
PhasedTraceSource::onCommit(const MicroOp &op, Cycle commit_cycle)
{
    (void)op;
    (void)commit_cycle;
}

SkipResult
PhasedTraceSource::skip(InstCount n, Cycle from, Cycle to)
{
    (void)from;
    (void)to;
    SkipResult r;
    while (r.skipped < n) {
        if (totalInsts_ != 0 && emitted_ >= totalInsts_) {
            r.finished = true;
            break;
        }
        const InstCount len = phases_[phaseIdx_].lengthInsts;
        if (phaseEmitted_ >= len) {
            // Same lazy transition next() performs — but stop (and
            // let the detailed path re-measure) whenever the phase
            // INDEX changes. A single-phase loop wraps in place:
            // same phase, same statistics.
            std::uint32_t nxt = phaseIdx_ + 1;
            if (nxt >= phases_.size()) {
                if (!loop_) {
                    r.finished = true;
                    break;
                }
                nxt = 0;
            }
            if (nxt != phaseIdx_) {
                r.phaseBoundary = true;
                break;
            }
            ++laps_;
            enterPhase(nxt);
            continue;
        }
        InstCount room = len - phaseEmitted_;
        if (totalInsts_ != 0)
            room = std::min(room, totalInsts_ - emitted_);
        InstCount take = std::min(n - r.skipped, room);
        phaseEmitted_ += take;
        emitted_ += take;
        r.skipped += take;
    }
    return r;
}

PacedSource::PacedSource(InstSource &inner, double pace,
                         InstCount chunk)
    : inner_(inner), pace_(pace), chunk_(chunk)
{
    if (pace <= 0.0)
        fatal("PacedSource pace must be positive, got %f", pace);
    if (chunk == 0)
        fatal("PacedSource chunk must be >= 1");
}

FetchResult
PacedSource::next(Cycle now)
{
    // The chunk containing instruction N arrives when its first
    // instruction is due at the pace.
    if (handedOut_ >= chunkEnd_) {
        InstCount chunk_start = (handedOut_ / chunk_) * chunk_;
        chunkEnd_ = chunk_start + chunk_;
        chunkArrival_ = static_cast<Cycle>(
            static_cast<double>(chunk_start) / pace_);
    }
    if (chunkArrival_ > now) {
        FetchResult fr;
        fr.kind = FetchResult::Kind::IdleUntil;
        fr.idleUntil = chunkArrival_;
        return fr;
    }
    FetchResult fr = inner_.next(now);
    if (fr.kind == FetchResult::Kind::Inst)
        ++handedOut_;
    return fr;
}

void
PacedSource::onCommit(const MicroOp &op, Cycle commit_cycle)
{
    inner_.onCommit(op, commit_cycle);
}

SkipResult
PacedSource::skip(InstCount n, Cycle from, Cycle to)
{
    // Instruction N is available once its chunk has arrived, i.e.
    // at cycle (N/chunk)*chunk/pace. Work available inside the
    // window: every chunk due by `to`.
    auto due_chunks = static_cast<InstCount>(
        static_cast<double>(to) * pace_
        / static_cast<double>(chunk_));
    InstCount avail = (due_chunks + 1) * chunk_;
    InstCount take = avail > handedOut_
        ? std::min(n, avail - handedOut_) : 0;
    SkipResult r;
    if (take > 0) {
        r = inner_.skip(take, from, to);
        handedOut_ += r.skipped;
    }
    // Coming up short of n here is pacing, never a phase boundary:
    // the inner skip's flags pass through untouched.
    return r;
}

CappedSource::CappedSource(InstSource &inner, InstCount cap)
    : inner_(inner), cap_(cap)
{
}

FetchResult
CappedSource::next(Cycle now)
{
    if (used_ >= cap_) {
        FetchResult fr;
        fr.kind = FetchResult::Kind::Finished;
        return fr;
    }
    FetchResult fr = inner_.next(now);
    if (fr.kind == FetchResult::Kind::Inst)
        ++used_;
    return fr;
}

void
CappedSource::onCommit(const MicroOp &op, Cycle commit_cycle)
{
    inner_.onCommit(op, commit_cycle);
}

SkipResult
CappedSource::skip(InstCount n, Cycle from, Cycle to)
{
    SkipResult r;
    if (used_ >= cap_) {
        r.finished = true;
        return r;
    }
    InstCount take = std::min(n, cap_ - used_);
    r = inner_.skip(take, from, to);
    used_ += r.skipped;
    if (used_ >= cap_)
        r.finished = true;
    return r;
}

} // namespace cash
