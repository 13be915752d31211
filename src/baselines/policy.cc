#include "baselines/policy.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace cash
{

Policy::Policy(std::string name, Cycle quantum)
    : name_(std::move(name)), quantum_(quantum)
{
    if (quantum == 0)
        fatal("policy quantum must be non-zero");
}

void
Policy::run(Cycle horizon)
{
    while (!finished() && now() < horizon) {
        Cycle before = now();
        runQuantum();
        if (now() == before && !finished())
            break; // defensive: no forward progress
    }
}

BaselinePolicy::BaselinePolicy(std::string name, SSim &sim,
                               VCoreId id, QosKind kind,
                               double target,
                               const ConfigSpace &space,
                               const CostModel &cost, Cycle quantum,
                               bool free_idle)
    : Policy(std::move(name), quantum), sim_(sim), id_(id),
      space_(space), cost_(cost),
      monitor_(sim, id, kind, target), freeIdle_(free_idle)
{
    const VirtualCore &vc = sim.vcore(id);
    VCoreConfig current{vc.numSlices(), vc.numBanks()};
    if (!space.contains(current)) {
        fatal("vcore %u starts outside the policy's config space",
              id);
    }
    currentCfg_ = space.indexOf(current);
    lastIdle_ = vc.meta().idleCycles;
}

Cycle
BaselinePolicy::now() const
{
    return sim_.vcore(id_).now();
}

void
BaselinePolicy::runSlot(std::size_t cfg, Cycle duration)
{
    if (duration == 0 || finished_)
        return;

    Cycle slot_start = sim_.vcore(id_).now();
    if (cfg != currentCfg_) {
        const VCoreConfig &c = space_.at(cfg);
        auto rc = sim_.command(id_, c.slices, c.banks);
        if (rc) {
            ++stats_.reconfigs;
            currentCfg_ = cfg;
        } else {
            warn("fabric cannot supply %s", c.str().c_str());
        }
    }

    RunResult rr = sim_.vcore(id_).runUntil(slot_start + duration);
    if (rr.finished)
        finished_ = true;

    Cycle end = sim_.vcore(id_).now();
    Cycle elapsed = end - slot_start;
    Cycle idle_now = sim_.vcore(id_).meta().idleCycles;
    Cycle idle_delta = idle_now - lastIdle_;
    lastIdle_ = idle_now;

    Cycle charged = freeIdle_ && idle_delta < elapsed
        ? elapsed - idle_delta
        : elapsed;
    if (freeIdle_ && idle_delta >= elapsed)
        charged = 0;

    double slot_cost = cost_.cost(space_.at(currentCfg_), charged);
    stats_.cost += slot_cost;
    stats_.cycles += elapsed;
    stats_.busyCycles += elapsed - std::min(idle_delta, elapsed);

    QosReading r = monitor_.sample();
    if (r.valid) {
        quantumQ_ += r.normalized * static_cast<double>(elapsed);
        quantumValid_ += elapsed;
    }
    quantumCostRate_ += cost_.ratePerHour(space_.at(currentCfg_))
        * static_cast<double>(charged);
    quantumCycles_ += elapsed;
}

void
BaselinePolicy::runQuantum()
{
    if (finished_)
        return;
    QuantumSchedule sched = decide(lastReading_);

    // QoS is assessed at quantum granularity: a two-slot schedule's
    // *average* is what must meet the target.
    quantumQ_ = 0.0;
    quantumValid_ = 0;
    quantumCostRate_ = 0.0;
    quantumCycles_ = 0;
    // Alternate slot order each quantum so a repeating schedule
    // only reconfigures at the over/under boundary, not also at
    // the quantum boundary.
    flipOrder_ = !flipOrder_;
    if (flipOrder_) {
        runSlot(sched.under, sched.tUnder + sched.tIdle);
        runSlot(sched.over, sched.tOver);
    } else {
        runSlot(sched.over, sched.tOver);
        runSlot(sched.under, sched.tUnder + sched.tIdle);
    }

    ++quantaRun_;
    if (quantumValid_ > 0) {
        double q = quantumQ_ / static_cast<double>(quantumValid_);
        lastReading_.valid = true;
        lastReading_.normalized = q;
        ewmaQ_ = 0.5 * ewmaQ_ + 0.5 * q;
        if (quantaRun_ > warmupQuanta_) {
            stats_.qosSum += q;
            ++stats_.samples;
            if (ewmaQ_ < 1.0 - kSlaTolerance)
                ++stats_.violations;
        }
    }
    if (quantumCycles_ > 0) {
        series_.push_back(SeriesPoint{
            now(),
            quantumCostRate_ / static_cast<double>(quantumCycles_),
            quantumValid_ ? quantumQ_
                    / static_cast<double>(quantumValid_)
                          : lastReading_.normalized,
            currentCfg_});
    }
}

// --------------------------------------------------------- Oracle

OraclePolicy::OraclePolicy(SSim &sim, VCoreId id, QosKind kind,
                           double target, const ConfigSpace &space,
                           const CostModel &cost, Cycle quantum,
                           const AppProfile &profile,
                           const PhasedTraceSource *phase_source,
                           const RequestStreamParams *request_params)
    : BaselinePolicy("Optimal", sim, id, kind, target, space, cost,
                     quantum, /*free_idle=*/false),
      profile_(profile), phaseSource_(phase_source),
      requestParams_(request_params)
{
    if (kind == QosKind::Throughput && !phase_source)
        fatal("throughput oracle needs the phase source");
    if (kind == QosKind::RequestLatency && !request_params)
        fatal("latency oracle needs the request parameters");
}

std::size_t
OraclePolicy::currentBin() const
{
    double phase = 2.0 * M_PI
        * static_cast<double>(now() % requestParams_->period)
        / static_cast<double>(requestParams_->period);
    double rate = requestParams_->baseRatePerMcycle
        * (1.0 + requestParams_->amplitude * std::sin(phase));
    std::size_t best = 0;
    double best_diff = std::abs(profile_.binRates[0] - rate);
    for (std::size_t b = 1; b < profile_.binRates.size(); ++b) {
        double diff = std::abs(profile_.binRates[b] - rate);
        if (diff < best_diff) {
            best = b;
            best_diff = diff;
        }
    }
    return best;
}

QuantumSchedule
OraclePolicy::decide(const QosReading &)
{
    std::size_t region = phaseSource_ ? phaseSource_->currentPhase()
                                      : currentBin();
    std::size_t cfg =
        profile_.cheapestMeeting(region, space_, cost_);
    QuantumSchedule sched;
    sched.over = sched.under = cfg;
    sched.tOver = quantum_;
    return sched;
}

// --------------------------------------------------- Race to idle

RaceToIdlePolicy::RaceToIdlePolicy(SSim &sim, VCoreId id,
                                   QosKind kind, double target,
                                   const ConfigSpace &space,
                                   const CostModel &cost,
                                   Cycle quantum,
                                   const AppProfile &profile)
    : BaselinePolicy("RaceToIdle", sim, id, kind, target, space,
                     cost, quantum,
                     /*free_idle=*/kind == QosKind::Throughput),
      worstCaseCfg_(profile.cheapestMeetingAll(space, cost))
{
}

QuantumSchedule
RaceToIdlePolicy::decide(const QosReading &)
{
    QuantumSchedule sched;
    sched.over = sched.under = worstCaseCfg_;
    sched.tOver = quantum_;
    return sched;
}

// ---------------------------------------------- Convex optimizer

ConvexOptPolicy::ConvexOptPolicy(SSim &sim, VCoreId id, QosKind kind,
                                 double target,
                                 const ConfigSpace &space,
                                 const CostModel &cost,
                                 Cycle quantum,
                                 const AppProfile &profile)
    : BaselinePolicy("ConvexOpt", sim, id, kind, target, space,
                     cost, quantum, /*free_idle=*/false),
      profile_(profile)
{
    // Upper convex hull of (cost rate, normalized average perf):
    // the only points a convex model can select. Andrew's monotone
    // chain over configs sorted by cost.
    std::vector<std::size_t> order(space.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        order[k] = k;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  double ca = cost.ratePerHour(space.at(a));
                  double cb = cost.ratePerHour(space.at(b));
                  if (ca != cb)
                      return ca < cb;
                  return normAvg(a) > normAvg(b);
              });

    auto cross_ok = [&](std::size_t a, std::size_t b,
                        std::size_t c) {
        // True if b is above segment a-c (keeps the hull concave).
        double xa = cost.ratePerHour(space.at(a));
        double xb = cost.ratePerHour(space.at(b));
        double xc = cost.ratePerHour(space.at(c));
        double ya = normAvg(a), yb = normAvg(b), yc = normAvg(c);
        return (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa) < 0.0;
    };

    for (std::size_t k : order) {
        // Skip dominated points (costlier but not faster).
        if (!hull_.empty() && normAvg(hull_.back()) >= normAvg(k))
            continue;
        while (hull_.size() >= 2
               && !cross_ok(hull_[hull_.size() - 2], hull_.back(),
                            k)) {
            hull_.pop_back();
        }
        hull_.push_back(k);
    }
    if (hull_.empty())
        hull_.push_back(order.front());

    fixedBase_ = normAvg(0);
    if (fixedBase_ <= 0.0)
        fixedBase_ = 1e-3;
}

double
ConvexOptPolicy::normAvg(std::size_t k) const
{
    double avg = profile_.averagePerf(k);
    if (profile_.kind == QosKind::Throughput)
        return avg / monitor_.target();
    // averagePerf is 1/latency for request apps.
    return monitor_.target() * avg;
}

QuantumSchedule
ConvexOptPolicy::decide(const QosReading &last)
{
    // Deadbeat step against the *fixed* average-case base speed,
    // with the same noise deadband the CASH runtime uses.
    double q = last.valid ? last.normalized : 1.0;
    if (std::fabs(1.0 - q) > 0.04)
        speedup_ += (1.0 - q) / fixedBase_;
    speedup_ = std::clamp(speedup_, 0.0, 64.0);

    // Two-configuration mix restricted to the convex hull.
    double s_base = normAvg(0);
    double want = speedup_ * s_base; // back to normalized perf
    std::size_t lo = hull_.front();
    std::size_t hi = hull_.back();
    for (std::size_t i = 0; i + 1 < hull_.size(); ++i) {
        if (normAvg(hull_[i]) <= want
            && want <= normAvg(hull_[i + 1])) {
            lo = hull_[i];
            hi = hull_[i + 1];
            break;
        }
    }
    QuantumSchedule sched;
    if (want <= normAvg(hull_.front())) {
        sched.over = sched.under = hull_.front();
        sched.tOver = quantum_;
        return sched;
    }
    if (want >= normAvg(hull_.back())) {
        sched.over = sched.under = hull_.back();
        sched.tOver = quantum_;
        return sched;
    }
    double span = normAvg(hi) - normAvg(lo);
    double frac = span > 1e-12 ? (want - normAvg(lo)) / span : 1.0;
    frac = std::clamp(frac, 0.0, 1.0);
    sched.over = hi;
    sched.under = lo;
    sched.tOver = static_cast<Cycle>(
        frac * static_cast<double>(quantum_));
    sched.tUnder = quantum_ - sched.tOver;
    return sched;
}

// ------------------------------------------------------- CASH

CashPolicy::CashPolicy(SSim &sim, VCoreId id, QosKind kind,
                       double target, const ConfigSpace &space,
                       const CostModel &cost,
                       const RuntimeParams &params,
                       std::uint64_t seed)
    : Policy("CASH", params.quantum), sim_(sim), id_(id),
      space_(space), cost_(cost),
      runtime_(sim, id, kind, target, space, cost, params, seed)
{
}

Cycle
CashPolicy::now() const
{
    return sim_.vcore(id_).now();
}

bool
CashPolicy::finished() const
{
    return finishedFlag_;
}

void
CashPolicy::runQuantum()
{
    QuantumStats st = runtime_.step();
    stats_.cost += st.cost;
    stats_.cycles += st.cycles;
    stats_.qosSum += st.qos * st.samples;
    stats_.samples += st.samples;
    stats_.violations += st.violations;
    stats_.reconfigs += st.reconfigs;
    if (st.cycles > 0) {
        series_.push_back(SeriesPoint{
            now(),
            st.cost / cost_.hours(st.cycles),
            st.qos,
            runtime_.currentConfig()});
    }
    finishedFlag_ = st.finished;
}

} // namespace cash
