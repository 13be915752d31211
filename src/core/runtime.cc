#include "core/runtime.hh"

#include <algorithm>
#include <cmath>

#include "check/invariant.hh"
#include "common/log.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash
{

namespace
{

/** Q-learning rate alpha (Eqn 7). */
constexpr double kAlpha = 0.3;
/** Kalman process variance. */
constexpr double kKalmanProcessVar = 1e-3;
/** Kalman measurement variance r (hardware property). */
constexpr double kKalmanMeasVar = 4e-3;
/** Fraction of the quantum an exploration slot may use. */
constexpr double kExploreFrac = 0.08;
/** Relative innovation that signals a phase change. */
constexpr double kPhaseThreshold = 0.25;
/** Slots shorter than this fraction of the quantum are merged into
 *  the other slot (a reconfiguration would cost more than the slot
 *  delivers). */
constexpr double kMinSlotFrac = 0.10;
/** Upper bound for the controller's demand (normalized QoS units;
 *  also bounds the reported speedup via b). */
constexpr double kMaxSpeedup = 8.0;

} // namespace

CashRuntime::CashRuntime(SSim &sim, VCoreId id, QosKind kind,
                         double target, const ConfigSpace &space,
                         const CostModel &cost,
                         const RuntimeParams &params,
                         std::uint64_t seed)
    : sim_(sim), id_(id), space_(space), cost_(cost),
      params_(params),
      monitor_(sim, id, kind, target),
      ctrl_(0.0, kMaxSpeedup, params.guardBand, params.deadband,
            params.controlGain),
      kalman_(1.0, kKalmanProcessVar, kKalmanMeasVar),
      learner_(space, kAlpha, 1.0,
               kind == QosKind::RequestLatency),
      optimizer_(space, cost),
      rng_(seed),
      target_(target)
{
    if (params.quantum == 0)
        fatal("runtime quantum must be non-zero");
    const VirtualCore &vc = sim.vcore(id);
    VCoreConfig current{vc.numSlices(), vc.numBanks()};
    if (!space.contains(current)) {
        fatal("virtual core %u starts outside the config space (%s)",
              id, current.str().c_str());
    }
    currentCfg_ = space.indexOf(current);
    currentPState_ = vc.pstate();
    if (params.dvfs) {
        // One speedup table per non-nominal P-state, seeded with
        // the frequency-scaled prior: a downclock to 1/d nominal
        // frequency nominally divides QoS by d. Measurements pull
        // each table toward the app's real IPC-per-Hz — memory-
        // bound code loses less than the prior claims, and that gap
        // is what makes downclocking win. Propagation is on for
        // every QoS kind here: each table sees at most one probe
        // quantum (below) before the economics consult it, and a
        // single measurement must level-calibrate the whole table
        // or the other entries stay pinned to the pessimistic
        // frequency prior forever.
        dvfsLearners_.reserve(kNumPStates - 1);
        for (std::uint32_t p = 1; p < kNumPStates; ++p) {
            dvfsLearners_.emplace_back(
                space, kAlpha, pstateTable()[p].freqScale(),
                true);
        }
    }
}

double
CashRuntime::dollarRate(std::uint32_t pstate,
                        const QuantumSchedule &sched) const
{
    const EnergyParams &ep = sim_.params().energy;
    const SpeedupLearner &lrn = pstate == 0
        ? learner_ : dvfsLearners_[pstate - 1];
    auto cell = [&](std::size_t k) {
        const VCoreConfig &c = space_.at(k);
        double tile_per_s = cost_.ratePerHour(c) / 3600.0;
        // Committed-instruction rate estimate: for throughput QoS
        // the table speaks in normalized IPC against an absolute
        // target; latency QoS has no IPC anchor, so a nominal
        // half-instruction per cycle stands in (the estimate only
        // ranks P-states, the meter bills real counters).
        double ipc = monitor_.kind() == QosKind::Throughput
            ? lrn.qhat(k) * target_ : 0.5;
        double watts =
            leakWatts(ep, c.slices, c.banks, pstate)
            + ipc * 1e9 * ep.approxPerInstPJ * 1e-12
                  * pstateTable()[pstate].dynScale();
        return tile_per_s + ep.dollars(watts);
    };
    Cycle t_over = sched.tOver;
    Cycle t_under = sched.tUnder + sched.tIdle;
    Cycle total = t_over + t_under;
    if (total == 0)
        return cell(sched.over);
    return (cell(sched.over) * static_cast<double>(t_over)
            + cell(sched.under) * static_cast<double>(t_under))
        / static_cast<double>(total);
}

void
CashRuntime::selectPState(double q_demand, QuantumStats &st)
{
    // Panic upclock: delivered QoS crossed the violation line while
    // downclocked. Do not wait for the $-comparison — return to
    // nominal this quantum and let the economics re-earn the
    // downclock once the tables have absorbed the miss.
    if (currentPState_ != 0
        && lastQ_ < 1.0 - kSlaTolerance) {
        switchPState(0, st);
        return;
    }

    // Solve the tile LP against every P-state's learned table and
    // price each candidate schedule in $/s (tiles + joules). The
    // cheapest feasible operating point wins; if none promises the
    // demand, the fastest one does. Every P-state must promise the
    // same demand: a higher bar for downclocks bought no QoS and
    // cost joules (EXPERIMENTS.md). The incumbent gets the same
    // stickiness margin as tile configurations — a PLL relock and
    // two cold tables are not worth a near-tie.
    std::uint32_t best_p = currentPState_;
    double best_rate = 0.0;
    bool have_feasible = false;
    std::uint32_t fastest_p = currentPState_;
    double fastest_speed = -1.0;
    for (std::uint32_t p = 0; p < kNumPStates; ++p) {
        const SpeedupLearner &lrn = p == 0
            ? learner_ : dvfsLearners_[p - 1];
        QuantumSchedule s = optimizer_.solve(
            q_demand, params_.quantum,
            [&lrn](std::size_t k) { return lrn.qhat(k); });
        double rate = dollarRate(p, s);
        if (p == currentPState_)
            rate *= 1.0 - params_.stickiness;
        if (s.expectedSpeedup > fastest_speed) {
            fastest_speed = s.expectedSpeedup;
            fastest_p = p;
        }
        if (s.expectedSpeedup + 1e-9 >= q_demand
            && (!have_feasible || rate < best_rate)) {
            have_feasible = true;
            best_rate = rate;
            best_p = p;
        }
    }
    switchPState(have_feasible ? best_p : fastest_p, st);
}

void
CashRuntime::switchPState(std::uint32_t want, QuantumStats &st)
{
    if (want == currentPState_)
        return;
    auto stall = sim_.setFreq(id_, want);
    if (!stall)
        return; // gate denied: stay at the current point
    currentPState_ = sim_.vcore(id_).pstate();
    ++st.freqChanges;
    st.dvfsStall += *stall;
    CASH_METRIC_INC("runtime.freq_changes");
    if (*stall > 0) {
        // The transition stall is held time at the current tiles:
        // bill it like a reconfiguration stall so the provider's
        // billing identity (revenue == integrated holdings) holds.
        double c = cost_.cost(space_.at(currentCfg_), *stall);
        st.cost += c;
        totalCost_ += c;
        st.cycles += *stall;
        CASH_METRIC_SAMPLE("runtime.dvfs_stall",
                           static_cast<double>(*stall));
    }
}

void
CashRuntime::runSlot(std::size_t cfg, Cycle duration,
                     QuantumStats &st)
{
    if (duration == 0 || finished_)
        return;

    Cycle slot_start = sim_.vcore(id_).now();
    Cycle stall = 0;
    if (cfg != currentCfg_) {
        const VCoreConfig &c = space_.at(cfg);
        auto rc = sim_.command(id_, c.slices, c.banks);
        if (rc) {
            ++st.reconfigs;
            stall = rc->totalStall();
            st.reconfigStall += stall;
            // Bill and learn at what the fabric actually granted: a
            // provider-side arbiter may clamp an EXPAND to a partial
            // grant, and charging the requested configuration would
            // overbill the customer for tiles never held.
            const VirtualCore &vc = sim_.vcore(id_);
            VCoreConfig actual{vc.numSlices(), vc.numBanks()};
            currentCfg_ = space_.contains(actual)
                ? space_.indexOf(actual) : cfg;
        } else {
            warn("fabric cannot supply %s; staying at %s",
                 c.str().c_str(),
                 space_.at(currentCfg_).str().c_str());
        }
    }

    // After a reconfiguration the caches are cold; burn off the
    // transient before the reading that teaches the table. The
    // warm-up still counts toward cost and quantum QoS (it is real
    // time at this configuration).
    Cycle warmup = 0;
    if (stall > 0 && duration > 64'000)
        warmup = std::min<Cycle>(duration / 3, 100'000);
    if (warmup > 0) {
        RunResult wr =
            sim_.vcore(id_).runUntil(slot_start + warmup);
        if (wr.finished)
            finished_ = true;
        QosReading wq = monitor_.sample();
        Cycle welapsed = sim_.vcore(id_).now() - slot_start;
        if (wq.valid) {
            st.qos += wq.normalized * static_cast<double>(welapsed);
            validCycles_ += welapsed;
        }
    }

    Cycle meas_start = sim_.vcore(id_).now();
    RunResult rr = sim_.vcore(id_).runUntil(slot_start + duration);
    if (rr.finished)
        finished_ = true;
    Cycle meas = sim_.vcore(id_).now() - meas_start;
    Cycle elapsed = sim_.vcore(id_).now() - slot_start;

    double slot_cost = cost_.cost(space_.at(currentCfg_), elapsed);
    st.cost += slot_cost;
    totalCost_ += slot_cost;
    st.cycles += elapsed;

    QosReading r = monitor_.sample();
    if (r.valid) {
        // Only teach the table steady-state behaviour: a slot
        // dominated by reconfiguration stall measures the
        // transient, not the configuration — and for latency QoS a
        // *draining* backlog measures the queue's history, not the
        // configuration. A growing backlog, however, is the
        // configuration's fault: learn that pessimistically.
        bool backlogged = monitor_.kind() == QosKind::RequestLatency
            && r.backlog > backlogFloor_;
        bool growing = r.backlog > lastBacklog_;
        lastBacklog_ = r.backlog;
        bool protect_drain = backlogged && !growing;
        if (stall * 4 <= elapsed && !protect_drain)
            activeLearner().update(currentCfg_, r.normalized);
        st.qos += r.normalized * static_cast<double>(meas);
        validCycles_ += meas;
        lastSlotQ_ = r.normalized;
        lastSlotValid_ = true;
    } else {
        lastSlotValid_ = false;
    }
}

QuantumStats
CashRuntime::step()
{
    QuantumStats st;
    if (finished_) {
        st.finished = true;
        return st;
    }

    const Cycle q_start = sim_.vcore(id_).now();

    // --- Estimator: track base speed; a large innovation is a
    // phase change (Sec IV-B). The estimate feeds phase detection
    // and the reported speedup command; the control integration
    // below runs in normalized-QoS space, where the plant gain is
    // exactly 1 whenever the learned table is faithful (dividing by
    // b and multiplying back cancels — see DESIGN.md).
    // A probe quantum's reading is a deliberate experiment at a
    // non-nominal P-state, not plant feedback: folding it into the
    // estimator or the deadbeat integrator would flag a phantom
    // phase change and inflate the demand for quanta after the
    // probes end. Freeze both in the quantum after each probe.
    const bool probe = probeQuantum();
    double b_pre = kalman_.estimate();
    double b_hat =
        lastWasProbe_ ? b_pre : kalman_.update(lastQ_, lastS_);
    if (!lastWasProbe_
        && kalman_.innovation() > kPhaseThreshold) {
        st.phaseDetected = true;
        CASH_TRACE_INSTANT(trace::Category::Runtime, "phase_change",
                           q_start,
                           {{"vcore", id_},
                            {"innovation", kalman_.innovation()},
                            {"b_pre", b_pre},
                            {"b_hat", b_hat}});
        CASH_METRIC_INC("runtime.phase_changes");
    }
    st.baseEstimate = b_hat;
    CASH_TRACE_COUNTER(trace::Category::Runtime, "b_hat", q_start,
                       "estimate", b_hat);

    // --- Controller: deadbeat integration of the QoS error
    // (Eqns 1-2). The demand is in normalized-QoS units and b_hat
    // is the estimated plant gain — delivered QoS per unit of
    // table-promised QoS — so one step cancels the error exactly
    // when the gain estimate is right, even under a miscalibrated
    // table. b_hat is clamped away from degeneracy.
    double b_eff = std::clamp(b_hat, 0.25, 4.0);
    double q_demand = ctrl_.step(lastWasProbe_ ? 1.0 : lastQ_, b_eff);
    // QoS error as the controller sees it: shortfall against the
    // normalized target of 1 (positive = under-delivering).
    CASH_TRACE_COUNTER(trace::Category::Runtime, "qos_error",
                       q_start, "error", 1.0 - lastQ_);
    CASH_TRACE_COUNTER(trace::Category::Runtime, "demand", q_start,
                       "q_demand", q_demand);
    // --- Joint action space (tiles x frequency): pick this
    // quantum's P-state before the tile schedule. The rest of the
    // loop then runs against the chosen operating point's table, so
    // the Kalman's plant gain, the LP, and the learning updates all
    // speak the same IPC-per-Hz.
    //
    // Probe schedule: the per-P-state tables start from the
    // frequency-scaled prior, under which a 2x downclock always
    // looks infeasible — the economic selection would never try it,
    // never measure it, and never learn that memory-bound code
    // keeps most of its IPC at low frequency. So the first quanta
    // after start-up run each non-nominal P-state once (quanta
    // 1..kNumPStates-1, inside the warm-up window the SLA
    // accounting already excludes); the probe measurement
    // level-calibrates that P-state's whole table through the
    // prior's shape, and from then on the selection runs on
    // evidence. Latency tenants never probe: queueing punishes an
    // under-clocked quantum superlinearly (the backlog outlives the
    // probe), so they keep the pessimistic prior and in practice
    // stay at nominal frequency.
    if (probe)
        switchPState(static_cast<std::uint32_t>(quantaRun_), st);
    else if (params_.dvfs)
        selectPState(q_demand, st);
    st.pstate = currentPState_;
    SpeedupLearner &lrn = activeLearner();

    double base_q = lrn.qhat(0);
    st.speedupCmd = base_q > 1e-12 ? q_demand / base_q : q_demand;

    // --- Optimizer: two-configuration schedule (Eqn 6) against
    // the learned per-configuration QoS table. A probe quantum
    // instead holds the incumbent tiles for the whole quantum: the
    // probed P-state's table is still the raw frequency prior, and
    // letting the LP expand against it would bill max-config tiles
    // for an experiment — and the measurement the probe is *for*
    // must land at the configuration the tenant actually runs.
    QuantumSchedule sched;
    if (probe) {
        sched.over = currentCfg_;
        sched.under = currentCfg_;
        sched.tOver = params_.quantum;
        sched.expectedSpeedup = lrn.qhat(currentCfg_);
    } else {
        sched = optimizer_.solve(
            q_demand, params_.quantum,
            [&lrn](std::size_t k) { return lrn.qhat(k); });
    }

    // Stickiness: a near-tie does not justify the cold caches of a
    // reconfiguration, so keep the incumbent slot configurations
    // when the newly chosen ones are within tolerance.
    auto sticky = [this, q_demand, &lrn](std::size_t chosen,
                                         std::size_t incumbent,
                                         bool is_over) {
        if (chosen == incumbent)
            return chosen;
        double q_new = lrn.qhat(chosen);
        double q_old = lrn.qhat(incumbent);
        bool feasible = is_over ? q_old >= q_demand
                                : q_old <= q_demand;
        if (!feasible)
            return chosen;
        double c_new = cost_.ratePerHour(space_.at(chosen));
        double c_old = cost_.ratePerHour(space_.at(incumbent));
        if (c_old <= c_new * (1.0 + params_.stickiness)
            && std::fabs(q_old - q_new)
                   <= params_.stickiness * std::max(q_new, 1e-9)) {
            return incumbent;
        }
        return chosen;
    };
    if (haveLastSched_) {
        sched.over = sticky(sched.over, lastOver_, true);
        sched.under = sticky(sched.under, lastUnder_, false);
    }
    lastOver_ = sched.over;
    lastUnder_ = sched.under;
    haveLastSched_ = true;

    // Latency QoS: queueing punishes any under-provisioned interval
    // superlinearly (the backlog outlives the slot), so instead of
    // the throughput-optimal two-config mix the whole quantum runs
    // the 'over' configuration.
    if (monitor_.kind() == QosKind::RequestLatency
        && sched.under != sched.over) {
        sched.tOver += sched.tUnder;
        sched.tUnder = 0;
        sched.under = sched.over;
        sched.expectedSpeedup = lrn.qhat(sched.over);
    }

    // Merge slots too short to amortize a reconfiguration.
    auto min_slot = static_cast<Cycle>(
        kMinSlotFrac * static_cast<double>(params_.quantum));
    if (sched.tOver > 0 && sched.tOver < min_slot
        && sched.tUnder > 0) {
        sched.tUnder += sched.tOver;
        sched.tOver = 0;
    } else if (sched.tUnder > 0 && sched.tUnder < min_slot) {
        sched.tOver += sched.tUnder;
        sched.tUnder = 0;
    }
    st.schedule = sched;

    // --- Occasional exploration slot keeps estimates of configs
    // the schedule would never visit from going stale.
    Cycle t_explore = 0;
    std::size_t cfg_explore = 0;
    bool may_explore = !probe
        && (monitor_.kind() != QosKind::RequestLatency
            || lastQ_ > 1.2); // latency apps: explore when safe
    if (may_explore && params_.epsilon > 0.0
        && rng_.nextBool(params_.epsilon)) {
        cfg_explore = static_cast<std::size_t>(
            rng_.nextBounded(space_.size()));
        t_explore = static_cast<Cycle>(
            kExploreFrac * static_cast<double>(params_.quantum));
        Cycle &donor = sched.tUnder >= t_explore ? sched.tUnder
                                                 : sched.tOver;
        donor = donor >= t_explore ? donor - t_explore : 0;
    }

    // After slot merging and exploration carving the plan must
    // still fit the quantum (the carve may briefly overshoot by at
    // most the exploration slot when both donors run dry), and the
    // learned table feeding it must have stayed numeric.
    CASH_INVARIANT(sched.tOver + sched.tUnder + sched.tIdle
                           + t_explore
                       <= params_.quantum + t_explore,
                   "quantum plan exceeds tau by more than the "
                   "exploration slot");
    CASH_INVARIANT(std::isfinite(lrn.qhat(sched.over))
                       && lrn.qhat(sched.over) >= 0.0
                       && std::isfinite(lrn.qhat(sched.under))
                       && lrn.qhat(sched.under) >= 0.0,
                   "learned QoS table left the non-negative reals");
    CASH_INVARIANT(std::isfinite(q_demand) && q_demand >= 0.0,
                   "controller demand diverged (%g)", q_demand);

    // --- Execute Algorithm 1's schedule. QoS is assessed at
    // quantum granularity: the schedule's *average* must meet the
    // target (the 'under' slot is intentionally slow).
    validCycles_ = 0;
    // Fixed slot order: alternating order would slosh the paced
    // backlog across quantum boundaries and alias the QoS
    // measurement into a limit cycle.
    std::size_t first = sched.over;
    std::size_t second = sched.under;
    Cycle t_first = sched.tOver;
    Cycle t_second = sched.tUnder + sched.tIdle;
    runSlot(first, t_first, st);
    // A collapsed slot (delivering far below its promise) means the
    // phase changed under us: abort the quantum so the controller
    // reacts sooner.
    bool collapsed = lastSlotValid_ && t_first > 0
        && lastSlotQ_ < 0.5 * lrn.qhat(first);
    if (!collapsed) {
        runSlot(second, t_second, st);
        if (t_explore != 0)
            runSlot(cfg_explore, t_explore, st);
    }

    ++quantaRun_;
    // One span per control period: the executed schedule and the
    // learned speedups that justified it (Algorithm 1's output).
    CASH_TRACE_SPAN(trace::Category::Runtime, "quantum", q_start,
                    sim_.vcore(id_).now() - q_start,
                    {{"vcore", id_},
                     {"over", sched.over},
                     {"under", sched.under},
                     {"t_over", sched.tOver},
                     {"t_under", sched.tUnder},
                     {"qhat_over", lrn.qhat(sched.over)},
                     {"qhat_under", lrn.qhat(sched.under)},
                     {"pstate", currentPState_},
                     {"s_cmd", st.speedupCmd},
                     {"cost", st.cost},
                     {"reconfigs", st.reconfigs}});
    CASH_METRIC_INC("runtime.quanta");
    CASH_METRIC_ADD("runtime.reconfigs", st.reconfigs);
    CASH_METRIC_ADD("runtime.reconfig_stall_cycles",
                    st.reconfigStall);
    if (validCycles_ > 0) {
        st.qos /= static_cast<double>(validCycles_);
        // A probe quantum's reading already went where it belongs —
        // the probed P-state's table. Folding it into the control
        // history too would drag the violation EWMA down during
        // warm-up and charge phantom violations to the first
        // counted quanta.
        // Latency readings are steep and noisy (queueing): smooth
        // the controller's input; throughput readings are already
        // near-deterministic per quantum.
        if (!probe) {
            lastQ_ = monitor_.kind() == QosKind::RequestLatency
                ? 0.5 * lastQ_ + 0.5 * st.qos
                : st.qos;
            ewmaQ_ = 0.5 * ewmaQ_ + 0.5 * st.qos;
        }
        // The first few quanta are the controller's cold start and
        // are excluded from the violation accounting (all policies
        // are treated identically).
        if (quantaRun_ > params_.warmupQuanta) {
            st.samples = 1;
            ++totalSamples_;
            if (ewmaQ_ < 1.0 - kSlaTolerance) {
                st.violations = 1;
                ++totalViolations_;
                CASH_METRIC_INC("runtime.violations");
            }
        }
        CASH_TRACE_COUNTER(trace::Category::Runtime, "qos", q_start,
                           "normalized", st.qos);
        CASH_METRIC_SAMPLE("runtime.quantum_qos", st.qos);
        CASH_METRIC_SAMPLE("runtime.quantum_cost", st.cost);
    }
    // The Kalman pairs the next measurement with the QoS this
    // schedule *promised* (per the learned table): the filtered
    // ratio of delivered to promised QoS is the plant gain the
    // controller divides by.
    lastS_ = sched.expectedSpeedup > 1e-12 ? sched.expectedSpeedup
                                           : q_demand;
    lastWasProbe_ = probe;
    st.finished = finished_;
    return st;
}

QuantumStats
CashRuntime::runUntil(Cycle target_cycle)
{
    QuantumStats agg;
    while (!finished_ && sim_.vcore(id_).now() < target_cycle) {
        QuantumStats st = step();
        agg.cost += st.cost;
        agg.cycles += st.cycles;
        agg.qos += st.qos * st.samples;
        agg.samples += st.samples;
        agg.violations += st.violations;
        agg.reconfigs += st.reconfigs;
        agg.reconfigStall += st.reconfigStall;
        agg.freqChanges += st.freqChanges;
        agg.dvfsStall += st.dvfsStall;
        agg.pstate = st.pstate;
        agg.speedupCmd = st.speedupCmd;
        agg.baseEstimate = st.baseEstimate;
        agg.phaseDetected = agg.phaseDetected || st.phaseDetected;
        agg.schedule = st.schedule;
        if (st.cycles == 0 && !st.finished)
            break; // defensive: no forward progress
    }
    if (agg.samples > 0)
        agg.qos /= static_cast<double>(agg.samples);
    agg.finished = finished_;
    return agg;
}

} // namespace cash
