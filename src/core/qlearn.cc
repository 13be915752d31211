#include "core/qlearn.hh"

#include <cmath>

#include "common/log.hh"

namespace cash
{

SpeedupLearner::SpeedupLearner(const ConfigSpace &space, double alpha,
                               double base_q, bool propagate)
    : space_(space), alpha_(alpha), propagate_(propagate),
      qhat_(space.size()), visited_(space.size(), false)
{
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("learning rate %f outside (0, 1]", alpha);
    if (base_q <= 0.0)
        fatal("base QoS seed must be positive");
    prior_.resize(space_.size());
    for (std::size_t k = 0; k < space_.size(); ++k) {
        prior_[k] = priorShape(space_.at(k));
        qhat_[k] = base_q * prior_[k];
    }
}

double
SpeedupLearner::priorShape(const VCoreConfig &config)
{
    // Diminishing returns in both dimensions: sqrt in Slices, log2
    // in cache. Deliberately smooth and convex-ish — the *learning*
    // is what discovers the true non-convex shape.
    double slice_gain = std::sqrt(static_cast<double>(config.slices));
    double cache_gain = 1.0
        + 0.15 * std::log2(static_cast<double>(config.banks));
    return slice_gain * cache_gain;
}

void
SpeedupLearner::update(std::size_t k, double q)
{
    if (k >= qhat_.size())
        panic("SpeedupLearner update for config %zu of %zu",
              k, qhat_.size());
    if (q < 0.0)
        panic("negative QoS measurement %f", q);
    bool first = !visited_[k];
    double ratio = qhat_[k] > 1e-12 ? q / qhat_[k] : 2.0;
    // A >2x contradiction with the entry's own promise signals a
    // phase change rather than noise.
    bool contradiction = !first && (ratio < 0.5 || ratio > 2.0);
    // Full-table rescale only for throughput QoS, whose
    // measurements are steady; latency readings spike on near-empty
    // windows and must not whipsaw the table (those instead use the
    // unvisited-entry propagation below).
    bool shock = contradiction && !propagate_;

    if (first) {
        // First real observation replaces the prior outright.
        qhat_[k] = q;
        visited_[k] = true;
    } else if (shock) {
        // A measurement that contradicts its own entry by more
        // than 2x is a phase change, not noise: the whole table's
        // level shifted (Sec IV-B). Rescale every entry by the
        // observed ratio — shape survives, level tracks — and pin
        // the measured entry to the evidence. Without this the
        // optimizer walks the stale entries one quantum at a time.
        for (double &v : qhat_)
            v *= ratio;
        qhat_[k] = q;
    } else {
        qhat_[k] = (1.0 - alpha_) * qhat_[k] + alpha_ * q;
    }

    // Level-calibrate the *unvisited* entries against reality
    // through the prior's shape.
    if (propagate_ && (first || contradiction)
        && prior_[k] > 1e-12) {
        double level = qhat_[k] / prior_[k];
        for (std::size_t j = 0; j < qhat_.size(); ++j) {
            if (!visited_[j])
                qhat_[j] = level * prior_[j];
        }
    }
}

double
SpeedupLearner::qhat(std::size_t k) const
{
    if (k >= qhat_.size())
        panic("SpeedupLearner qhat for config %zu of %zu",
              k, qhat_.size());
    return qhat_[k];
}

double
SpeedupLearner::speedup(std::size_t k) const
{
    double base = qhat_[0];
    if (base <= 1e-12)
        return 1.0;
    return qhat(k) / base;
}

bool
SpeedupLearner::visited(std::size_t k) const
{
    if (k >= visited_.size())
        panic("SpeedupLearner visited for config %zu of %zu",
              k, visited_.size());
    return visited_[k];
}

} // namespace cash
