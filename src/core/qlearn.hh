/**
 * @file
 * Online speedup learning (paper Sec IV-C, Eqn 7).
 *
 * The two-configuration optimizer needs the speedup s_k of every
 * configuration, which varies by phase and is unknown a priori. The
 * runtime learns it with an exponentially weighted (Q-learning
 * style) update applied to whichever configurations actually ran:
 *
 *     qhat_k(t) = (1-alpha) * qhat_k(t-1) + alpha * q(t)
 *     shat_k(t) = qhat_k(t) / qhat_0(t)
 *
 * Unvisited configurations carry an analytic prior (monotone in
 * Slices and cache with diminishing returns) so the optimizer has a
 * full table from the first quantum; the prior is replaced by
 * measurements as configurations are exercised. A phase change
 * shows up inside update() itself: a measurement that contradicts
 * its own entry by more than 2x shifts the whole table by that
 * ratio (throughput QoS), preserving learned *shape* while tracking
 * the new phase's level; latency QoS instead re-levels only the
 * unvisited entries through the prior.
 */

#ifndef CASH_CORE_QLEARN_HH
#define CASH_CORE_QLEARN_HH

#include <cstdint>
#include <vector>

#include "core/config_space.hh"

namespace cash
{

/**
 * Learned per-configuration QoS (and thus speedup) table.
 */
class SpeedupLearner
{
  public:
    /**
     * @param space the configuration space
     * @param alpha learning rate in (0, 1]
     * @param base_q initial absolute QoS of the base configuration
     * @param propagate latency-style noisy measurements: propagate
     *        levels to unvisited entries through the prior instead
     *        of shock-rescaling the whole table
     */
    SpeedupLearner(const ConfigSpace &space, double alpha,
                   double base_q = 1.0, bool propagate = false);

    /** Fold a measured absolute QoS into configuration k. */
    void update(std::size_t k, double q);

    /** Current absolute QoS estimate for configuration k. */
    double qhat(std::size_t k) const;

    /** Learned speedup of k relative to the base configuration. */
    double speedup(std::size_t k) const;

    /** True if k has ever been measured (vs analytic prior). */
    bool visited(std::size_t k) const;

    std::size_t size() const { return qhat_.size(); }

    /**
     * The analytic prior shape: relative speedup of a configuration
     * under diminishing returns in both dimensions. Exposed for
     * tests and for the convex baseline's average-case model.
     */
    static double priorShape(const VCoreConfig &config);

  private:
    const ConfigSpace &space_;
    double alpha_;
    bool propagate_;
    std::vector<double> qhat_;
    std::vector<double> prior_;
    std::vector<bool> visited_;
};

} // namespace cash

#endif // CASH_CORE_QLEARN_HH
