/**
 * @file
 * Lightweight statistics primitives used across the simulator, the
 * runtime, and the bench harnesses: running mean/variance, min/max,
 * and geometric means (the paper reports most cross-application
 * aggregates as geomeans). Latency histograms live in the metrics
 * registry (trace::Histogram).
 */

#ifndef CASH_COMMON_STATS_HH
#define CASH_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cash
{

/**
 * Running scalar statistic: count, mean, variance (Welford), min, max.
 */
class RunningStat
{
  public:
    /** Fold one sample into the statistic. */
    void add(double x);

    /** Merge another statistic into this one. */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population variance; 0 with fewer than two samples. */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Geometric mean of positive values; fatal() on empty/non-positive. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; fatal() on empty input. */
double mean(const std::vector<double> &values);

} // namespace cash

#endif // CASH_COMMON_STATS_HH
