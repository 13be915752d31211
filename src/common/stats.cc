#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace cash
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel combination of Welford accumulators.
    double delta = other.mean_ - mean_;
    std::uint64_t n = count_ + other.count_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    mean_ += delta * nb / static_cast<double>(n);
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::min() const
{
    return count_ ? min_ : 0.0;
}

double
RunningStat::max() const
{
    return count_ ? max_ : 0.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        fatal("geomean of an empty vector");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal("geomean requires positive values, got %f", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        fatal("mean of an empty vector");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace cash
