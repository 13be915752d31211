#include "trace/metrics.hh"

#include <algorithm>
#include <cmath>

#include "common/csv.hh"
#include "common/log.hh"

namespace cash::trace
{

void
Histogram::sample(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    ++bins_[binOf(v)];
}

std::size_t
Histogram::binOf(double v)
{
    if (!(v > 0.0) || !std::isfinite(v))
        return 0;
    // Two bins per octave over 2^-16 .. 2^47: bin = 2*(log2(v)+16),
    // clamped. Fine enough for order-of-magnitude quantiles of
    // cycle costs, dollar rates, and QoS ratios alike.
    double l = std::log2(v);
    double idx = 2.0 * (l + 16.0) + 1.0;
    if (idx < 1.0)
        return 1;
    if (idx >= static_cast<double>(numBins - 1))
        return numBins - 1;
    return static_cast<std::size_t>(idx);
}

double
Histogram::binEdge(std::size_t bin)
{
    if (bin == 0)
        return 0.0;
    return std::exp2(static_cast<double>(bin) / 2.0 - 16.0);
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return min_;
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_;
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::quantile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < numBins; ++b) {
        seen += bins_[b];
        if (seen > target)
            return std::min(binEdge(b), max_);
    }
    return max_;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
    std::fill(std::begin(bins_), std::end(bins_), 0);
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Never destroyed: the always-on metric sites hold references
    // into it and may still run during static destruction.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counterByName_.find(name);
    if (it != counterByName_.end())
        return *it->second;
    if (histogramByName_.count(name))
        fatal("metric '%s' is already a histogram", name.c_str());
    counters_.emplace_back();
    counterByName_[name] = &counters_.back();
    return counters_.back();
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histogramByName_.find(name);
    if (it != histogramByName_.end())
        return *it->second;
    if (counterByName_.count(name))
        fatal("metric '%s' is already a counter", name.c_str());
    histograms_.emplace_back();
    histogramByName_[name] = &histograms_.back();
    return histograms_.back();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Counter &c : counters_)
        c.reset();
    for (Histogram &h : histograms_)
        h.reset();
}

std::vector<MetricRow>
MetricsRegistry::rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricRow> out;
    for (const auto &[name, c] : counterByName_) {
        if (c->value() == 0)
            continue;
        MetricRow r;
        r.name = name;
        r.count = c->value();
        r.sum = static_cast<double>(c->value());
        out.push_back(r);
    }
    for (const auto &[name, h] : histogramByName_) {
        if (h->count() == 0)
            continue;
        MetricRow r;
        r.name = name;
        r.isHistogram = true;
        r.count = h->count();
        r.sum = h->sum();
        r.mean = h->mean();
        r.min = h->min();
        r.max = h->max();
        r.p50 = h->quantile(0.5);
        r.p90 = h->quantile(0.9);
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const MetricRow &a, const MetricRow &b) {
                  return a.name < b.name;
              });
    return out;
}

std::string
MetricsRegistry::summaryTable() const
{
    std::vector<MetricRow> all = rows();
    if (all.empty())
        return "";
    std::string out = strfmt("%-34s %12s %14s %12s %12s\n",
                             "metric", "count", "mean", "p50",
                             "max");
    for (const MetricRow &r : all) {
        if (r.isHistogram) {
            out += strfmt("%-34s %12llu %14.4g %12.4g %12.4g\n",
                          r.name.c_str(),
                          static_cast<unsigned long long>(r.count),
                          r.mean, r.p50, r.max);
        } else {
            out += strfmt("%-34s %12llu %14s %12s %12s\n",
                          r.name.c_str(),
                          static_cast<unsigned long long>(r.count),
                          "-", "-", "-");
        }
    }
    return out;
}

void
MetricsRegistry::writeCsv(std::ostream &out) const
{
    CsvWriter csv(out, {"metric", "kind", "count", "sum", "mean",
                        "min", "max", "p50", "p90"});
    for (const MetricRow &r : rows()) {
        csv.row({r.name, r.isHistogram ? "histogram" : "counter",
                 strfmt("%llu",
                        static_cast<unsigned long long>(r.count)),
                 CsvWriter::num(r.sum), CsvWriter::num(r.mean),
                 CsvWriter::num(r.min), CsvWriter::num(r.max),
                 CsvWriter::num(r.p50), CsvWriter::num(r.p90)});
    }
}

} // namespace cash::trace
