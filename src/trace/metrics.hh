/**
 * @file
 * Named counters and histograms with an end-of-run summary.
 *
 * MetricsRegistry is the aggregate side of the trace subsystem:
 * where TraceSession records *individual* events on a timeline, the
 * registry accumulates totals — how many reconfigurations, the
 * distribution of flush costs, how many requests the daemon
 * answered. It is the repo's one counter path, and it is always on:
 * no session is needed, and nothing compiles it out.
 *
 * Each CASH_METRIC_* site resolves its metric once, on first use,
 * into a function-local static reference; every later call is one
 * relaxed fetch_add (counters) or one per-histogram lock (histograms),
 * with no name lookup, string or registry mutex.
 *
 * Determinism: counter increments commute and histogram bins
 * commute, so metric values are identical at any thread count —
 * unlike the event timeline, which needs track ordering (see
 * TraceSession::drain).
 *
 * Storage is append-only: counter()/histogram() references stay
 * valid for the process lifetime; reset() zeroes values without
 * invalidating references (TraceSession::install resets, so each
 * recording reports exactly its own run).
 */

#ifndef CASH_TRACE_METRICS_HH
#define CASH_TRACE_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cash::trace
{

/** Monotone event tally (thread-safe, lock-free increment). */
class Counter
{
  public:
    void inc(std::uint64_t by = 1)
    {
        value_.fetch_add(by, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Value distribution: count/sum/min/max plus power-of-two magnitude
 * bins (two per octave) for approximate quantiles. Sampling takes a
 * per-histogram mutex — fine for control-path frequencies (per
 * quantum / per reconfiguration), never used per instruction.
 */
class Histogram
{
  public:
    void sample(double v);

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;
    double mean() const;
    /** Approximate quantile (q in [0,1]) from the magnitude bins:
     *  the upper edge of the bin holding the q-th sample. */
    double quantile(double q) const;

    void reset();

  private:
    /** Bin index for a value (0 for v <= 0). */
    static std::size_t binOf(double v);
    /** Upper edge of a bin. */
    static double binEdge(std::size_t bin);

    static constexpr std::size_t numBins = 128;

    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t bins_[numBins] = {};
};

/** One row of the end-of-run summary. */
struct MetricRow
{
    std::string name;
    bool isHistogram = false;
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
};

/**
 * The process-wide metric namespace. Lookup by name takes a mutex;
 * the returned references are lock-free (counters) or per-metric
 * locked (histograms) and remain valid forever.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    /** The named counter, created on first use. fatal() if the name
     *  is already a histogram. */
    Counter &counter(const std::string &name);

    /** The named histogram, created on first use. fatal() if the
     *  name is already a counter. */
    Histogram &histogram(const std::string &name);

    /** Zero every metric (references stay valid). */
    void reset();

    /** All metrics with a non-zero count, sorted by name
     *  (deterministic at any thread count). */
    std::vector<MetricRow> rows() const;

    /** Human-readable summary table (empty string if no metrics
     *  fired). */
    std::string summaryTable() const;

    /** Machine-readable summary via common/csv.hh: columns
     *  metric,kind,count,sum,mean,min,max,p50,p90. */
    void writeCsv(std::ostream &out) const;

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    /** deques: stable addresses under growth. */
    std::deque<Counter> counters_;
    std::deque<Histogram> histograms_;
    std::map<std::string, Counter *> counterByName_;
    std::map<std::string, Histogram *> histogramByName_;
};

} // namespace cash::trace

// The metric name must be a string literal ("" name "" fails to
// compile otherwise): each site resolves it once and keeps the handle.

/** Add `by` to a named counter. */
#define CASH_METRIC_ADD(name, by)                                     \
    do {                                                              \
        static ::cash::trace::Counter &cash_metric_ =                 \
            ::cash::trace::MetricsRegistry::global().counter(         \
                "" name "");                                          \
        cash_metric_.inc(by);                                         \
    } while (0)

/** Bump a named counter by 1. */
#define CASH_METRIC_INC(name) CASH_METRIC_ADD(name, 1)

/** Record one sample into a named histogram. */
#define CASH_METRIC_SAMPLE(name, value)                               \
    do {                                                              \
        static ::cash::trace::Histogram &cash_metric_ =               \
            ::cash::trace::MetricsRegistry::global().histogram(       \
                "" name "");                                          \
        cash_metric_.sample(value);                                   \
    } while (0)

#endif // CASH_TRACE_METRICS_HH
