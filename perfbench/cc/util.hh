/**
 * @file
 * Shared pieces of the benchmark: clock, percentiles, the metric
 * sink every workload fills, and the correctness ledger.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb
{

using Clock = std::chrono::steady_clock;

/** Steady-clock microseconds since an arbitrary process epoch. */
double nowUs();

/** Linear-interpolated percentile (p in [0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double p);

double median(const std::vector<double> &v);

/** Mean of the values at or above the p-th percentile; 0 when empty. */
double tailMean(std::vector<double> v, double p);

/** Peak resident set of a process (VmHWM), MB; 0 if unreadable.
 *  pid 0 reads this process. */
double peakRssMb(int pid = 0);

/** Named metrics with units, in insertion order. */
struct Metrics
{
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;

    void set(const std::string &name, double value,
             const std::string &unit);
};

/** What a run attempted, what failed, and every failed check. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Record a correctness check; a false `ok` fails the run. */
    void check(bool ok, const std::string &what);
    bool correct() const { return errors.empty(); }
};

/** The run's options, as parsed from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where traces, tables and daemon logs go. */
    std::string outDir = ".bench_build/out";
    std::string daemon;
    std::string golden;
};

} // namespace pb

#endif // PERFBENCH_UTIL_HH
