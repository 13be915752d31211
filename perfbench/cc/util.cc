#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace pb
{

double
nowUs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - epoch)
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

double
tailMean(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto from = static_cast<std::size_t>(
        std::floor(p / 100.0 * static_cast<double>(v.size() - 1)));
    double sum = 0.0;
    for (std::size_t i = from; i < v.size(); ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - from);
}

double
peakRssMb(int pid)
{
    std::string path = pid ? "/proc/" + std::to_string(pid) + "/status"
                           : "/proc/self/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Item &it : items) {
        if (it.name == name) {
            it.value = value;
            it.unit = unit;
            return;
        }
    }
    items.push_back({name, value, unit});
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok) {
        errors.push_back(what);
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     what.c_str());
    }
}

} // namespace pb
