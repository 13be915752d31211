#include "probe.hh"

#include <sched.h>
#include <unistd.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "util.hh"

namespace pb
{

namespace
{

/** 64k entries of 4 bytes: 256 KB. */
constexpr std::size_t kRingEntries = 64 * 1024;
constexpr int kLoads = 200'000;

} // namespace

CpuTicks
cpuTicks(int lo, int hi)
{
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
        // "cpuN user nice system idle iowait irq softirq steal ..."
        if (line.compare(0, 3, "cpu") != 0 || line.size() < 4
            || !std::isdigit(static_cast<unsigned char>(line[3])))
            continue;
        std::istringstream fields(line.substr(3));
        int cpu = -1;
        double v[8] = {};
        fields >> cpu;
        for (double &x : v)
            fields >> x;
        if (cpu < lo || cpu >= hi)
            continue;
        t.busy += v[0] + v[1] + v[2] + v[5] + v[6];
        t.steal += v[7];
    }
    return t;
}

double
stealScale(const CpuTicks &a, const CpuTicks &b)
{
    double busy = b.busy - a.busy;
    double steal = b.steal - a.steal;
    return busy + steal > 0.0 ? 1.0 - steal / (busy + steal) : 1.0;
}

void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

int
onlineCpus()
{
    return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

HostProbe::HostProbe() : ring_(kRingEntries)
{
    // One cycle through every entry in a fixed random order.
    std::vector<std::uint32_t> order(kRingEntries);
    for (std::size_t i = 0; i < kRingEntries; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 1;
    for (std::size_t i = kRingEntries - 1; i > 0; --i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(order[i], order[(x >> 33) % (i + 1)]);
    }
    for (std::size_t i = 0; i < kRingEntries; ++i)
        ring_[order[i]] = order[(i + 1) % kRingEntries];
}

double
HostProbe::loadNs()
{
    double t0 = nowUs();
    std::uint32_t p = 0;
    for (int i = 0; i < kLoads; ++i)
        p = ring_[p];
    double us = nowUs() - t0;
    // Keep the chase: its result feeds a store the compiler must do.
    static volatile std::uint32_t sink;
    sink = p;
    (void)sink;
    return us * 1e3 / kLoads;
}

PinnedProbe::PinnedProbe(int cpu) : thread_([this, cpu] { loop(cpu); }) {}

PinnedProbe::~PinnedProbe()
{
    finish();
}

void
PinnedProbe::trigger()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        if (pending_ || busy_)
            return;
        pending_ = true;
    }
    cv_.notify_all();
}

double
PinnedProbe::measure()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !pending_ && !busy_; });
    std::size_t n = readings_.size();
    pending_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return readings_.size() > n; });
    return readings_.back().ns;
}

std::vector<ProbeReading>
PinnedProbe::finish()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    return readings_;
}

void
PinnedProbe::loop(int cpu)
{
    pinToCpu(cpu);
    HostProbe probe;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return pending_ || stop_; });
        if (stop_)
            return;
        pending_ = false;
        busy_ = true;
        lk.unlock();
        double ns = probe.loadNs();
        double us = nowUs();
        lk.lock();
        busy_ = false;
        readings_.push_back({us, ns});
        cv_.notify_all();
    }
}

} // namespace pb
