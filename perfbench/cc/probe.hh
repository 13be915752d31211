/**
 * @file
 * Host-speed probe, so that timed work is reported at a reference
 * host speed rather than at whatever speed a shared host gives it.
 *
 * On a shared 4-vCPU VM the cores slow down by 20-50% for seconds at a
 * time while neighbours load the caches they share with us. Thread
 * CPU time moves with wall time, so this is not descheduling, and it
 * differs between CPUs. A fixed pointer chase over 256 KB, run on the
 * same CPU between pieces of the timed work, slows down with it: over
 * 5 s windows its time and the simulator's time per instruction
 * correlate at 0.9, and scaling by it cut the spread of the windows'
 * simulator speed from 22% to 9% (IQR/median).
 *
 * A time t measured while the probe read `load_ns` is reported as
 * t * kRefLoadNs / load_ns: the time on a host where the probe reads
 * kRefLoadNs. The probe is part of the benchmark, not of the program,
 * so no change to the program moves it.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace pb
{

/** The probe's nanoseconds per load on the reference host: its median
 *  on a 4-vCPU 2 GHz Xeon VM. */
constexpr double kRefLoadNs = 9.5;

/** Multiply a host time measured at probe reading `load_ns` by this
 *  to get the time at the reference host speed. */
inline double
refScale(double load_ns)
{
    return kRefLoadNs / load_ns;
}

/**
 * Busy and stolen time of some CPUs, from /proc/stat, in clock ticks.
 * The probe does not see the host take a CPU from us (steal time): at
 * busy times it took 5-12% of the time our busy CPUs wanted, in bursts,
 * and a step or quantum that loses its CPU takes that much longer.
 */
struct CpuTicks
{
    double busy = 0.0;
    double steal = 0.0;
};

/** Ticks so far of CPUs [lo, hi), summed; zero where unreadable. */
CpuTicks cpuTicks(int lo, int hi);

/** Multiply a host time measured between readings `a` and `b` by this
 *  to take out the host's share: 1 - steal / (busy + steal). */
double stealScale(const CpuTicks &a, const CpuTicks &b);

/** Pin the calling thread to one CPU. */
void pinToCpu(int cpu);

/** Online CPUs. */
int onlineCpus();

/** One probe reading: when it ended (nowUs()) and ns per load. */
struct ProbeReading
{
    double us = 0.0;
    double ns = 0.0;
};

/** A dependent-load chase around a fixed random ring of 256 KB. */
class HostProbe
{
  public:
    HostProbe();

    /** One chase on the calling CPU; nanoseconds per load. */
    double loadNs();

  private:
    std::vector<std::uint32_t> ring_;
};

/**
 * A probe on a thread of its own, pinned to one CPU, that chases once
 * each time it is triggered. It probes the CPUs another process runs
 * on, at moments the caller knows them to be idle.
 */
class PinnedProbe
{
  public:
    explicit PinnedProbe(int cpu);
    ~PinnedProbe();
    PinnedProbe(const PinnedProbe &) = delete;
    PinnedProbe &operator=(const PinnedProbe &) = delete;

    /** Ask for one chase; returns at once. A trigger while a chase is
     *  pending or running is dropped. */
    void trigger();

    /** One chase, waited for; its reading, ns per load. */
    double measure();

    /** Stop the thread and return every reading, in order. */
    std::vector<ProbeReading> finish();

  private:
    void loop(int cpu);

    std::mutex mu_;
    std::condition_variable cv_;
    bool pending_ = false;
    bool busy_ = false;
    bool stop_ = false;
    std::vector<ProbeReading> readings_;
    std::thread thread_;
};

} // namespace pb

#endif // PERFBENCH_PROBE_HH
