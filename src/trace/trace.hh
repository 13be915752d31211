/**
 * @file
 * Low-overhead tracing for the whole CASH stack.
 *
 * The runtime's value is a closed control loop (deadbeat controller
 * → Kalman filter → LearningOptimizer, Algorithm 1), and debugging a
 * misbehaving reconfiguration or a consolidation anomaly needs
 * per-decision telemetry across src/core, src/sim, src/fabric and
 * src/cloud. This header provides the hooks the hot layers emit
 * into:
 *
 *  - CASH_TRACE_* macros — each expands to one relaxed atomic load
 *    and a branch when no TraceSession is installed; the event's
 *    arguments are evaluated only while one is. The sites are all
 *    on control paths — per quantum, per reconfiguration, per
 *    tenant event — never in SSim's per-instruction loop. (The
 *    always-on counters beside them live in trace/metrics.hh.)
 *  - TraceSession — per-thread, lock-free ring buffers the emit
 *    path writes into. Threads register their buffer once (mutex),
 *    then every emit is a single-producer ring push. One session is
 *    installed globally at a time.
 *  - Tracks — every event belongs to a track (an experiment cell, a
 *    standalone run). ExperimentEngine assigns each cell its
 *    declaration-order track, so drained traces are canonically
 *    ordered and byte-identical at any thread count (minus host
 *    timestamps; see drain()).
 *
 * Timestamps are *simulated* cycles (1 cycle = 1 ns) for runtime /
 * fabric / cloud events — fully deterministic — and host
 * microseconds since session install for engine-cell timing.
 * Exporters (trace/export.hh) turn a drained session into Chrome
 * trace_event JSON (chrome://tracing, Perfetto) or CSV.
 */

#ifndef CASH_TRACE_TRACE_HH
#define CASH_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cash::trace
{

/** Event category: which layer emitted the event. */
enum class Category : std::uint8_t
{
    Runtime, ///< control-loop decisions (src/core)
    Fabric,  ///< EXPAND/SHRINK/compact and allocation (src/sim+fabric)
    Cloud,   ///< tenant lifecycle and arbitration (src/cloud)
    Engine,  ///< ExperimentEngine cell timing (src/harness)
    Service, ///< request front-end: accept/decode/apply/reply
             ///< (src/service; host-time spans like Engine)
};

/** Printable category name ("runtime", "fabric", ...). */
const char *categoryName(Category c);

/** Chrome trace_event phase of an event. */
enum class EventKind : std::uint8_t
{
    Instant,  ///< ph "I": a point in time
    Complete, ///< ph "X": a span with a duration
    Counter,  ///< ph "C": a sampled value (renders as a line track)
};

/** One named numeric event argument. The constructor accepts any
 *  arithmetic type so call sites can pass Cycle / uint32 / bool
 *  without explicit casts (values are stored as double; counts
 *  above 2^53 would lose precision, far beyond any horizon here). */
struct Arg
{
    template <typename T>
    Arg(const char *k, T v)
        : key(k), value(static_cast<double>(v))
    {}

    const char *key; ///< static string literal
    double value;
};

/** Maximum args per event (excess args are dropped). */
constexpr std::size_t maxArgs = 10;

/**
 * One fixed-size trace record. `name` and arg keys must be string
 * literals (or otherwise outlive the session): the ring buffer
 * stores the pointers, never copies.
 */
struct TraceEvent
{
    const char *name = nullptr;
    Category cat = Category::Runtime;
    EventKind kind = EventKind::Instant;
    std::uint8_t numArgs = 0;
    /** Canonical-order grouping key (see TrackScope). */
    std::uint64_t track = 0;
    /** Buffer-local emission sequence (filled by the buffer). */
    std::uint64_t seq = 0;
    /** Microseconds: simulated for Runtime/Fabric/Cloud, host for
     *  Engine. */
    double ts = 0.0;
    /** Span length in microseconds (Complete events only). */
    double dur = 0.0;
    const char *argKey[maxArgs] = {};
    double argVal[maxArgs] = {};
};

/** Simulated cycles (1 GHz ⇒ 1 cycle = 1 ns) to trace microseconds. */
inline double
usFromCycles(Cycle c)
{
    return static_cast<double>(c) * 1e-3;
}

/**
 * Single-producer ring buffer of TraceEvents. Only the owning
 * thread pushes; when full, the oldest events are overwritten
 * (flight-recorder semantics) and overwritten() counts them.
 * snapshot() requires the producer to have quiesced (the head index
 * is released on push and acquired on read, so a happens-before
 * edge — e.g. ExperimentEngine::run() returning, or a thread
 * join — suffices).
 */
class ThreadBuffer
{
  public:
    explicit ThreadBuffer(std::size_t capacity);

    /** Push one event (owning thread only). */
    void push(TraceEvent ev);

    /** Events still held, oldest first (post-quiescence). */
    std::vector<TraceEvent> snapshot() const;

    /** Events overwritten by ring wrap-around. */
    std::uint64_t overwritten() const;

    std::size_t capacity() const { return slots_.size(); }

  private:
    std::vector<TraceEvent> slots_;
    std::atomic<std::uint64_t> head_{0}; ///< total pushes
};

/** Session tunables. */
struct TraceConfig
{
    /** Ring capacity per emitting thread, in events. */
    std::size_t bufferCapacity = 1 << 16;
};

/**
 * One recording. Construct, install() to start capturing,
 * uninstall() to stop, then drain() and export. At most one session
 * is installed process-wide; emits while none is installed cost one
 * relaxed atomic load. install() also resets the global
 * MetricsRegistry so every recording starts from zeroed counters.
 *
 * Lifetime: uninstall() (and destruction, which uninstalls) must
 * not race with in-flight emits — stop your workers first. All
 * bench/tool integrations install before spawning work and
 * uninstall after the pool drains.
 */
class TraceSession
{
  public:
    explicit TraceSession(const TraceConfig &config = TraceConfig());
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** The installed session, or nullptr (the macros' gate). */
    static TraceSession *active();

    /** Make this session the process-wide recorder; fatal() if
     *  another session is already installed. */
    void install();

    /** Stop recording (no-op if not installed). */
    void uninstall();

    /**
     * All recorded events in canonical order: ascending track, and
     * within a track, emission order. The order (and everything but
     * the host-clock ts/dur of Engine events) is deterministic at
     * any thread count provided each track was emitted from one
     * thread at a time — which TrackScope + ExperimentEngine
     * guarantee. Requires emit quiescence.
     */
    std::vector<TraceEvent> drain() const;

    /** Name a track (shown as the process name in Perfetto). */
    void setTrackName(std::uint64_t track, const std::string &name);

    /** Registered track names (copy; callable during recording). */
    std::map<std::uint64_t, std::string> trackNames() const;

    /** Total events lost to ring wrap-around across all threads.
     *  Non-zero means drain() output (and the determinism
     *  contract) is truncated; raise TraceConfig::bufferCapacity. */
    std::uint64_t overwritten() const;

    /** Host microseconds elapsed since install() (0 before). */
    double hostNowUs() const;

    const TraceConfig &config() const { return config_; }

    // --- emit path internals (used by the free emit functions) ---

    /** The calling thread's buffer, registering it on first use. */
    ThreadBuffer &threadBuffer();

    /** Identity of this install() (thread-local cache key). */
    std::uint64_t generation() const { return generation_; }

  private:
    TraceConfig config_;
    std::uint64_t generation_ = 0;
    double installEpochUs_ = 0.0; ///< steady_clock at install
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::map<std::uint64_t, std::string> trackNames_;
};

namespace detail
{
/** The installed session; read relaxed on the hot path. */
extern std::atomic<TraceSession *> g_active;
} // namespace detail

/** True when a session is installed (the macros' runtime gate). */
inline bool
tracingActive()
{
    return detail::g_active.load(std::memory_order_relaxed)
        != nullptr;
}

/** The calling thread's current track (0 outside any TrackScope). */
std::uint64_t currentTrack();

/**
 * RAII: route this thread's events to `track` for the scope's
 * lifetime. Cheap enough to use unconditionally (two thread-local
 * writes); pass a name to label the track in exports.
 */
class TrackScope
{
  public:
    explicit TrackScope(std::uint64_t track);
    TrackScope(std::uint64_t track, const std::string &name);
    ~TrackScope();

    TrackScope(const TrackScope &) = delete;
    TrackScope &operator=(const TrackScope &) = delete;

  private:
    std::uint64_t prev_;
};

/** Register a name for the calling thread's current track. */
void nameCurrentTrack(const std::string &name);

// --- emit functions (call through the CASH_TRACE_* macros, which
// skip the call and its arguments while no session is installed) ---

/** Point event at simulated time `ts` (cycles). */
void emitInstant(Category cat, const char *name, Cycle ts,
                 std::initializer_list<Arg> args = {});

/** Span event: starts at `ts`, lasts `dur` (simulated cycles). */
void emitSpan(Category cat, const char *name, Cycle ts, Cycle dur,
              std::initializer_list<Arg> args = {});

/** Sampled value at simulated time `ts`; renders as a line track. */
void emitCounter(Category cat, const char *name, Cycle ts,
                 const char *key, double value);

/** Span event in host microseconds (ExperimentEngine cell timing;
 *  the only non-deterministic timestamps in a trace). */
void emitHostSpan(Category cat, const char *name, double ts_us,
                  double dur_us,
                  std::initializer_list<Arg> args = {});

} // namespace cash::trace

/** True when a session is installed. */
#define CASH_TRACE_ON() (::cash::trace::tracingActive())

/** Emit hooks: arguments are not evaluated unless a session is
 *  installed, so argument construction is off the disabled path. */
#define CASH_TRACE_INSTANT(...)                                       \
    do {                                                              \
        if (CASH_TRACE_ON())                                          \
            ::cash::trace::emitInstant(__VA_ARGS__);                  \
    } while (0)

#define CASH_TRACE_SPAN(...)                                          \
    do {                                                              \
        if (CASH_TRACE_ON())                                          \
            ::cash::trace::emitSpan(__VA_ARGS__);                     \
    } while (0)

#define CASH_TRACE_COUNTER(...)                                       \
    do {                                                              \
        if (CASH_TRACE_ON())                                          \
            ::cash::trace::emitCounter(__VA_ARGS__);                  \
    } while (0)

#define CASH_TRACE_HOST_SPAN(...)                                     \
    do {                                                              \
        if (CASH_TRACE_ON())                                          \
            ::cash::trace::emitHostSpan(__VA_ARGS__);                 \
    } while (0)

#endif // CASH_TRACE_TRACE_HH
