/**
 * @file
 * In-memory spans recorded from the benchmark's own files, around
 * its calls into each layer of the program.
 *
 * A span has a name ("<layer>.<what>"), start, end, parent and an
 * id; the spans of one request share the id. Synchronous spans nest
 * on the benchmark thread (Scope); open-loop request spans overlap
 * and are recorded whole (addAsync). Nothing is recorded unless the
 * tracer is on, so untraced runs pay one branch per Scope. At exit
 * the spans are written as Chrome trace_event JSON, and a per-layer
 * table gives each layer's self time: span duration minus the part
 * its children cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb
{

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double t0;
        double t1;
        int parent;       ///< index of the enclosing span, -1 = none
        std::uint64_t id; ///< request id (0 = none)
        bool async;
    };

    static Tracer &get();

    bool on() const { return on_; }
    void enable() { on_ = true; }

    /** Open a nested span on the benchmark thread; returns its
     *  index. */
    int open(const char *name, std::uint64_t id);
    void close(int idx);

    /** Record a finished span under the open one (work another
     *  thread did on the benchmark's behalf). */
    void addChild(const char *name, double t0, double t1,
                  std::uint64_t id);

    /** Record one finished, possibly overlapping request span. */
    void addAsync(const char *name, double t0, double t1,
                  std::uint64_t id);

    /** Self time per layer ("sim", "service", ...) of every span
     *  below `root` (root's own self time is under its own layer). */
    std::map<std::string, double> selfByLayer(int root) const;

    /** Duration of span `idx`, µs. */
    double duration(int idx) const
    {
        return spans_[idx].t1 - spans_[idx].t0;
    }

    /** Write the spans as Chrome trace_event JSON: the first
     *  kMaxWrittenPerName of each name, so a run of ~100k requests
     *  gives a file of a few MB. Self times use every span. */
    bool writeChrome(const std::string &path) const;

    static constexpr std::size_t kMaxWrittenPerName = 5000;

    std::size_t size() const { return spans_.size(); }

  private:
    bool on_ = false;
    int current_ = -1;
    std::vector<Span> spans_;
};

/** RAII span on the benchmark thread (no-op while tracing is off). */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t id = 0)
        : idx_(Tracer::get().on() ? Tracer::get().open(name, id) : -1)
    {}
    ~Scope()
    {
        if (idx_ >= 0)
            Tracer::get().close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return idx_; }

  private:
    int idx_;
};

/** Layer of a span name: the part before the first '.'. */
std::string layerOf(const char *name);

} // namespace pb

#endif // PERFBENCH_SPANS_HH
