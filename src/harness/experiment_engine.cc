#include "harness/experiment_engine.hh"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "common/log.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash::harness
{

namespace
{

/** FNV-1a over a string, with a field terminator so that adjacent
 *  fields cannot alias ({"ab","c"} vs {"a","bc"}). */
void
mixField(std::uint64_t &h, const std::string &s)
{
    constexpr std::uint64_t prime = 0x100000001b3ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= prime;
    }
    h ^= 0xffu; // terminator outside the byte alphabet's common use
    h *= prime;
}

void
mixField(std::uint64_t &h, std::uint64_t v)
{
    constexpr std::uint64_t prime = 0x100000001b3ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= prime;
    }
    h ^= 0xffu;
    h *= prime;
}

} // namespace

std::string
CellKey::str() const
{
    std::string s = subject;
    if (!variant.empty())
        s += "/" + variant;
    s += strfmt("[%llu]@%llu",
                static_cast<unsigned long long>(config),
                static_cast<unsigned long long>(seed));
    return s;
}

std::uint64_t
cellStream(const CellKey &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    mixField(h, key.subject);
    mixField(h, key.variant);
    mixField(h, key.config);
    mixField(h, key.seed);
    // Decorrelate nearby keys through the xoshiro256** split: seed
    // a generator with the hash and fork off the cell's stream.
    return Rng(h).fork().next();
}

Rng
cellRng(const CellKey &key)
{
    return Rng(cellStream(key));
}

std::size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("CASH_BENCH_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < 1) {
            warn("CASH_BENCH_THREADS='%s' is not a positive "
                 "integer; using 1 thread", env);
            return 1;
        }
        return static_cast<std::size_t>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ExperimentEngine::ExperimentEngine(std::size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    report_.threads = threads;
    workers_.reserve(threads);
    try {
        for (std::size_t i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        joinWorkers(); // a thread failed to start: stop the others
        throw;
    }
}

ExperimentEngine::~ExperimentEngine()
{
    joinWorkers();
}

void
ExperimentEngine::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    posted_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ExperimentEngine::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        posted_.wait(lock, [this] {
            return stopping_ || next_ < batch_.size();
        });
        if (stopping_)
            return;
        // run() keeps batch_ in place until every wrapper returned.
        std::function<void()> &wrapper = batch_[next_++];
        lock.unlock();
        wrapper();
        lock.lock();
        if (++done_ == batch_.size())
            finished_.notify_one();
    }
}

void
ExperimentEngine::run(std::vector<Cell> cells)
{
    using clock = std::chrono::steady_clock;
    const std::size_t base = report_.cells.size();
    report_.cells.resize(base + cells.size());
    std::vector<std::exception_ptr> errors(cells.size());

    auto t0 = clock::now();
    std::vector<std::function<void()>> batch;
    batch.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &cell = cells[i];
        CellTiming &timing = report_.cells[base + i];
        timing.key = cell.key;
        std::exception_ptr &error = errors[i];
        // Track 0 is ambient (standalone emits); cells own tracks
        // 1..N in declaration order, so a drained trace has one
        // single-producer track per cell and canonical order holds
        // at any thread count (see TraceSession::drain).
        const std::uint64_t track = base + i + 1;
        batch.push_back([&cell, &timing, &error, track] {
            trace::TrackScope scope(track);
            [[maybe_unused]] double start_us = 0.0;
            if (CASH_TRACE_ON()) {
                trace::nameCurrentTrack(cell.key.str());
                start_us = trace::TraceSession::active()->hostNowUs();
            }
            auto c0 = clock::now();
            try {
                cell.fn();
            } catch (...) {
                error = std::current_exception();
            }
            timing.millis =
                std::chrono::duration<double, std::milli>(
                    clock::now() - c0)
                    .count();
            CASH_TRACE_HOST_SPAN(trace::Category::Engine, "cell",
                                 start_us, timing.millis * 1e3,
                                 {{"cell", track - 1}});
            CASH_METRIC_INC("engine.cells");
        });
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        batch_ = std::move(batch);
        next_ = 0;
        done_ = 0;
        posted_.notify_all();
        finished_.wait(lock, [this] { return done_ == batch_.size(); });
        batch_.clear();
    }
    report_.wallMillis +=
        std::chrono::duration<double, std::milli>(clock::now() - t0)
            .count();

    // Deterministic propagation: first failure in declaration
    // order, regardless of which cell happened to fail first.
    for (std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::string
ExperimentEngine::jsonSummary(const std::string &bench_name) const
{
    std::string out = strfmt(
        "{\"bench\":\"%s\",\"threads\":%zu,\"wall_ms\":%.3f,"
        "\"cells\":[",
        jsonEscape(bench_name).c_str(), report_.threads,
        report_.wallMillis);
    for (std::size_t i = 0; i < report_.cells.size(); ++i) {
        const CellTiming &t = report_.cells[i];
        if (i)
            out += ",";
        out += strfmt("{\"subject\":\"%s\",\"variant\":\"%s\","
                      "\"config\":%llu,\"seed\":%llu,"
                      "\"ms\":%.3f}",
                      jsonEscape(t.key.subject).c_str(),
                      jsonEscape(t.key.variant).c_str(),
                      static_cast<unsigned long long>(t.key.config),
                      static_cast<unsigned long long>(t.key.seed),
                      t.millis);
    }
    out += "]}\n";
    return out;
}

void
ExperimentEngine::writeJsonSummary(const std::string &bench_name)
{
    const char *dir = std::getenv("CASH_BENCH_CSV");
    if (!dir)
        return;
    std::string path =
        std::string(dir) + "/" + bench_name + "_engine.json";
    std::ofstream file(path);
    if (!file.is_open()) {
        if (!warnedJson_)
            warn("CASH_BENCH_CSV: cannot open '%s' for the engine "
                 "summary; is the directory missing?",
                 path.c_str());
        warnedJson_ = true;
        return;
    }
    file << jsonSummary(bench_name);
}

} // namespace cash::harness
