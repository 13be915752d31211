#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util.hh"

namespace pb
{

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

int
Tracer::open(const char *name, std::uint64_t id)
{
    spans_.push_back({name, nowUs(), 0.0, current_, id, false});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int idx)
{
    spans_[idx].t1 = nowUs();
    current_ = spans_[idx].parent;
}

void
Tracer::addChild(const char *name, double t0, double t1,
                 std::uint64_t id)
{
    if (on_)
        spans_.push_back({name, t0, t1, current_, id, false});
}

void
Tracer::addAsync(const char *name, double t0, double t1,
                 std::uint64_t id)
{
    spans_.push_back({name, t0, t1, -1, id, true});
}

std::string
layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

std::map<std::string, double>
Tracer::selfByLayer(int root) const
{
    // Children of each span, then self = duration minus the union of
    // the children's intervals (nested spans on one thread never
    // overlap, but the union keeps the rule honest).
    std::vector<std::vector<int>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (!spans_[i].async && spans_[i].parent >= 0)
            kids[spans_[i].parent].push_back(static_cast<int>(i));

    std::map<std::string, double> out;
    std::vector<int> stack{root};
    while (!stack.empty()) {
        int s = stack.back();
        stack.pop_back();
        std::vector<std::pair<double, double>> iv;
        for (int k : kids[s]) {
            iv.emplace_back(spans_[k].t0, spans_[k].t1);
            stack.push_back(k);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double end = -1e300;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        out[layerOf(spans_[s].name)] += duration(s) - covered;
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    std::map<std::string, std::size_t> written;
    const char *sep = "\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (written[s.name]++ >= kMaxWrittenPerName)
            continue;
        std::string cat = layerOf(s.name);
        if (s.async) {
            // Overlapping request spans: a nestable async pair on
            // the request's id.
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\","
                         "\"ts\":%.3f,\"pid\":1,\"tid\":2,\"id\":%llu},\n"
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\","
                         "\"ts\":%.3f,\"pid\":1,\"tid\":2,\"id\":%llu}",
                         sep, s.name, cat.c_str(), s.t0,
                         static_cast<unsigned long long>(s.id), s.name,
                         cat.c_str(), s.t1,
                         static_cast<unsigned long long>(s.id));
        } else {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                         "\"args\":{\"span\":%zu,\"parent\":%d,"
                         "\"id\":%llu}}",
                         sep, s.name, cat.c_str(), s.t0, s.t1 - s.t0, i,
                         s.parent, static_cast<unsigned long long>(s.id));
        }
        sep = ",\n";
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

} // namespace pb
