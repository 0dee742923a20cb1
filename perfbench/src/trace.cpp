#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t
Tracer::open(const char *name, std::uint64_t request)
{
    Span s;
    s.name = name;
    s.startNs = sinceOrigin(Clock::now());
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.request = request;
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
}

void
Tracer::close(std::uint32_t id)
{
    spans_[id - 1].endNs = sinceOrigin(Clock::now());
    // Scopes close in reverse open order, so the span is on top.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Tracer::interval(const char *name, std::uint64_t request,
                 Clock::time_point start, Clock::time_point end)
{
    if (!on_)
        return;
    Span s;
    s.name = name;
    s.startNs = sinceOrigin(start);
    s.endNs = sinceOrigin(end);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.request = request;
    spans_.push_back(s);
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    return out;
}

std::vector<double>
Tracer::selfTimes() const
{
    // Children may overlap each other (a batch's drain interval and
    // the queries run during it), so subtract the union of their
    // intervals, clipped to the parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids(spans_.size());
    for (const auto &s : spans_)
        if (s.parent != 0)
            kids[s.parent - 1].emplace_back(s.startNs, s.endNs);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = static_cast<double>(s.endNs - s.startNs - covered);
    }
    return self;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    const auto self = selfTimes();
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &t = out[spans_[i].name];
        ++t.count;
        t.totalNs +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs);
        t.selfNs += self[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const auto self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %u, \"parent\": %u, \"request\": %llu, "
                     "\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"self_ns\": %.0f}\n",
                     s.id, s.parent,
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), self[i]);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
