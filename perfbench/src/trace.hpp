#pragma once

/**
 * @file
 * In-memory span recorder for the traced benchmark run. The
 * benchmark wraps each call it makes into a layer's public functions
 * in a span; spans nest through a stack, carry the id of the span
 * that caused them and a request id (the batch or query they serve),
 * and are written out once, when the run ends.
 *
 * Spans are recorded only from the benchmark's own thread (the
 * driver and the analyst client); the library's worker threads are
 * never instrumented. With tracing off every call is a branch.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = ""; ///< A string literal (never freed).
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t id = 0;     ///< 1-based; 0 means "no span".
    std::uint32_t parent = 0; ///< Enclosing span at open time.
    std::uint64_t request = 0;
};

/** Per-name totals of a span set. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    /** Duration minus the part of it that child spans cover. */
    double selfNs = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /** Switch recording on or off; only between top-level spans. */
    void enable(bool on) { on_ = on; }

    /** Open a span under the innermost open one; returns its id. */
    std::uint32_t open(const char *name, std::uint64_t request);
    void close(std::uint32_t id);

    /**
     * Record an interval that is not one call (for example a batch's
     * drain, from start() returning to finish() returning) under
     * the innermost open span.
     */
    void interval(const char *name, std::uint64_t request,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end);

    /** Durations (ns) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Per-name count, total and self time. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write one JSON object per span to @p path; false on error. */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    using Clock = std::chrono::steady_clock;

    std::int64_t
    sinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    /** Self time of every span, indexed like spans_. */
    std::vector<double> selfTimes() const;

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** RAII span; a no-op when the tracer is off. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t request = 0)
        : t_(t), id_(t.on() ? t.open(name, request) : 0)
    {
    }
    ~Scope()
    {
        if (id_ != 0)
            t_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::uint32_t id_;
};

} // namespace perfbench
