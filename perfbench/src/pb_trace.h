#ifndef PERFBENCH_PB_TRACE_H_
#define PERFBENCH_PB_TRACE_H_

/**
 * @file
 * In-memory span recording for the benchmark's traced runs, plus the
 * one-line JSON report both workload programs print.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the library's public functions.  Each thread appends to its own
 * buffer (no lock on the hot path); buffers are merged when the run
 * ends.  A span's parent is the span open on the same thread when it
 * started, so self time is the span minus its direct children
 * (pb::selfTime).
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pb_stats.h"

namespace pb {

/** CLOCK_MONOTONIC in nanoseconds (the clock run.py's timestamps use). */
inline std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL +
           ts.tv_nsec;
}

struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    /** 0 = a root span. */
    std::uint64_t parent = 0;
    Interval time;
};

/** Process-wide span store; disabled (and free) unless enabled. */
class Tracer
{
  public:
    static Tracer &instance()
    {
        static Tracer tracer;
        return tracer;
    }

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    std::uint64_t nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** This thread's buffer, registered on first use. */
    std::vector<SpanRecord> &local()
    {
        thread_local std::vector<SpanRecord> *buffer = nullptr;
        if (buffer == nullptr) {
            auto owned = std::make_unique<std::vector<SpanRecord>>();
            buffer = owned.get();
            const std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::move(owned));
        }
        return *buffer;
    }

    /** Move every recorded span out (call when no span is open). */
    std::vector<SpanRecord> drain()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::vector<SpanRecord> all;
        for (auto &b : buffers_) {
            all.insert(all.end(), std::make_move_iterator(b->begin()),
                       std::make_move_iterator(b->end()));
            b->clear();
        }
        return all;
    }

    /** Id of the span open on this thread (0 = none). */
    static std::uint64_t &current()
    {
        thread_local std::uint64_t open = 0;
        return open;
    }

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{1};
    std::mutex mutex_;
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/** RAII span; records nothing when tracing is off. */
class Span
{
  public:
    explicit Span(std::string name)
    {
        Tracer &t = Tracer::instance();
        if (!t.enabled())
            return;
        active_ = true;
        rec_.name = std::move(name);
        rec_.id = t.nextId();
        rec_.parent = Tracer::current();
        Tracer::current() = rec_.id;
        rec_.time.start = nowNs();
    }

    ~Span()
    {
        if (!active_)
            return;
        rec_.time.end = nowNs();
        Tracer::current() = rec_.parent;
        Tracer::instance().local().push_back(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    SpanRecord rec_;
};

/** Per-name totals over a set of spans. */
struct LayerTime
{
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
    std::uint64_t count = 0;
};

/** Total and self time per span name. */
inline std::map<std::string, LayerTime>
aggregateSpans(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, std::vector<Interval>> children;
    for (const SpanRecord &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(s.time);
    }
    std::map<std::string, LayerTime> out;
    static const std::vector<Interval> kNone;
    for (const SpanRecord &s : spans) {
        const auto it = children.find(s.id);
        LayerTime &l = out[s.name];
        l.totalNs += s.time.end - s.time.start;
        l.selfNs += selfTime(s.time, it == children.end() ? kNone
                                                           : it->second);
        l.count += 1;
    }
    return out;
}

/** Flat JSON object built key by key, printed on one line. */
class JsonLine
{
  public:
    void num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(key, buf);
    }
    void integer(const std::string &key, std::int64_t v)
    {
        add(key, std::to_string(v));
    }
    void str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c == '\n') ? ' ' : c;
        }
        add(key, quoted + "\"");
    }
    void boolean(const std::string &key, bool v)
    {
        add(key, v ? "true" : "false");
    }
    void print() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    void add(const std::string &key, const std::string &raw)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + raw;
    }

    std::string body_;
};

} // namespace pb

#endif // PERFBENCH_PB_TRACE_H_
