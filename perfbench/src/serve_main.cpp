/**
 * pb_serve -- the benchmark's serving program, in two modes.
 *
 * Socket mode drives a running rebudgetd over its Unix socket:
 *
 *   pb_serve --socket PATH --workload serve-read|serve-write --seed N
 *            --seconds T [--trace 0|1] [--setup-only]
 *
 * It creates the workload's markets, forces the first tick and checks
 * that every market published (the end of set-up), warms up for a
 * second, then runs an open-loop phase at the workload's fixed rate --
 * each request timed from the moment it was due -- and a closed-loop
 * phase with a fixed connection x in-flight count.  One thread drives
 * every connection.  Every reply is checked; an error, a decode
 * failure, a reply of the wrong type, a torn allocation or no reply by
 * the end of the drain fails that op.  GetStats snapshots at the phase
 * edges give the daemon's counters per phase.  With --trace 1 the open
 * loop runs in four quarters that alternate untraced and traced
 * (GetAllocation encode/decode timed on the client), and the closed
 * loop is skipped.
 *
 * In-process mode replays the same op schedule against a ServerCore in
 * this process, with spans around readAllocation, submitFrame (to the
 * ReplySink), tickAsync and PersistManager::snapshotAll, and a timing
 * JournalSink wrapper around the PersistManager:
 *
 *   pb_serve --inproc --workload W --seed N --seconds T [--state-dir D]
 *            [--shards N --jobs N --tick-ms N --snapshot-ticks N]
 *
 * Both modes print one JSON line of raw measurements for
 * perfbench/run.py.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "rebudget/eval/bundle_runner.h"
#include "rebudget/serve/persist.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

#include "pb_stats.h"
#include "pb_trace.h"

using namespace rebudget;

// --- allocation counter for the steady-tick audit (in-process mode) ---
//
// Every operator new bumps a thread-local counter that ServeConfig::
// allocCounter exposes, so each shard counts the allocations of its own
// tick body.  The aligned forms matter: solver matrices use them.

namespace {
thread_local std::int64_t t_allocs = 0;

std::int64_t
threadAllocs()
{
    return t_allocs;
}

void *
countedAlloc(std::size_t size, std::size_t align)
{
    ++t_allocs;
    void *p = nullptr;
    if (posix_memalign(&p, std::max(align, sizeof(void *)),
                       size == 0 ? 1 : size) == 0)
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 16); }
void *operator new[](std::size_t n) { return countedAlloc(n, 16); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// --- workloads ---------------------------------------------------------

enum OpClass : std::uint8_t { kRead = 0, kWrite = 1, kChurn = 2 };

/** Untimed open-loop warm-up between set-up and the measured phases. */
constexpr double kWarmupS = 1.0;

/** One serving workload: roster, mix and load shape. */
struct Workload
{
    std::string name;
    std::size_t markets = 512;
    std::size_t players = 8;
    std::uint64_t mixRead = 0, mixWrite = 0, mixChurn = 0;
    /** Open-loop rate, ops/s, and its connections. */
    double rate = 0.0;
    std::size_t openConns = 2;
    /** Share of --seconds spent in the open loop; the closed loop gets
     * the rest. */
    double openShare = 1.0;
    std::size_t closedConns = 4;
    std::size_t closedInflight = 8;
};

Workload
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "serve-read") {
        w.mixRead = 98;
        w.mixWrite = 2;
        w.mixChurn = 0;
        w.rate = 50000.0;
        w.openShare = 0.6;
    } else if (name == "serve-write") {
        w.mixRead = 20;
        w.mixWrite = 70;
        w.mixChurn = 10;
        w.rate = 20000.0;
        w.openShare = 0.7;
    } else {
        util::fatal("unknown serve workload '%s'", name.c_str());
    }
    return w;
}

/** One scheduled request. */
struct ScheduledOp
{
    OpClass cls = kRead;
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
    double weight = 1.0;
    bool join = false;
};

/**
 * The deterministic op schedule: op @p i of stream @p key.  Demand
 * weights span 0.25 .. 4.1875 (a 16x spread); churn toggles one extra
 * tenant per (stream, market) in and out, tracked in @p joined.
 */
ScheduledOp
scheduleOp(const Workload &w, std::uint64_t key, std::uint64_t i,
           std::vector<std::uint8_t> &joined, std::uint64_t churnTenant)
{
    ScheduledOp op;
    const std::uint64_t total = w.mixRead + w.mixWrite + w.mixChurn;
    const std::uint64_t roll =
        util::mix64(key ^ (i * 0x9e3779b97f4a7c15ull)) % total;
    op.market = util::mix64(key ^ 0x51edull ^ (i * 0x2545f4914f6cdd1dull)) %
                w.markets;
    if (roll < w.mixRead) {
        op.cls = kRead;
    } else if (roll < w.mixRead + w.mixWrite) {
        op.cls = kWrite;
        op.tenant = util::mix64(key ^ 0xbeefull ^ i) % w.players;
        op.weight = 0.25 + static_cast<double>(util::mix64(
                               key ^ 0xfeedull ^
                               (i * 0x9e3779b97f4a7c15ull)) %
                               64) /
                               16.0;
    } else {
        op.cls = kChurn;
        op.tenant = churnTenant;
        op.join = joined[op.market] == 0;
        joined[op.market] ^= 1;
    }
    return op;
}

serve::Request
toRequest(const ScheduledOp &op, const std::string &churnApp)
{
    switch (op.cls) {
    case kRead:
        return serve::GetAllocation{op.market};
    case kWrite:
        return serve::SubmitDemand{op.market, op.tenant, op.weight};
    case kChurn:
    default:
        if (op.join)
            return serve::JoinTenant{op.market, op.tenant, churnApp};
        return serve::LeaveTenant{op.market, op.tenant};
    }
}

serve::CreateMarket
createRequest(const Workload &w, std::uint64_t seed, std::uint64_t m)
{
    serve::CreateMarket create;
    create.market = m;
    const auto apps = eval::syntheticAppNames(w.players, seed ^ m);
    for (std::uint64_t t = 0; t < w.players; ++t)
        create.tenants.push_back({t, apps[t]});
    return create;
}

std::string
churnAppFor(std::uint64_t seed)
{
    return eval::syntheticAppNames(1, seed ^ 0xc4u)[0];
}

/** The schedule stream of connection @p c. */
std::uint64_t
streamKey(std::uint64_t seed, std::size_t c)
{
    return util::mix64(seed ^ (0x10adull ^ (c * 0x9e37ull)));
}

// --- reply checks ------------------------------------------------------

/** Named failure counts; the first message of each kind is kept. */
struct Failures
{
    std::uint64_t errorReply = 0;
    std::uint64_t decode = 0;
    std::uint64_t wrongType = 0;
    std::uint64_t torn = 0;
    std::uint64_t unanswered = 0;
    std::string first;

    std::uint64_t total() const
    {
        return errorReply + decode + wrongType + torn + unanswered;
    }
    void note(std::uint64_t &counter, const std::string &why)
    {
        ++counter;
        if (first.empty())
            first = why;
    }
};

/**
 * Check one AllocationReply: the market asked for, a roster within the
 * churn bounds, every row as wide as the price vector, budgets summing
 * to the roster size, finite values, and a tick no older than the last
 * one this connection saw for the market.
 */
bool
allocationValid(const serve::AllocationReply &a, std::uint64_t market,
                std::size_t minPlayers, std::size_t maxPlayers,
                std::size_t resources, std::uint64_t &lastTick,
                std::string &why)
{
    if (a.market != market) {
        why = "reply for market " + std::to_string(a.market) + ", asked " +
              std::to_string(market);
        return false;
    }
    const std::size_t n = a.players.size();
    if (n < minPlayers || n > maxPlayers) {
        why = "roster size " + std::to_string(n);
        return false;
    }
    if (a.prices.size() != resources) {
        why = "price vector width " + std::to_string(a.prices.size());
        return false;
    }
    double mass = 0.0;
    for (const auto &p : a.players) {
        if (p.alloc.size() != resources) {
            why = "allocation row width " + std::to_string(p.alloc.size());
            return false;
        }
        for (const double x : p.alloc) {
            if (!std::isfinite(x)) {
                why = "non-finite allocation";
                return false;
            }
        }
        mass += p.budget;
    }
    if (!std::isfinite(mass) ||
        std::fabs(mass - static_cast<double>(n)) >
            1e-6 * static_cast<double>(n)) {
        why = "budget mass " + std::to_string(mass) + " != " +
              std::to_string(n);
        return false;
    }
    if (a.tick == 0 || a.tick < lastTick) {
        why = "tick went from " + std::to_string(lastTick) + " to " +
              std::to_string(a.tick);
        return false;
    }
    lastTick = a.tick;
    return true;
}

// --- socket plumbing ---------------------------------------------------

int
connectUnix(const std::string &path, double timeoutS)
{
    const std::int64_t deadline =
        pb::nowNs() + static_cast<std::int64_t>(timeoutS * 1e9);
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            util::fatal("socket: %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            util::fatal("socket path too long: %s", path.c_str());
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        if (pb::nowNs() > deadline)
            util::fatal("connect(%s): %s", path.c_str(),
                        std::strerror(errno));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        util::fatal("fcntl(O_NONBLOCK): %s", std::strerror(errno));
}

/** Blocking round trip with a deadline (set-up and GetStats only). */
serve::Response
roundTrip(int fd, const serve::Request &req, double timeoutS = 30.0)
{
    std::vector<std::uint8_t> frame;
    serve::encodeRequest(req, frame);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && (errno == EINTR || errno == EAGAIN))
            continue;
        if (n <= 0)
            util::fatal("send: daemon gone (%s)", std::strerror(errno));
        sent += static_cast<std::size_t>(n);
    }
    const std::int64_t deadline =
        pb::nowNs() + static_cast<std::int64_t>(timeoutS * 1e9);
    serve::FrameReader reader;
    std::vector<std::uint8_t> payload;
    std::uint8_t buf[64 * 1024];
    for (;;) {
        const auto r = reader.next(payload);
        if (r == serve::FrameReader::Result::Frame) {
            auto resp = serve::decodeResponse(payload.data(), payload.size());
            if (!resp.ok())
                util::fatal("undecodable reply: %s",
                            resp.status().toString().c_str());
            return std::move(resp.value());
        }
        if (r == serve::FrameReader::Result::Error)
            util::fatal("framing: %s", reader.error().c_str());
        pollfd pfd{fd, POLLIN, 0};
        const std::int64_t left = (deadline - pb::nowNs()) / 1000000;
        if (left <= 0)
            util::fatal("no reply within %.0f s: daemon hung", timeoutS);
        if (::poll(&pfd, 1, static_cast<int>(left)) <= 0)
            continue;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0)
            util::fatal("daemon closed the connection");
        if (n < 0 && errno != EINTR && errno != EAGAIN)
            util::fatal("recv: %s", std::strerror(errno));
        if (n > 0)
            reader.feed(buf, static_cast<std::size_t>(n));
    }
}

/** Sum of every numeric field named @p key in a stats JSON document. */
double
sumField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    double sum = 0.0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size()))
        sum += std::strtod(json.c_str() + at + needle.size(), nullptr);
    return sum;
}

/** The daemon counters the benchmark reads from GetStats. */
struct DaemonStats
{
    static constexpr const char *kKeys[] = {
        "epoch",           "requests_applied",   "requests_rejected",
        "equilibrium_solves", "sweep_iterations", "fail_safe_trips",
        "cold_started_solves", "watchdog_trips",  "fallback_epochs",
        "solve_seconds",   "failed_solves"};
    double v[sizeof(kKeys) / sizeof(kKeys[0])] = {};

    static DaemonStats fetch(int fd)
    {
        const serve::Response r = roundTrip(fd, serve::GetStats{});
        const auto *s = std::get_if<serve::StatsReply>(&r);
        if (s == nullptr)
            util::fatal("GetStats: wrong reply type");
        DaemonStats out;
        for (std::size_t k = 0; k < std::size(kKeys); ++k)
            out.v[k] = sumField(s->json, kKeys[k]);
        return out;
    }
};

// --- the socket client -------------------------------------------------

struct Pending
{
    OpClass cls = kRead;
    std::uint64_t market = 0;
    std::int64_t due = 0;
    std::int64_t sent = 0;
};

struct Connection
{
    int fd = -1;
    std::size_t idx = 0;
    std::uint64_t key = 0;
    std::uint64_t opIndex = 0;
    std::vector<std::uint8_t> sendbuf;
    std::size_t sendoff = 0;
    serve::FrameReader reader;
    std::deque<Pending> pending;
    std::vector<std::uint8_t> joined;
    std::vector<std::uint64_t> lastTick;
};

/** What one load phase measured. */
struct PhaseResult
{
    std::uint64_t attempted = 0;
    /** Closed loop: completions per second in each sub-window. */
    std::vector<double> windowRates;
    std::vector<double> readUs, writeUs, lagUs;
    std::vector<double> encodeNs, decodeNs;
    /** Per kWindowNs of reply time since `start`: latencies by class,
     * and the ticks read replies carried with when each was first seen. */
    std::int64_t start = 0;
    std::vector<std::vector<double>> windowReadUs, windowWriteUs;
    struct TickSpan
    {
        std::uint64_t first = 0, last = 0;
        std::int64_t firstAt = 0, lastAt = 0;
    };
    std::vector<TickSpan> windowTicks;
};

/** Length of the windows the open-loop figures are medians over. */
constexpr std::int64_t kWindowNs = 500000000;

class Client
{
  public:
    Client(const Workload &w, std::uint64_t seed, const std::string &path)
        : w_(w), seed_(seed), path_(path), churnApp_(churnAppFor(seed))
    {
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Creates the markets, forces the first tick and checks every
     * market's first publication; records the resource count every
     * allocation row must have. */
    void setup()
    {
        control_ = connectUnix(path_, 30.0);
        for (std::uint64_t m = 0; m < w_.markets; ++m) {
            const serve::Response r =
                roundTrip(control_, createRequest(w_, seed_, m));
            if (std::holds_alternative<serve::ErrorReply>(r))
                util::fatal("create market %llu rejected",
                            static_cast<unsigned long long>(m));
        }
        if (!std::holds_alternative<serve::AckReply>(
                roundTrip(control_, serve::TickNow{})))
            util::fatal("TickNow was not acked");
        for (std::uint64_t m = 0; m < w_.markets; ++m) {
            const serve::Response r =
                roundTrip(control_, serve::GetAllocation{m});
            const auto *a = std::get_if<serve::AllocationReply>(&r);
            if (a == nullptr)
                util::fatal("market %llu did not publish after the first "
                            "tick",
                            static_cast<unsigned long long>(m));
            if (m == 0)
                resources_ = a->prices.size();
            std::uint64_t last = 0;
            std::string why;
            if (!allocationValid(*a, m, w_.players, w_.players, resources_,
                                 last, why))
                util::fatal("first publication of market %llu: %s",
                            static_cast<unsigned long long>(m), why.c_str());
        }
    }

    void connectLoad()
    {
        const std::size_t n = std::max(w_.openConns, w_.closedConns);
        conns_.resize(n);
        for (std::size_t c = 0; c < n; ++c) {
            conns_[c].fd = connectUnix(path_, 10.0);
            setNonBlocking(conns_[c].fd);
            conns_[c].idx = c;
            conns_[c].key = streamKey(seed_, c);
            conns_[c].joined.assign(w_.markets, 0);
            conns_[c].lastTick.assign(w_.markets, 0);
        }
    }

    DaemonStats stats() { return DaemonStats::fetch(control_); }

    /** Open loop: op k is due at start + k / rate, on connection
     * k mod openConns. */
    PhaseResult openLoop(double seconds, bool trace)
    {
        PhaseResult r;
        const auto total = static_cast<std::uint64_t>(seconds * w_.rate);
        const double periodNs = 1e9 / w_.rate;
        const std::int64_t start = pb::nowNs();
        r.start = start;
        std::uint64_t released = 0;
        while (true) {
            const std::int64_t now = pb::nowNs();
            while (released < total &&
                   start + static_cast<std::int64_t>(
                               static_cast<double>(released) * periodNs) <=
                       now) {
                const std::int64_t due =
                    start + static_cast<std::int64_t>(
                                static_cast<double>(released) * periodNs);
                enqueue(conns_[released % w_.openConns], due, now, trace, r);
                ++released;
            }
            const bool done = released == total && outstanding() == 0;
            if (done)
                break;
            if (released == total && now > start + static_cast<std::int64_t>(
                                                     (seconds + kDrainS) *
                                                     1e9))
                break;
            pump(w_.openConns, released < total ? 0 : 1, trace, r);
        }
        abandon(r);
        return r;
    }

    /** Closed loop: each connection keeps closedInflight requests
     * outstanding until the window ends, then drains. */
    PhaseResult closedLoop(double seconds)
    {
        PhaseResult r;
        const std::int64_t start = pb::nowNs();
        r.start = start;
        const std::int64_t end =
            start + static_cast<std::int64_t>(seconds * 1e9);
        // Capacity is the median over kWindows equal sub-windows of the
        // completion rate, so a transient stall moves one window only.
        const std::int64_t windowNs = (end - start) / kWindows;
        std::vector<std::uint64_t> completedAt;
        bool windowOpen = true;
        while (true) {
            const std::int64_t now = pb::nowNs();
            while (windowOpen &&
                   now >= start + windowNs * static_cast<std::int64_t>(
                                                 completedAt.size() + 1)) {
                completedAt.push_back(r.attempted - outstanding());
                windowOpen = completedAt.size() < kWindows;
            }
            if (windowOpen) {
                for (std::size_t c = 0; c < w_.closedConns; ++c)
                    while (conns_[c].pending.size() < w_.closedInflight)
                        enqueue(conns_[c], now, now, false, r);
            } else if (outstanding() == 0 ||
                       now > end + static_cast<std::int64_t>(kDrainS * 1e9)) {
                break;
            }
            pump(w_.closedConns, windowOpen ? 0 : 1, false, r);
        }
        std::uint64_t before = 0;
        for (const std::uint64_t done : completedAt) {
            r.windowRates.push_back(static_cast<double>(done - before) /
                                    (static_cast<double>(windowNs) / 1e9));
            before = done;
        }
        abandon(r);
        return r;
    }

    Failures failures;

    ~Client()
    {
        for (Connection &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
        if (control_ >= 0)
            ::close(control_);
    }

  private:
    static constexpr double kDrainS = 10.0;
    static constexpr std::size_t kWindows = 20;

    std::uint64_t outstanding() const
    {
        std::uint64_t n = 0;
        for (const Connection &c : conns_)
            n += c.pending.size();
        return n;
    }

    void enqueue(Connection &conn, std::int64_t due, std::int64_t now,
               bool trace, PhaseResult &r)
    {
        const ScheduledOp op = scheduleOp(w_, conn.key, conn.opIndex++,
                                          conn.joined,
                                          w_.players + conn.idx);
        const std::int64_t e0 = trace ? pb::nowNs() : 0;
        serve::encodeRequest(toRequest(op, churnApp_), conn.sendbuf);
        if (trace && op.cls == kRead)
            r.encodeNs.push_back(static_cast<double>(pb::nowNs() - e0));
        conn.pending.push_back({op.cls, op.market, due, now});
        r.lagUs.push_back(static_cast<double>(now - due) / 1e3);
        ++r.attempted;
    }

    /** Flush sends, wait up to @p timeoutMs for replies, consume them. */
    void pump(std::size_t nconns, int timeoutMs, bool trace, PhaseResult &r)
    {
        std::vector<pollfd> fds(nconns);
        for (std::size_t c = 0; c < nconns; ++c) {
            Connection &conn = conns_[c];
            while (conn.sendoff < conn.sendbuf.size()) {
                const ssize_t n = ::send(
                    conn.fd, conn.sendbuf.data() + conn.sendoff,
                    conn.sendbuf.size() - conn.sendoff, MSG_NOSIGNAL);
                if (n > 0) {
                    conn.sendoff += static_cast<std::size_t>(n);
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EINTR))
                    break;
                util::fatal("send: daemon gone (%s)", std::strerror(errno));
            }
            if (conn.sendoff == conn.sendbuf.size()) {
                conn.sendbuf.clear();
                conn.sendoff = 0;
            }
            fds[c] = {conn.fd,
                      static_cast<short>(
                          POLLIN | (conn.sendbuf.empty() ? 0 : POLLOUT)),
                      0};
        }
        if (::poll(fds.data(), fds.size(), timeoutMs) <= 0)
            return;
        std::uint8_t buf[64 * 1024];
        for (std::size_t c = 0; c < nconns; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Connection &conn = conns_[c];
            for (;;) {
                const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    conn.reader.feed(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0)
                    util::fatal("daemon closed connection %zu", c);
                if (errno == EAGAIN || errno == EINTR)
                    break;
                util::fatal("recv: %s", std::strerror(errno));
            }
            const std::int64_t now = pb::nowNs();
            for (;;) {
                const auto res = conn.reader.next(payload_);
                if (res == serve::FrameReader::Result::NeedMore)
                    break;
                if (res == serve::FrameReader::Result::Error)
                    util::fatal("framing broke: %s",
                                conn.reader.error().c_str());
                consume(conn, now, trace, r);
            }
        }
    }

    void consume(Connection &conn, std::int64_t now, bool trace,
                 PhaseResult &r)
    {
        if (conn.pending.empty()) {
            failures.note(failures.decode, "reply with nothing outstanding");
            return;
        }
        const Pending p = conn.pending.front();
        conn.pending.pop_front();
        const std::int64_t d0 = trace ? pb::nowNs() : 0;
        const auto resp = serve::decodeResponse(payload_.data(),
                                                payload_.size());
        if (trace && p.cls == kRead)
            r.decodeNs.push_back(static_cast<double>(pb::nowNs() - d0));
        if (!resp.ok()) {
            failures.note(failures.decode, resp.status().message());
            return;
        }
        if (const auto *e = std::get_if<serve::ErrorReply>(&resp.value())) {
            failures.note(failures.errorReply, e->message);
            return;
        }
        const double us =
            static_cast<double>(pb::dueLatency(p.due, p.sent, now)) / 1e3;
        if (p.cls == kRead) {
            const auto *a = std::get_if<serve::AllocationReply>(&resp.value());
            if (a == nullptr) {
                failures.note(failures.wrongType, "read answered without an "
                                                  "allocation");
                return;
            }
            std::string why;
            const std::size_t churners = w_.mixChurn ? conns_.size() : 0;
            if (!allocationValid(*a, p.market, w_.players,
                                 w_.players + churners, resources_,
                                 conn.lastTick[p.market], why)) {
                failures.note(failures.torn, why);
                return;
            }
            const std::size_t win = window(r, now);
            PhaseResult::TickSpan &ts = r.windowTicks[win];
            if (ts.firstAt == 0) {
                ts.first = ts.last = a->tick;
                ts.firstAt = ts.lastAt = now;
            } else if (a->tick > ts.last) {
                ts.last = a->tick;
                ts.lastAt = now;
            }
            r.windowReadUs[win].push_back(us);
            r.readUs.push_back(us);
        } else {
            if (!std::holds_alternative<serve::AckReply>(resp.value())) {
                failures.note(failures.wrongType, "write not acked");
                return;
            }
            r.windowWriteUs[window(r, now)].push_back(us);
            r.writeUs.push_back(us);
        }
    }

    /** The window @p now falls in, growing the per-window vectors. */
    static std::size_t window(PhaseResult &r, std::int64_t now)
    {
        const auto w = static_cast<std::size_t>((now - r.start) / kWindowNs);
        if (r.windowTicks.size() <= w) {
            r.windowTicks.resize(w + 1);
            r.windowReadUs.resize(w + 1);
            r.windowWriteUs.resize(w + 1);
        }
        return w;
    }

    /** Ops still outstanding after the drain fail as unanswered. */
    void abandon(PhaseResult &)
    {
        for (Connection &c : conns_) {
            for (std::size_t i = 0; i < c.pending.size(); ++i)
                failures.note(failures.unanswered, "no reply by the end of "
                                                   "the drain");
            c.pending.clear();
        }
    }

    Workload w_;
    std::uint64_t seed_;
    std::string path_;
    std::string churnApp_;
    int control_ = -1;
    std::size_t resources_ = 0;
    std::vector<Connection> conns_;
    std::vector<std::uint8_t> payload_;
};

void
reportLatency(pb::JsonLine &out, const std::string &prefix,
              std::vector<double> v)
{
    out.integer(prefix + "_n", static_cast<std::int64_t>(v.size()));
    out.num(prefix + "_p50", v.empty() ? 0.0 : pb::percentile(v, 0.5));
    out.num(prefix + "_p99", pb::reportable(v.size(), 0.99)
                                 ? pb::percentile(v, 0.99)
                                 : 0.0);
}

void
reportDaemonDelta(pb::JsonLine &out, const std::string &prefix,
                  const DaemonStats &a, const DaemonStats &b)
{
    for (std::size_t k = 0; k < std::size(DaemonStats::kKeys); ++k)
        out.num(prefix + DaemonStats::kKeys[k], b.v[k] - a.v[k]);
}

/**
 * Median over the windows of each window's p50, so a few slow seconds
 * move a few windows, not the result.  Windows with fewer than
 * kMinWindowSamples samples (the drain's tail) are left out.
 */
double
windowedP50(std::vector<std::vector<double>> windows)
{
    constexpr std::size_t kMinWindowSamples = 100;
    std::vector<double> p50s;
    for (auto &w : windows)
        if (w.size() >= kMinWindowSamples)
            p50s.push_back(pb::percentile(w, 0.5));
    return p50s.empty() ? 0.0 : pb::percentile(p50s, 0.5);
}

/** Epochs published per second: the median over windows of the
 * advance of AllocationReply.tick over the time between the replies
 * that first showed the window's first and last tick. */
double
windowedTickRate(const std::vector<PhaseResult::TickSpan> &spans)
{
    std::vector<double> rates;
    for (const auto &ts : spans)
        if (ts.lastAt > ts.firstAt)
            rates.push_back(static_cast<double>(ts.last - ts.first) /
                            (static_cast<double>(ts.lastAt - ts.firstAt) /
                             1e9));
    return rates.empty() ? 0.0 : pb::percentile(rates, 0.5);
}

int
runSocket(const Workload &w, std::uint64_t seed, double seconds, bool trace,
          bool setupOnly, const std::string &path)
{
    Client client(w, seed, path);
    client.setup();
    pb::JsonLine out;
    out.integer("setup_done_ns", pb::nowNs());
    if (setupOnly) {
        out.print();
        return 0;
    }
    client.connectLoad();
    // Warm-up at the open-loop rate, untimed: connections, reply buffers
    // and the daemon's first steady ticks settle before measuring.
    std::uint64_t attempted = client.openLoop(kWarmupS, false).attempted;
    const DaemonStats s0 = client.stats();
    if (!trace) {
        const double openS = seconds * w.openShare;
        const PhaseResult open = client.openLoop(openS, false);
        const DaemonStats s1 = client.stats();
        const PhaseResult closed = client.closedLoop(seconds - openS);
        const DaemonStats s2 = client.stats();
        attempted += open.attempted + closed.attempted;
        reportLatency(out, "read_us", open.readUs);
        reportLatency(out, "write_us", open.writeUs);
        reportLatency(out, "lag_us", open.lagUs);
        out.num("read_us_windowed_p50", windowedP50(open.windowReadUs));
        out.num("write_us_windowed_p50", windowedP50(open.windowWriteUs));
        out.integer("windows",
                    static_cast<std::int64_t>(open.windowTicks.size()));
        out.num("ticks_per_s", windowedTickRate(open.windowTicks));
        std::vector<double> rates = closed.windowRates;
        out.num("closed_ops_per_s",
                rates.empty() ? 0.0 : pb::percentile(rates, 0.5));
        out.integer("closed_windows", static_cast<std::int64_t>(rates.size()));
        out.num("closed_ticks_per_s", windowedTickRate(closed.windowTicks));
        reportDaemonDelta(out, "open.", s0, s1);
        reportDaemonDelta(out, "closed.", s1, s2);
    } else {
        // Open-loop quarters alternate untraced and traced, so both
        // modes see the same machine; the difference in read p50 is the
        // client-side tracing overhead.
        PhaseResult modes[2];
        DaemonStats delta[2];
        DaemonStats before = s0;
        for (int q = 0; q < 4; ++q) {
            const int traced = q % 2;
            PhaseResult r = client.openLoop(seconds / 4, traced == 1);
            const DaemonStats after = client.stats();
            for (std::size_t k = 0; k < std::size(DaemonStats::kKeys); ++k)
                delta[traced].v[k] += after.v[k] - before.v[k];
            before = after;
            PhaseResult &m = modes[traced];
            auto append = [](std::vector<double> &to,
                             const std::vector<double> &from) {
                to.insert(to.end(), from.begin(), from.end());
            };
            append(m.readUs, r.readUs);
            append(m.writeUs, r.writeUs);
            append(m.lagUs, r.lagUs);
            append(m.encodeNs, r.encodeNs);
            append(m.decodeNs, r.decodeNs);
            attempted += r.attempted;
        }
        reportLatency(out, "read_us", modes[0].readUs);
        reportLatency(out, "write_us", modes[0].writeUs);
        reportLatency(out, "lag_us", modes[0].lagUs);
        reportLatency(out, "traced_read_us", modes[1].readUs);
        reportLatency(out, "encode_ns", modes[1].encodeNs);
        reportLatency(out, "decode_ns", modes[1].decodeNs);
        reportDaemonDelta(out, "traced.", DaemonStats{}, delta[1]);
    }
    const Failures &f = client.failures;
    out.integer("attempted", static_cast<std::int64_t>(attempted));
    out.integer("failed", static_cast<std::int64_t>(f.total()));
    out.num("failed_frac", pb::failedFrac(f.total(), attempted));
    out.integer("failed.error_reply", static_cast<std::int64_t>(f.errorReply));
    out.integer("failed.decode", static_cast<std::int64_t>(f.decode));
    out.integer("failed.wrong_type", static_cast<std::int64_t>(f.wrongType));
    out.integer("failed.torn", static_cast<std::int64_t>(f.torn));
    out.integer("failed.unanswered", static_cast<std::int64_t>(f.unanswered));
    out.str("first_failure", f.first);
    out.print();
    return 0;
}

// --- in-process replay -------------------------------------------------

/** Times every journal append of the wrapped PersistManager. */
class TimedJournal final : public serve::JournalSink
{
  public:
    explicit TimedJournal(serve::PersistManager &inner) : inner_(inner) {}

    void journalOp(std::size_t shard, const std::uint8_t *payload,
                   std::size_t size) override
    {
        const std::int64_t t0 = pb::nowNs();
        inner_.journalOp(shard, payload, size);
        const std::int64_t dt = pb::nowNs() - t0;
        const std::lock_guard<std::mutex> lock(mutex_);
        ns_.push_back(static_cast<double>(dt));
        bytes_ += size;
    }

    void opApplied(std::size_t shard) override { inner_.opApplied(shard); }

    std::vector<double> samples()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return ns_;
    }
    std::uint64_t bytes()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }

  private:
    serve::PersistManager &inner_;
    std::mutex mutex_;
    std::vector<double> ns_;
    std::uint64_t bytes_ = 0;
};

/** The daemon settings the in-process replay mirrors (rebudgetd's
 * --shards, --jobs, --tick-ms and --snapshot-ticks). */
struct DaemonShape
{
    std::size_t shards = 4;
    unsigned jobs = 2;
    std::uint64_t tickMs = 1;
    std::uint64_t snapshotTicks = 32;
};

int
runInProcess(const Workload &w, std::uint64_t seed, double seconds,
             const std::string &stateDir, const DaemonShape &shape)
{
    serve::ServeConfig config;
    config.shards = shape.shards;
    config.jobs = shape.jobs;
    config.allocCounter = &threadAllocs;
    // Everything the core's workers and sinks touch is declared before
    // the core, so it outlives the pool's final drain.
    std::unique_ptr<serve::PersistManager> persist;
    std::unique_ptr<TimedJournal> journal;
    if (!stateDir.empty()) {
        serve::PersistConfig pcfg;
        pcfg.dir = stateDir;
        pcfg.fsyncData = false;
        pcfg.fsyncJournal = false;
        persist = std::make_unique<serve::PersistManager>(pcfg, config.shards);
        if (!persist->init().ok())
            util::fatal("in-process: state dir init failed");
    }
    const auto total = static_cast<std::uint64_t>(seconds * w.rate);
    std::vector<std::atomic<std::int64_t>> doneAt(total);
    std::vector<std::int64_t> submitAt(total, 0);
    std::atomic<std::uint64_t> errors{0};
    serve::ServerCore core(config);

    for (std::uint64_t m = 0; m < w.markets; ++m) {
        const serve::Response r = core.apply(createRequest(w, seed, m));
        if (std::holds_alternative<serve::ErrorReply>(r))
            util::fatal("in-process: create market failed");
    }
    core.tick();
    if (persist) {
        if (!persist->snapshotAll(core).ok())
            util::fatal("in-process: baseline snapshot failed");
        journal = std::make_unique<TimedJournal>(*persist);
        core.setJournal(journal.get());
    }

    // Reply sink: worker threads stamp the completion of op `seq`.
    core.setReplySink([&](std::uint64_t, std::uint64_t seq,
                          std::vector<std::uint8_t> &&frame) {
        doneAt[seq].store(pb::nowNs(), std::memory_order_relaxed);
        if (frame.size() > 4 &&
            frame[4] == static_cast<std::uint8_t>(serve::ReplyOpcode::Error))
            errors.fetch_add(1, std::memory_order_relaxed);
    });

    // Ticker: the daemon's tick timer, back to back when a tick
    // runs longer; snapshots on the same thread, as the daemon's onTick.
    std::vector<double> tickMs, snapshotMs;
    std::jthread ticker([&](std::stop_token stop) {
        std::mutex mu;
        std::condition_variable cv;
        while (!stop.stop_requested()) {
            const std::int64_t t0 = pb::nowNs();
            bool finished = false;
            core.tickAsync([&] {
                const std::lock_guard<std::mutex> lock(mu);
                finished = true;
                cv.notify_one();
            });
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return finished; });
            }
            tickMs.push_back(static_cast<double>(pb::nowNs() - t0) / 1e6);
            if (persist && core.epoch() % shape.snapshotTicks == 0) {
                const std::int64_t s0 = pb::nowNs();
                (void)persist->snapshotAll(core);
                snapshotMs.push_back(static_cast<double>(pb::nowNs() - s0) /
                                     1e6);
            }
            const std::int64_t next =
                t0 + static_cast<std::int64_t>(shape.tickMs) * 1000000;
            while (pb::nowNs() < next && !stop.stop_requested())
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    // The socket run's schedule, one stream per open-loop connection,
    // replayed at the same rate from this thread.
    std::vector<std::vector<std::uint8_t>> joined(
        w.openConns, std::vector<std::uint8_t>(w.markets, 0));
    std::vector<std::uint64_t> opIndex(w.openConns, 0);
    const std::string churnApp = churnAppFor(seed);
    std::vector<double> readNs;
    std::vector<std::uint64_t> writeSeqs;
    std::size_t pendingMax = 0;
    serve::AllocationReply reply;
    serve::ErrorReply err;
    std::vector<std::uint8_t> payload;
    const double periodNs = 1e9 / w.rate;
    const std::int64_t start = pb::nowNs();
    for (std::uint64_t k = 0; k < total; ++k) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(static_cast<double>(k) *
                                              periodNs);
        while (pb::nowNs() < due) {
        }
        const std::size_t c = k % w.openConns;
        const ScheduledOp op = scheduleOp(w, streamKey(seed, c), opIndex[c]++,
                                          joined[c], w.players + c);
        if (op.cls == kRead) {
            const std::int64_t t0 = pb::nowNs();
            const bool ok =
                core.readAllocation(serve::GetAllocation{op.market}, reply,
                                    err);
            readNs.push_back(static_cast<double>(pb::nowNs() - t0));
            if (!ok)
                errors.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        payload.clear();
        serve::encodeRequestPayload(toRequest(op, churnApp), payload);
        submitAt[k] = pb::nowNs();
        writeSeqs.push_back(k);
        core.submitFrame(op.market, std::move(payload), 0, k);
        payload = {};
        pendingMax = std::max(pendingMax, core.pendingOps());
    }
    const std::int64_t drainEnd = pb::nowNs() + 10000000000LL;
    while (core.pendingOps() != 0 && pb::nowNs() < drainEnd)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ticker.request_stop();
    ticker.join();
    core.setJournal(nullptr);

    std::vector<double> sojournUs;
    std::uint64_t unanswered = 0;
    for (const std::uint64_t k : writeSeqs) {
        const std::int64_t d = doneAt[k].load(std::memory_order_relaxed);
        if (d == 0) {
            ++unanswered;
            continue;
        }
        sojournUs.push_back(static_cast<double>(d - submitAt[k]) / 1e3);
    }

    pb::JsonLine out;
    reportLatency(out, "read_ns", readNs);
    reportLatency(out, "sojourn_us", sojournUs);
    reportLatency(out, "tick_ms", tickMs);
    out.integer("pending_ops_max", static_cast<std::int64_t>(pendingMax));
    out.integer("errors", static_cast<std::int64_t>(errors.load()));
    out.integer("unanswered", static_cast<std::int64_t>(unanswered));
    std::int64_t steadyAllocs = 0;
    std::int64_t steadyTicks = 0;
    util::SolverStats solver;
    for (std::size_t s = 0; s < core.shardCount(); ++s) {
        steadyAllocs += core.shard(s).counters().steadyTickAllocs;
        steadyTicks += core.shard(s).counters().steadyTicks;
        solver.merge(core.shard(s).solverStats());
    }
    out.integer("steady_tick_allocs", steadyAllocs);
    out.integer("steady_ticks", steadyTicks);
    out.integer("fail_safe_trips", solver.failSafeTrips);
    out.integer("fallback_epochs", solver.fallbackEpochs);
    if (journal) {
        reportLatency(out, "journal_ns", journal->samples());
        out.integer("journal_ops",
                    static_cast<std::int64_t>(journal->samples().size()));
        out.integer("journal_bytes",
                    static_cast<std::int64_t>(journal->bytes()));
        std::vector<double> snaps = snapshotMs;
        out.integer("snapshots", static_cast<std::int64_t>(snaps.size()));
        out.num("snapshot_p50_ms",
                snaps.empty() ? 0.0 : pb::percentile(snaps, 0.5));
        out.num("snapshot_max_ms",
                snaps.empty() ? 0.0
                              : *std::max_element(snaps.begin(), snaps.end()));
        std::uint64_t bytes = 0;
        for (std::size_t s = 0; s < config.shards; ++s) {
            std::error_code ec;
            const auto sz = std::filesystem::file_size(persist->snapPath(s), ec);
            if (!ec)
                bytes += sz;
        }
        out.integer("snapshot_bytes", static_cast<std::int64_t>(bytes));
    }
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    std::string socketPath, workload, stateDir;
    DaemonShape shape;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false, setupOnly = false, inproc = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        auto number = [&](std::uint64_t max) {
            const auto v = util::parseUnsigned(value(), max);
            if (!v.ok())
                util::fatal("%s: %s", arg.c_str(),
                            v.status().message().c_str());
            return v.value();
        };
        if (arg == "--socket")
            socketPath = value();
        else if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = number(~0ull);
        else if (arg == "--seconds")
            seconds = [&] {
                const auto v = util::parseDouble(value());
                if (!v.ok() || !(v.value() > 0.0 && v.value() <= 3600.0))
                    util::fatal("--seconds: want a number in (0, 3600]");
                return v.value();
            }();
        else if (arg == "--trace")
            trace = number(1) == 1;
        else if (arg == "--setup-only")
            setupOnly = true;
        else if (arg == "--inproc")
            inproc = true;
        else if (arg == "--state-dir")
            stateDir = value();
        else if (arg == "--shards")
            shape.shards = std::max<std::size_t>(1, number(1u << 12));
        else if (arg == "--jobs")
            shape.jobs = static_cast<unsigned>(number(256));
        else if (arg == "--tick-ms")
            shape.tickMs = number(3600u * 1000u);
        else if (arg == "--snapshot-ticks")
            shape.snapshotTicks = std::max<std::uint64_t>(1, number(1u << 30));
        else
            util::fatal("unknown argument '%s'", arg.c_str());
    }
    const Workload w = workloadByName(workload);
    if (inproc)
        return runInProcess(w, seed, seconds, stateDir, shape);
    if (socketPath.empty())
        util::fatal("--socket PATH or --inproc is required");
    return runSocket(w, seed, seconds, trace, setupOnly, socketPath);
}
