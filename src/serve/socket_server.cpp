#include "rebudget/serve/socket_server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "rebudget/serve/protocol.h"
#include "rebudget/util/logging.h"

namespace rebudget::serve {

namespace {

/** Bound on the shutdown drain: after this many milliseconds the loop
 * exits even with requests still in flight. */
constexpr std::int64_t kDrainMs = 5000;

/**
 * Per-connection state: incremental decoder, reply sequencer and the
 * outbound frame queue.
 *
 * Every complete request frame is assigned the connection's next
 * sequence number on arrival.  Replies can complete out of order --
 * reads are answered inline on the I/O thread while writes come back
 * from shard workers -- so a reply whose predecessors are still
 * outstanding parks in `held` until the contiguous prefix catches up,
 * and only then moves to `sendq`.  The wire therefore always carries
 * replies in request order, exactly like the old serial loop.
 */
struct Connection
{
    int fd = -1;
    /** Stable identity for completion routing (fds get recycled). */
    std::uint64_t id = 0;
    FrameReader reader;
    /** Next sequence number to assign to an incoming frame. */
    std::uint64_t seqNext = 0;
    /** Next sequence number allowed to enter sendq. */
    std::uint64_t seqReady = 0;
    /** Out-of-order completions waiting for their predecessors. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> held;
    /** In-order encoded reply frames awaiting the socket. */
    std::deque<std::vector<std::uint8_t>> sendq;
    /** Bytes of sendq.front() already written. */
    std::size_t sendoff = 0;
    /** Deliver every outstanding reply, then close (framing broke or
     * shutdown ack). */
    bool closeAfterFlush = false;

    bool wantsWrite() const { return !sendq.empty(); }
    /** True once every assigned request has been replied and sent. */
    bool drained() const
    {
        return sendq.empty() && held.empty() && seqReady == seqNext;
    }
};

/** A reply (or tick completion) crossing back to the I/O thread. */
struct Completion
{
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> frame;
    /** An async epoch tick finished (frame/conn/seq unused). */
    bool tickDone = false;
};

util::SolveStatus
sysError(const char *what)
{
    return util::SolveStatus::error(util::StatusCode::Aborted, "%s: %s",
                                    what, std::strerror(errno));
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Append a reply frame in sequence order (see Connection). */
void
enqueueReply(Connection &conn, std::uint64_t seq,
             std::vector<std::uint8_t> &&frame)
{
    if (seq != conn.seqReady) {
        conn.held.emplace(seq, std::move(frame));
        return;
    }
    conn.sendq.push_back(std::move(frame));
    conn.seqReady += 1;
    auto it = conn.held.begin();
    while (it != conn.held.end() && it->first == conn.seqReady) {
        conn.sendq.push_back(std::move(it->second));
        conn.seqReady += 1;
        it = conn.held.erase(it);
    }
}

/** Little-endian u64 at @p p (market id inside a raw payload). */
std::uint64_t
peekU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/**
 * Flush as much of the connection's send queue as the socket accepts:
 * one sendmsg() gathers up to kIovBatch queued frames (the writev
 * coalescing -- one syscall per connection per round instead of one
 * per reply).  A short write leaves the remainder queued; sendoff
 * remembers the partial frame so the next round resumes mid-frame.
 * Returns false when the connection died.
 */
bool
flushConnection(Connection &conn)
{
    constexpr int kIovBatch = 64;
    while (conn.wantsWrite()) {
        iovec iov[kIovBatch];
        int niov = 0;
        std::size_t off = conn.sendoff;
        for (const std::vector<std::uint8_t> &buf : conn.sendq) {
            if (niov == kIovBatch)
                break;
            iov[niov].iov_base =
                const_cast<std::uint8_t *>(buf.data()) + off;
            iov[niov].iov_len = buf.size() - off;
            off = 0;
            ++niov;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(niov);
        const ssize_t wrote = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // kernel buffer full; poll for POLLOUT
            return false;
        }
        std::size_t left = static_cast<std::size_t>(wrote) + conn.sendoff;
        while (!conn.sendq.empty() &&
               left >= conn.sendq.front().size()) {
            left -= conn.sendq.front().size();
            conn.sendq.pop_front();
        }
        conn.sendoff = left;
    }
    return true;
}

} // namespace

util::SolveStatus
SocketServer::run()
{
    int listen_fd = -1;
    bool unlink_on_exit = false;
    if (!options_.socketPath.empty()) {
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd < 0)
            return sysError("socket(AF_UNIX)");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
            ::close(listen_fd);
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "socket path too long: %s",
                options_.socketPath.c_str());
        }
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.socketPath.c_str());
        if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(listen_fd);
            return sysError("bind(unix socket)");
        }
        unlink_on_exit = true;
    } else {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0)
            return sysError("socket(AF_INET)");
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(options_.port);
        if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(listen_fd);
            return sysError("bind(loopback tcp)");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            bound_port_ = ntohs(bound.sin_port);
    }
    if (::listen(listen_fd, 64) != 0 || !setNonBlocking(listen_fd)) {
        const util::SolveStatus st = sysError("listen");
        ::close(listen_fd);
        if (unlink_on_exit)
            ::unlink(options_.socketPath.c_str());
        return st;
    }
    const int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd < 0) {
        ::close(listen_fd);
        if (unlink_on_exit)
            ::unlink(options_.socketPath.c_str());
        return sysError("eventfd");
    }

    // Completion queue: shard workers (reply sink, tick-done) post
    // here and kick the eventfd; the poll loop drains both.
    std::mutex cq_mutex;
    std::vector<Completion> cq;
    auto post = [&](Completion c) {
        {
            const std::lock_guard<std::mutex> lock(cq_mutex);
            cq.push_back(std::move(c));
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(event_fd, &one, sizeof(one));
    };
    core_.setReplySink([&post](std::uint64_t conn, std::uint64_t seq,
                               std::vector<std::uint8_t> &&frame) {
        post(Completion{conn, seq, std::move(frame), false});
    });

    std::vector<std::unique_ptr<Connection>> conns;
    std::map<std::uint64_t, Connection *> conn_by_id;
    std::uint64_t next_conn_id = 1;
    std::vector<pollfd> fds;
    std::vector<Completion> completions;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> scratch;
    AllocationReply alloc_reply;
    std::uint8_t rdbuf[64 * 1024];
    bool shutting_down = false;
    std::uint64_t timer_ticks = 0;
    std::int64_t next_tick =
        options_.tickMs > 0 ? nowMs() + options_.tickMs : 0;
    util::SolveStatus exit_status;

    // Async tick state.  A TickNow does not solve until every write
    // already accepted into the shard queues has applied (so the
    // classic demand -> TickNow -> GetAllocation pipeline keeps its
    // meaning), and only one epoch runs at a time; requesters that
    // arrive while an epoch is in flight are acked by the next one.
    // Per-connection reply order is always strict because acks go
    // through the sequencer.
    bool tick_in_flight = false;
    std::atomic<std::uint64_t> async_ticks_pending{0};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tick_waiters;
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
        tick_waiters_inflight;
    auto startTick = [&] {
        tick_in_flight = true;
        async_ticks_pending.fetch_add(1, std::memory_order_relaxed);
        core_.tickAsync([&] {
            async_ticks_pending.fetch_sub(1, std::memory_order_release);
            post(Completion{0, 0, {}, true});
        });
    };
    auto maybeStartTick = [&] {
        if (!tick_in_flight && !tick_waiters.empty() &&
            core_.pendingOps() == 0) {
            tick_waiters_inflight.swap(tick_waiters);
            startTick();
        }
    };

    auto encodeInto = [&](const Response &resp) {
        scratch.clear();
        encodeResponse(resp, scratch);
        std::vector<std::uint8_t> frame = std::move(scratch);
        scratch = {};
        return frame;
    };

    /** Route one complete frame.  Mutating market ops go to the shard
     * queues raw -- the I/O thread never decodes them, never touches
     * market state.  Reads are answered inline from the lock-free
     * snapshot path.  Control ops are handled here. */
    auto processFrame = [&](Connection &conn) {
        const std::uint64_t seq = conn.seqNext++;
        const std::uint8_t op = payload.empty() ? 0 : payload[0];
        if (op >= static_cast<std::uint8_t>(Opcode::CreateMarket) &&
            op <= static_cast<std::uint8_t>(Opcode::LeaveTenant) &&
            payload.size() >= 9) {
            const std::uint64_t market = peekU64(payload.data() + 1);
            core_.submitFrame(market, std::move(payload), conn.id, seq);
            payload = {};
            return;
        }
        if (op == static_cast<std::uint8_t>(Opcode::GetAllocation) &&
            payload.size() == 9) {
            GetAllocation req;
            req.market = peekU64(payload.data() + 1);
            ErrorReply err;
            if (core_.readAllocation(req, alloc_reply, err))
                enqueueReply(conn, seq, encodeInto(alloc_reply));
            else
                enqueueReply(conn, seq, encodeInto(err));
            return;
        }
        if (op == static_cast<std::uint8_t>(Opcode::GetStats) &&
            payload.size() == 1) {
            enqueueReply(conn, seq,
                         encodeInto(StatsReply{core_.statsJson()}));
            return;
        }
        if (op == static_cast<std::uint8_t>(Opcode::Shutdown) &&
            payload.size() == 1) {
            enqueueReply(conn, seq, encodeInto(AckReply{}));
            shutting_down = true;
            conn.closeAfterFlush = true;
            return;
        }
        if (op == static_cast<std::uint8_t>(Opcode::TickNow) &&
            payload.size() == 1) {
            tick_waiters.emplace_back(conn.id, seq);
            maybeStartTick();
            return;
        }
        // Unknown opcode or malformed shape: let the strict decoder
        // name the defect; the reply is a typed error either way and
        // the connection stays open.
        const auto req = decodeRequest(payload.data(), payload.size());
        ErrorReply e;
        if (req.ok()) {
            e.code = util::StatusCode::InvalidArgument;
            e.message = "request rejected by transport";
        } else {
            e.code = req.status().code();
            e.message = req.status().message();
        }
        enqueueReply(conn, seq, encodeInto(e));
    };

    auto closeConn = [&](Connection &conn) {
        if (conn.fd >= 0) {
            ::close(conn.fd);
            conn.fd = -1;
        }
        conn_by_id.erase(conn.id);
    };

    std::int64_t drain_deadline = 0;
    while (true) {
        // Graded stop: the first signal starts a graceful drain (stop
        // accepting, finish queued writes and ticks, flush replies);
        // the second exits now.  The drain itself is bounded so a dead
        // peer or wedged solve cannot hold the daemon open.
        const int stops = stop_.load(std::memory_order_relaxed);
        if (stops >= 2)
            break;
        if (stops == 1)
            shutting_down = true;
        if (shutting_down && drain_deadline == 0)
            drain_deadline = nowMs() + kDrainMs;
        if (drain_deadline != 0 && nowMs() >= drain_deadline)
            break;
        if (shutting_down) {
            // Leave once every accepted request has been applied,
            // replied and flushed -- or its connection has died.
            bool pending =
                core_.pendingOps() != 0 ||
                async_ticks_pending.load(std::memory_order_acquire) != 0;
            for (const auto &conn : conns)
                pending = pending || !conn->drained();
            {
                const std::lock_guard<std::mutex> lock(cq_mutex);
                pending = pending || !cq.empty();
            }
            if (!pending)
                break;
        }

        fds.clear();
        fds.push_back({listen_fd, POLLIN, 0});
        fds.push_back({event_fd, POLLIN, 0});
        for (const auto &conn : conns) {
            short events = POLLIN;
            if (conn->wantsWrite())
                events |= POLLOUT;
            fds.push_back({conn->fd, events, 0});
        }

        int timeout = -1;
        if (options_.tickMs > 0 && !shutting_down) {
            const std::int64_t wait = next_tick - nowMs();
            timeout = wait < 0 ? 0
                               : static_cast<int>(
                                     wait > 60000 ? 60000 : wait);
        } else if (shutting_down) {
            timeout = 100; // just draining; don't hang on a dead peer
        }

        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()),
                                 timeout);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            exit_status = sysError("poll");
            break;
        }

        // Timer tick: start an epoch asynchronously.  If the previous
        // epoch is still solving, skip this period entirely (overrun
        // skip) instead of queueing a burst of catch-up ticks.
        if (options_.tickMs > 0 && !shutting_down &&
            nowMs() >= next_tick) {
            if (!tick_in_flight) {
                startTick();
                timer_ticks += 1;
                if (options_.maxTicks > 0 &&
                    timer_ticks >= options_.maxTicks)
                    shutting_down = true;
            }
            next_tick += options_.tickMs;
            if (next_tick <= nowMs())
                next_tick = nowMs() + options_.tickMs;
        }

        // Completions from shard workers (replies, tick-done).
        if ((fds[1].revents & POLLIN) != 0) {
            std::uint64_t drain = 0;
            while (::read(event_fd, &drain, sizeof(drain)) > 0) {
            }
        }
        completions.clear();
        {
            const std::lock_guard<std::mutex> lock(cq_mutex);
            completions.swap(cq);
        }
        for (Completion &c : completions) {
            if (c.tickDone) {
                for (const auto &[cid, seq] : tick_waiters_inflight) {
                    const auto it = conn_by_id.find(cid);
                    if (it != conn_by_id.end())
                        enqueueReply(*it->second, seq,
                                     encodeInto(AckReply{}));
                }
                tick_waiters_inflight.clear();
                tick_in_flight = false;
                // No tick is in flight here, so the hook sees a
                // quiescent epoch counter (the snapshot trigger).
                if (options_.onTick)
                    options_.onTick(core_.epoch());
                continue;
            }
            const auto it = conn_by_id.find(c.conn);
            if (it == conn_by_id.end())
                continue; // connection died with ops in flight
            enqueueReply(*it->second, c.seq, std::move(c.frame));
        }
        // Writes may have just drained; a deferred TickNow can go now.
        maybeStartTick();

        // New connections (drain the accept queue).
        if ((fds[0].revents & POLLIN) != 0 && !shutting_down) {
            for (;;) {
                const int fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd < 0)
                    break;
                if (!setNonBlocking(fd)) {
                    ::close(fd);
                    continue;
                }
                auto conn = std::make_unique<Connection>();
                conn->fd = fd;
                conn->id = next_conn_id++;
                conn_by_id.emplace(conn->id, conn.get());
                conns.push_back(std::move(conn));
            }
        }

        // Existing connections (fds[i+2] mirrors conns[i]; both lists
        // were built together above, so indices line up even though
        // accept() grew conns afterwards -- the new entries simply
        // have no pollfd yet this round).
        const std::size_t polled =
            fds.size() >= 2 ? fds.size() - 2 : 0;
        for (std::size_t i = 0; i < polled && i < conns.size(); ++i) {
            Connection &conn = *conns[i];
            if (conn.fd < 0)
                continue;
            const short revents = fds[i + 2].revents;

            if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                // Drain the socket: keep reading until EAGAIN so one
                // wakeup consumes every buffered frame, then process
                // them all in a batch.
                bool dead = false;
                for (;;) {
                    const ssize_t got =
                        ::recv(conn.fd, rdbuf, sizeof(rdbuf), 0);
                    if (got > 0) {
                        conn.reader.feed(
                            rdbuf, static_cast<std::size_t>(got));
                        while (!conn.closeAfterFlush) {
                            const FrameReader::Result r =
                                conn.reader.next(payload);
                            if (r == FrameReader::Result::NeedMore)
                                break;
                            if (r == FrameReader::Result::Error) {
                                // Framing broke: answer once, then
                                // drop the connection (the stream
                                // position is untrustworthy).
                                ErrorReply err;
                                err.code =
                                    util::StatusCode::InvalidArgument;
                                err.message = conn.reader.error();
                                enqueueReply(conn, conn.seqNext++,
                                             encodeInto(err));
                                conn.closeAfterFlush = true;
                                break;
                            }
                            processFrame(conn);
                        }
                        continue;
                    }
                    if (got == 0) {
                        if (conn.reader.midFrame()) {
                            util::warn(
                                "serve: connection closed mid-frame; "
                                "dropping partial frame");
                        }
                        dead = true;
                    } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                               errno != EINTR) {
                        dead = true;
                    }
                    break;
                }
                if (dead) {
                    closeConn(conn);
                    continue;
                }
            }

            // Flush opportunistically: freshly enqueued inline replies
            // go out this round without waiting for another poll.
            if (conn.wantsWrite() && !flushConnection(conn)) {
                closeConn(conn);
                continue;
            }
            if (conn.closeAfterFlush && conn.drained())
                closeConn(conn);
        }

        // Reap closed connections.
        for (std::size_t i = 0; i < conns.size();) {
            if (conns[i]->fd < 0)
                conns.erase(conns.begin() +
                            static_cast<std::ptrdiff_t>(i));
            else
                ++i;
        }
    }

    // Outstanding shard work still references this frame's completion
    // queue through the reply sink; let it finish before tearing down.
    while (core_.pendingOps() != 0 ||
           async_ticks_pending.load(std::memory_order_acquire) != 0) {
        struct timespec ts = {0, 1000000}; // 1 ms
        ::nanosleep(&ts, nullptr);
    }
    core_.setReplySink(nullptr);

    for (const auto &conn : conns) {
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    ::close(event_fd);
    ::close(listen_fd);
    if (unlink_on_exit)
        ::unlink(options_.socketPath.c_str());
    return exit_status;
}

} // namespace rebudget::serve
