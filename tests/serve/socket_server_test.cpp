/**
 * @file
 * serve::SocketServer failure semantics over real sockets:
 *  - complete-but-malformed frames (unknown opcode) get a typed
 *    ErrorReply and the connection survives;
 *  - an oversized declared frame length gets an ErrorReply and then
 *    the connection is dropped;
 *  - a mid-frame disconnect is absorbed;
 *  - none of the above disturbs other connections or hosted markets;
 *  - a protocol Shutdown cleanly stops the serve loop.
 *
 * Every test boots its own daemon on a Unix-domain socket in a temp
 * directory (two on ephemeral loopback TCP) and always stops it via
 * the protocol, so the poll loop exercises its drain path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "rebudget/serve/client.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/serve/socket_server.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

/** Bounds every reply wait, so a wedged server fails the test instead
 * of hanging it. */
constexpr std::uint32_t kReplyTimeoutMs = 30000;

/** Unwrap a client result; a transport error fails the test and reads
 * as an ErrorReply, which every caller's reply-kind check rejects. */
Response
unwrap(const util::Expected<Response> &resp)
{
    EXPECT_TRUE(resp.ok()) << resp.status().toString();
    if (!resp.ok())
        return ErrorReply{resp.status().code(), resp.status().message()};
    return resp.value();
}

Response
roundTrip(Client &client, const Request &req)
{
    return unwrap(client.call(req, kReplyTimeoutMs));
}

/** Write raw bytes on a connection (rogue frames). */
void
sendAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
        sent += static_cast<std::size_t>(n);
    }
}

/** @return true once recv sees EOF (server dropped the conn). */
bool
waitForClose(int fd)
{
    std::uint8_t buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0)
            return true;
        if (n < 0)
            return false;
    }
}

/** One daemon on a Unix socket (or ephemeral loopback TCP), torn
 * down via protocol Shutdown. */
class TestServer
{
  public:
    explicit TestServer(bool tcp = false)
    {
        ServeConfig config;
        config.shards = 2;
        config.jobs = 1;
        config.market.maxIterations = 200;
        core_ = std::make_unique<ServerCore>(config);
        SocketServerOptions options;
        options.tickMs = 0; // ticks only via TickNow
        if (!tcp) {
            char tmpl[] = "/tmp/rebudget_serve_test_XXXXXX";
            dir_ = ::mkdtemp(tmpl) ? tmpl : "";
            path_ = dir_ + "/d.sock";
            options.socketPath = path_;
        }
        server_ = std::make_unique<SocketServer>(*core_, options);
        thread_ = std::thread([this] { result_ = server_->run(); });
        // Ready once the socket file exists or the port is bound.
        struct stat st{};
        for (int i = 0; i < 200; ++i) {
            port_ = server_->boundPort();
            if (tcp ? port_ != 0 : ::stat(path_.c_str(), &st) == 0)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ADD_FAILURE() << "daemon never bound";
    }

    ~TestServer()
    {
        if (thread_.joinable()) {
            // Belt and braces: tests normally Shutdown via protocol.
            server_->requestStop();
            connect().close(); // wake the poll loop
            thread_.join();
        }
        if (!dir_.empty()) {
            ::unlink(path_.c_str());
            ::rmdir(dir_.c_str());
        }
    }

    /** @return the bound TCP port (TCP servers only). */
    std::uint16_t port() const { return port_; }

    /** @return a connected client (a failed connect fails the test). */
    Client connect() const
    {
        Client client;
        const util::SolveStatus status = client.connect(path_, port_);
        EXPECT_TRUE(status.ok()) << status.toString();
        return client;
    }

    void shutdownViaProtocol()
    {
        Client client = connect();
        EXPECT_TRUE(
            std::holds_alternative<AckReply>(roundTrip(client, Shutdown{})));
        client.close();
        thread_.join();
        EXPECT_TRUE(result_.ok()) << result_.toString();
    }

  private:
    std::string dir_;
    std::string path_;
    std::uint16_t port_ = 0;
    std::unique_ptr<ServerCore> core_;
    std::unique_ptr<SocketServer> server_;
    std::thread thread_;
    util::SolveStatus result_;
};

CreateMarket
smallMarket(std::uint64_t id)
{
    CreateMarket req;
    req.market = id;
    req.tenants.push_back({0, "mcf"});
    req.tenants.push_back({1, "hmmer"});
    return req;
}

} // namespace

TEST(SocketServer, RoundTripOverUnixSocket)
{
    TestServer server;
    Client client = server.connect();

    EXPECT_TRUE(std::holds_alternative<AckReply>(
        roundTrip(client, smallMarket(1))));
    EXPECT_TRUE(
        std::holds_alternative<AckReply>(roundTrip(client, TickNow{})));

    const Response resp = roundTrip(client, GetAllocation{1});
    const auto *alloc = std::get_if<AllocationReply>(&resp);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->market, 1u);
    EXPECT_EQ(alloc->players.size(), 2u);

    client.close();
    server.shutdownViaProtocol();
}

TEST(SocketServer, UnknownOpcodeGetsTypedErrorAndConnectionSurvives)
{
    TestServer server;
    Client client = server.connect();

    // A complete frame whose payload is one unknown opcode byte.
    const std::uint8_t frame[] = {1, 0, 0, 0, 0x7f};
    sendAll(client.fd(), frame, sizeof(frame));
    const Response resp = unwrap(client.receive(kReplyTimeoutMs));
    const auto *err = std::get_if<ErrorReply>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, util::StatusCode::InvalidArgument);

    // Same connection must still serve valid requests.
    EXPECT_TRUE(std::holds_alternative<AckReply>(
        roundTrip(client, smallMarket(2))));

    client.close();
    server.shutdownViaProtocol();
}

TEST(SocketServer, OversizedFrameDropsOnlyThatConnection)
{
    TestServer server;
    Client healthy = server.connect();
    Client rogue = server.connect();

    // Set up state through the healthy connection first.
    EXPECT_TRUE(std::holds_alternative<AckReply>(
        roundTrip(healthy, smallMarket(3))));

    // Rogue declares a payload over the 1 MiB cap: expect a typed
    // error back and then EOF -- the stream cannot be trusted.
    const std::uint32_t declared = kMaxFramePayload + 1;
    std::uint8_t prefix[4];
    for (int i = 0; i < 4; ++i)
        prefix[i] = static_cast<std::uint8_t>(declared >> (8 * i));
    sendAll(rogue.fd(), prefix, sizeof(prefix));
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(
        unwrap(rogue.receive(kReplyTimeoutMs))));
    EXPECT_TRUE(waitForClose(rogue.fd()));
    rogue.close();

    // The healthy connection and its market are untouched.
    roundTrip(healthy, TickNow{});
    EXPECT_TRUE(std::holds_alternative<AllocationReply>(
        roundTrip(healthy, GetAllocation{3})));

    healthy.close();
    server.shutdownViaProtocol();
}

TEST(SocketServer, MidFrameDisconnectIsAbsorbed)
{
    TestServer server;
    Client client = server.connect();

    // Announce an 80-byte payload, deliver 3 bytes, hang up.
    const std::uint8_t partial[] = {80, 0, 0, 0, 0x01, 0x02, 0x03};
    sendAll(client.fd(), partial, sizeof(partial));
    client.close();

    // The server must keep accepting and serving.
    Client again = server.connect();
    EXPECT_TRUE(std::holds_alternative<AckReply>(
        roundTrip(again, smallMarket(4))));
    again.close();

    server.shutdownViaProtocol();
}

TEST(SocketServer, StatsOverTheWire)
{
    TestServer server;
    Client client = server.connect();
    const Response resp = roundTrip(client, GetStats{});
    const auto *stats = std::get_if<StatsReply>(&resp);
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->json.find("rebudget.serve_stats.v1"),
              std::string::npos);
    client.close();
    server.shutdownViaProtocol();
}

TEST(SocketServer, TinySendWindowBuffersPendingReplies)
{
    // Regression for the transport's short-write handling: a client
    // with a tiny receive window pipelines many large (GetStats)
    // requests without reading, so the server's coalesced sendmsg hits
    // EAGAIN repeatedly and must buffer the remainder per connection
    // -- while other connections keep round-tripping.  Every reply
    // must eventually arrive intact, in order, with nothing truncated
    // or duplicated.
    TestServer server(/*tcp=*/true);
    Client brisk = server.connect();
    for (std::uint64_t m = 0; m < 8; ++m) {
        ASSERT_TRUE(std::holds_alternative<AckReply>(
            roundTrip(brisk, smallMarket(m))));
    }

    // The slow peer needs its receive buffer set before connect, so the
    // window is negotiated small; the kernel clamps to its floor, which
    // is still far below one burst of stats replies.
    const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(slow, 0);
    const int rcvbuf = 1024;
    EXPECT_EQ(::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(slow, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    constexpr int kPipelined = 120;
    {
        std::vector<std::uint8_t> frame;
        encodeRequest(GetStats{}, frame);
        std::vector<std::uint8_t> burst;
        for (int i = 0; i < kPipelined; ++i)
            burst.insert(burst.end(), frame.begin(), frame.end());
        sendAll(slow, burst.data(), burst.size());
    }
    // Give the server time to answer far more than one window's worth,
    // so replies are definitely parked in the connection's send queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // A backed-up peer must not wedge the loop for anyone else.
    EXPECT_TRUE(
        std::holds_alternative<AckReply>(roundTrip(brisk, TickNow{})));
    EXPECT_TRUE(std::holds_alternative<AllocationReply>(
        roundTrip(brisk, GetAllocation{3})));

    // Now drain the slow connection: every pipelined reply arrives
    // whole.  One FrameReader persists across the whole stream (a
    // fresh reader per reply would discard read-ahead bytes), and
    // periodic pauses keep the window collapsing so the server's
    // POLLOUT resume path runs more than once.
    {
        FrameReader reader;
        std::vector<std::uint8_t> payload;
        std::uint8_t buf[4096];
        int got = 0;
        while (got < kPipelined) {
            const auto r = reader.next(payload);
            if (r == FrameReader::Result::Frame) {
                const auto decoded =
                    decodeResponse(payload.data(), payload.size());
                ASSERT_TRUE(decoded.ok())
                    << "reply " << got << ": "
                    << decoded.status().toString();
                const auto *stats =
                    std::get_if<StatsReply>(&decoded.value());
                ASSERT_NE(stats, nullptr) << "reply " << got;
                EXPECT_NE(stats->json.find("rebudget.serve_stats.v1"),
                          std::string::npos);
                ++got;
                if (got % 16 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                continue;
            }
            ASSERT_NE(r, FrameReader::Result::Error)
                << "framing broke after " << got << " replies: "
                << reader.error();
            const ssize_t n = ::recv(slow, buf, sizeof(buf), 0);
            ASSERT_GT(n, 0) << "EOF/error after " << got << " replies";
            reader.feed(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(slow);

    brisk.close();
    server.shutdownViaProtocol();
}

TEST(SocketServer, LoopbackTcpWithEphemeralPort)
{
    TestServer server(/*tcp=*/true); // kernel picks; boundPort() reports
    ASSERT_NE(server.port(), 0);
    Client client = server.connect();
    EXPECT_TRUE(std::holds_alternative<AckReply>(
        roundTrip(client, smallMarket(9))));
    client.close();
    server.shutdownViaProtocol();
}
