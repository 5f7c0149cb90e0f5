/**
 * @file
 * serve::Client against hand-rolled peers: a silent listener trips the
 * reply deadline on time, a peer that hangs up mid-reply and a missing
 * socket are typed errors, and bytes past one reply frame are kept for
 * the next receive().
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "rebudget/serve/client.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

/** A listening Unix socket in a fresh temp dir: the fake daemon. */
struct FakeServer
{
    FakeServer()
    {
        char tmpl[] = "/tmp/rebudget_client_test_XXXXXX";
        dir = ::mkdtemp(tmpl) ? tmpl : "";
        path = dir + "/d.sock";
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_EQ(
            ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
            0);
        EXPECT_EQ(::listen(fd, 4), 0);
    }

    ~FakeServer()
    {
        ::close(fd);
        ::unlink(path.c_str());
        ::rmdir(dir.c_str());
    }

    /** Accept one client, take its (one-segment) request, answer with
     * @p bytes and hang up. */
    std::thread answerOnce(std::vector<std::uint8_t> bytes) const
    {
        return std::thread([this, bytes] {
            const int conn = ::accept(fd, nullptr, nullptr);
            std::uint8_t buf[256];
            EXPECT_GT(::recv(conn, buf, sizeof(buf), 0), 0);
            EXPECT_EQ(::send(conn, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                      static_cast<ssize_t>(bytes.size()));
            ::close(conn);
        });
    }

    std::string dir;
    std::string path;
    int fd = -1;
};

} // namespace

TEST(Client, SilentPeerTripsTheReplyDeadline)
{
    // The connection sits in the listen backlog, never answered.
    FakeServer server;
    Client client;
    ASSERT_TRUE(client.connect(server.path, 0).ok());
    const auto start = std::chrono::steady_clock::now();
    const auto resp = client.call(GetStats{}, 200);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), util::StatusCode::Aborted);
    EXPECT_NE(resp.status().message().find("timed out after 200 ms"),
              std::string::npos);
    EXPECT_GE(elapsed, std::chrono::milliseconds(190));
    EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(Client, PeerClosingMidReplyIsATypedError)
{
    FakeServer server;
    // Announce a 64-byte reply, deliver 3 bytes of it, hang up.
    std::thread peer = server.answerOnce({64, 0, 0, 0, 0x84, '{', '}'});
    Client client;
    ASSERT_TRUE(client.connect(server.path, 0).ok());
    const auto resp = client.call(GetStats{}, 10000);
    peer.join();
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), util::StatusCode::Aborted);
    EXPECT_NE(resp.status().message().find("closed the connection"),
              std::string::npos);
    // The dead peer fails the next call too, without SIGPIPE.
    EXPECT_FALSE(client.call(GetStats{}, 1000).ok());
}

TEST(Client, MissingSocketIsAConnectError)
{
    FakeServer server;
    const std::string missing = server.path + ".absent";
    Client client;
    const util::SolveStatus status = client.connect(missing, 0);
    EXPECT_EQ(status.code(), util::StatusCode::FailedPrecondition);
    EXPECT_NE(status.message().find("connect(" + missing + ")"),
              std::string::npos);
    EXPECT_EQ(client.fd(), -1);
    EXPECT_FALSE(client.call(GetStats{}).ok());
    EXPECT_EQ(client.connect(std::string(200, 'x'), 0).code(),
              util::StatusCode::InvalidArgument);
}

TEST(Client, BytesPastOneReplyWaitForTheNextReceive)
{
    FakeServer server;
    std::vector<std::uint8_t> both; // two replies in one write
    encodeResponse(AckReply{}, both);
    encodeResponse(StatsReply{"{}"}, both);
    std::thread peer = server.answerOnce(both);
    Client client;
    ASSERT_TRUE(client.connect(server.path, 0).ok());
    const auto first = client.call(TickNow{}, 10000);
    const auto second = client.receive(10000);
    peer.join();
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_TRUE(std::holds_alternative<AckReply>(first.value()));
    const auto *stats = std::get_if<StatsReply>(&second.value());
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->json, "{}");
}
