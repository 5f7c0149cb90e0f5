#include "rebudget/serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rebudget::serve {

namespace {

util::SolveStatus
failure(util::StatusCode code, const std::string &what)
{
    return util::SolveStatus::error(code, "%s", what.c_str());
}

} // namespace

Client::~Client() { close(); }

Client::Client(Client &&other) noexcept { *this = std::move(other); }

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        reader_ = std::move(other.reader_);
    }
    return *this;
}

void
Client::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    reader_ = FrameReader{};
}

util::SolveStatus
Client::connect(const std::string &socketPath, std::uint16_t port)
{
    close();
    sockaddr_un un{};
    sockaddr_in in{};
    const sockaddr *addr = reinterpret_cast<const sockaddr *>(&in);
    socklen_t len = sizeof(in);
    std::string name = "port " + std::to_string(port);
    if (!socketPath.empty()) {
        if (socketPath.size() >= sizeof(un.sun_path)) {
            return failure(util::StatusCode::InvalidArgument,
                           "socket path too long: " + socketPath);
        }
        un.sun_family = AF_UNIX;
        std::memcpy(un.sun_path, socketPath.data(), socketPath.size());
        addr = reinterpret_cast<const sockaddr *>(&un);
        len = sizeof(un);
        name = socketPath;
    } else {
        in.sin_family = AF_INET;
        in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        in.sin_port = htons(port);
    }
    const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, addr, len) != 0) {
        const util::SolveStatus status =
            failure(util::StatusCode::FailedPrecondition,
                    "connect(" + name + "): " + std::strerror(errno));
        if (fd >= 0)
            ::close(fd);
        return status;
    }
    fd_ = fd;
    return {};
}

util::Expected<Response>
Client::call(const Request &req, std::uint32_t timeoutMs)
{
    frame_.clear();
    encodeRequest(req, frame_);
    for (std::size_t sent = 0; fd_ >= 0 && sent < frame_.size();) {
        const ssize_t n = ::send(fd_, frame_.data() + sent,
                                 frame_.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno != EINTR) {
            return failure(util::StatusCode::Aborted,
                           std::string("send: ") + std::strerror(errno) +
                               " (daemon gone?)");
        }
        sent += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    return receive(timeoutMs);
}

util::Expected<Response>
Client::receive(std::uint32_t timeoutMs)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    std::uint8_t buf[64 * 1024];
    for (;;) {
        const FrameReader::Result r = reader_.next(payload_);
        if (r == FrameReader::Result::Frame)
            return decodeResponse(payload_.data(), payload_.size());
        if (r == FrameReader::Result::Error)
            return failure(util::StatusCode::InvalidArgument,
                           reader_.error());
        if (fd_ < 0)
            return failure(util::StatusCode::FailedPrecondition,
                           "not connected");
        if (timeoutMs != 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            pollfd pfd{fd_, POLLIN, 0};
            const int wait =
                static_cast<int>(std::clamp<decltype(left)>(left, 0, INT_MAX));
            const int rc = wait > 0 ? ::poll(&pfd, 1, wait) : 0;
            if (rc == 0) {
                return failure(util::StatusCode::Aborted,
                               "timed out after " +
                                   std::to_string(timeoutMs) +
                                   " ms waiting for the reply");
            }
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc < 0)
                return failure(util::StatusCode::Aborted,
                               std::string("poll: ") + std::strerror(errno));
        }
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0)
            return failure(util::StatusCode::Aborted,
                           "server closed the connection mid-reply");
        if (n < 0 && errno != EINTR)
            return failure(util::StatusCode::Aborted,
                           std::string("recv: ") + std::strerror(errno));
        if (n > 0)
            reader_.feed(buf, static_cast<std::size_t>(n));
    }
}

} // namespace rebudget::serve
