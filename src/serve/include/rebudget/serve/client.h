#ifndef REBUDGET_SERVE_CLIENT_H_
#define REBUDGET_SERVE_CLIENT_H_

/**
 * @file
 * Blocking rebudgetd client: one connection over a Unix-domain socket
 * or loopback TCP, one framed request at a time.
 *
 * Every failure -- connect, send, a reply deadline, a peer that hangs
 * up mid-reply, a frame that does not decode -- comes back as a typed
 * util::SolveStatus; nothing here calls util::fatal, so a caller
 * decides whether a dead daemon ends the process (rebudgetctl) or is
 * an assertion (the socket tests).  Sends use MSG_NOSIGNAL, so a peer
 * that died turns into an error instead of SIGPIPE.
 *
 * The frame reader lives as long as the connection: bytes that arrive
 * past one reply stay buffered for the next receive().
 */

#include <cstdint>
#include <string>
#include <vector>

#include "rebudget/serve/protocol.h"
#include "rebudget/util/status.h"

namespace rebudget::serve {

/** One blocking connection to rebudgetd. */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to the Unix socket at @p socketPath, or, when it is
     * empty, to loopback TCP @p port.  Closes any previous connection.
     */
    util::SolveStatus connect(const std::string &socketPath,
                              std::uint16_t port);

    /** Send @p req and wait for its reply (see receive()). */
    util::Expected<Response> call(const Request &req,
                                  std::uint32_t timeoutMs = 0);

    /**
     * Wait for the next reply frame.  @p timeoutMs bounds the whole
     * wait (0 = no deadline); expiry is an Aborted error naming the
     * deadline.
     */
    util::Expected<Response> receive(std::uint32_t timeoutMs = 0);

    /** @return the connected socket, or -1.  The client still owns it. */
    int fd() const { return fd_; }

    /** Close the connection (idempotent). */
    void close();

  private:
    int fd_ = -1;
    FrameReader reader_;
    std::vector<std::uint8_t> frame_;
    std::vector<std::uint8_t> payload_;
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_CLIENT_H_
