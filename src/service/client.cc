#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

namespace simdx::service {

namespace {

using Clock = std::chrono::steady_clock;

void SetError(std::string* error, const std::string& what, bool with_errno) {
  if (error != nullptr) {
    *error = with_errno ? what + ": " + std::strerror(errno) : what;
  }
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Deadline for one operation: budget_ms <= 0 means unbounded.
Clock::time_point DeadlineFor(double budget_ms) {
  if (budget_ms <= 0.0) {
    return Clock::time_point::max();
  }
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(budget_ms));
}

// Polls fd for `events` until `deadline`. 1 = ready, 0 = timed out,
// -1 = poll error (errno set).
int PollUntil(int fd, short events, Clock::time_point deadline) {
  while (true) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        return 0;
      }
      timeout_ms = static_cast<int>(std::min<int64_t>(left.count(), 60000));
    }
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) {
      return 1;  // readable/writable OR error condition; the I/O call decides
    }
    if (rc == 0) {
      if (deadline == Clock::time_point::max()) {
        continue;  // unbounded: keep parking
      }
      if (Clock::now() >= deadline) {
        return 0;
      }
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    return -1;
  }
}

}  // namespace

const char* ToString(ClientStatus s) {
  switch (s) {
    case ClientStatus::kOk:
      return "ok";
    case ClientStatus::kConnectFailed:
      return "connect-failed";
    case ClientStatus::kNotConnected:
      return "not-connected";
    case ClientStatus::kSendFailed:
      return "send-failed";
    case ClientStatus::kRecvFailed:
      return "recv-failed";
    case ClientStatus::kDecodeFailed:
      return "decode-failed";
    case ClientStatus::kProtocolError:
      return "protocol-error";
    case ClientStatus::kTimedOut:
      return "timed-out";
  }
  return "?";
}

BlockingClient::~BlockingClient() { Close(); }

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = wire::FrameDecoder();
}

// Non-blocking connect() completion: wait for writability within the connect
// budget, then read the socket's final verdict from SO_ERROR.
ClientStatus BlockingClient::FinishConnect(const std::string& what,
                                           std::string* error) {
  const int pr = PollUntil(fd_, POLLOUT, DeadlineFor(timeouts_.connect_ms));
  if (pr == 0) {
    SetError(error, what + ": connect timed out", false);
    Close();
    return ClientStatus::kTimedOut;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (pr < 0 ||
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    SetError(error, what, true);
    Close();
    return ClientStatus::kConnectFailed;
  }
  if (so_error != 0) {
    errno = so_error;
    SetError(error, what, true);
    Close();
    return ClientStatus::kConnectFailed;
  }
  return ClientStatus::kOk;
}

ClientStatus BlockingClient::ConnectUds(const std::string& path,
                                        std::string* error) {
  Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    SetError(error, "uds path", true);
    return ClientStatus::kConnectFailed;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    SetError(error, "socket", true);
    return ClientStatus::kConnectFailed;
  }
  SetNonBlocking(fd_);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    // A UDS connect with a full backlog fails EAGAIN immediately (there is
    // no in-progress state to poll for) — that IS the typed answer.
    if (errno != EINPROGRESS) {
      SetError(error, "connect " + path, true);
      Close();
      return ClientStatus::kConnectFailed;
    }
    return FinishConnect("connect " + path, error);
  }
  return ClientStatus::kOk;
}

ClientStatus BlockingClient::ConnectTcp(const std::string& host, uint16_t port,
                                        std::string* error) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    SetError(error, "bad address " + host, false);
    return ClientStatus::kConnectFailed;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    SetError(error, "socket", true);
    return ClientStatus::kConnectFailed;
  }
  SetNonBlocking(fd_);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      SetError(error, "connect " + host, true);
      Close();
      return ClientStatus::kConnectFailed;
    }
    return FinishConnect("connect " + host, error);
  }
  return ClientStatus::kOk;
}

ClientStatus BlockingClient::SendRaw(const void* data, size_t size,
                                     std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected", false);
    return ClientStatus::kNotConnected;
  }
  const auto deadline = DeadlineFor(timeouts_.send_ms);
  const auto* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a server that closed mid-request is an EPIPE result,
    // never a SIGPIPE — same discipline as the dispatch loop's writes.
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int pr = PollUntil(fd_, POLLOUT, deadline);
      if (pr == 0) {
        SetError(error, "send timed out", false);
        return ClientStatus::kTimedOut;
      }
      if (pr < 0) {
        SetError(error, "poll", true);
        return ClientStatus::kSendFailed;
      }
      continue;
    }
    SetError(error, "send", true);
    return ClientStatus::kSendFailed;
  }
  return ClientStatus::kOk;
}

ClientStatus BlockingClient::ReadFrame(wire::Frame* reply, std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected", false);
    return ClientStatus::kNotConnected;
  }
  // One budget for the WHOLE frame: a server trickling bytes cannot reset
  // the clock per read, so a stalled reply converges to kTimedOut.
  const auto deadline = DeadlineFor(timeouts_.recv_ms);
  uint8_t buf[16 * 1024];
  while (true) {
    const wire::DecodeStatus status = decoder_.Next(reply);
    if (status == wire::DecodeStatus::kOk) {
      return ClientStatus::kOk;
    }
    if (status != wire::DecodeStatus::kNeedMore) {
      SetError(error, std::string("decode: ") + ToString(status), false);
      return ClientStatus::kDecodeFailed;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      SetError(error, "server closed the connection", false);
      return ClientStatus::kRecvFailed;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int pr = PollUntil(fd_, POLLIN, deadline);
      if (pr == 0) {
        SetError(error, "recv timed out", false);
        return ClientStatus::kTimedOut;
      }
      if (pr < 0) {
        SetError(error, "poll", true);
        return ClientStatus::kRecvFailed;
      }
      continue;
    }
    SetError(error, "read", true);
    return ClientStatus::kRecvFailed;
  }
}

ClientStatus BlockingClient::Call(wire::RequestFrame request,
                                  wire::Frame* reply, std::string* error) {
  if (request.request_id == 0) {
    request.request_id = next_request_id_++;
  }
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(request, &bytes);
  const ClientStatus sent = SendRaw(bytes.data(), bytes.size(), error);
  if (sent != ClientStatus::kOk) {
    return sent;
  }
  const ClientStatus got = ReadFrame(reply, error);
  if (got != ClientStatus::kOk) {
    return got;
  }
  const uint64_t echoed = reply->type == wire::MsgType::kResponse
                              ? reply->response.request_id
                              : reply->type == wire::MsgType::kReject
                                    ? reply->reject.request_id
                                    : 0;
  // A reject for a header-level error carries request_id 0 (the server
  // never identified a request) — with one outstanding call it can only be
  // ours, so accept it; anything else that mismatches is a protocol bug.
  if (reply->type == wire::MsgType::kRequest ||
      (echoed != request.request_id && echoed != 0)) {
    SetError(error, "reply correlates to a different request", false);
    return ClientStatus::kProtocolError;
  }
  return ClientStatus::kOk;
}

wire::RequestFrame ToRequestFrame(const Query& query) {
  wire::RequestFrame f;
  f.kind = static_cast<uint8_t>(query.kind);
  f.source = query.source;
  f.k = query.k;
  f.deadline_rel_ms = query.deadline_ms;  // relative stays relative
  f.max_attempts = query.max_attempts;
  f.want_values = query.want_values ? 1 : 0;
  return f;
}

}  // namespace simdx::service
