#include "service/server.h"

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
#include <utility>

namespace simdx::service {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

wire::RejectCode RejectCodeFor(AdmissionVerdict v) {
  switch (v) {
    case AdmissionVerdict::kAdmitted:
      break;  // not a reject; callers never map this
    case AdmissionVerdict::kShedQueueFull:
      return wire::RejectCode::kShedQueueFull;
    case AdmissionVerdict::kShedDeadline:
      return wire::RejectCode::kShedDeadline;
    case AdmissionVerdict::kRejectedInvalid:
      return wire::RejectCode::kInvalidQuery;
  }
  return wire::RejectCode::kInvalidQuery;
}

std::chrono::steady_clock::duration MsDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

SocketServer::SocketServer(GraphService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    CloseFd(uds_listen_fd_);
    CloseFd(tcp_listen_fd_);
    CloseFd(wake_pipe_[0]);
    CloseFd(wake_pipe_[1]);
    return false;
  };
  if (started_) {
    if (error != nullptr) {
      *error = "already started";
    }
    return false;
  }
  if (options_.uds_path.empty() && !options_.tcp) {
    if (error != nullptr) {
      *error = "no listener configured (set uds_path and/or tcp)";
    }
    return false;
  }

  if (::pipe(wake_pipe_) != 0) {
    return fail("pipe");
  }
  SetNonBlocking(wake_pipe_[0]);

  if (!options_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      errno = ENAMETOOLONG;
      return fail("uds path");
    }
    std::strncpy(addr.sun_path, options_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    uds_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (uds_listen_fd_ < 0) {
      return fail("uds socket");
    }
    ::unlink(options_.uds_path.c_str());  // stale path from a dead server
    if (::bind(uds_listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return fail("uds bind");
    }
    if (::listen(uds_listen_fd_, 64) != 0) {
      return fail("uds listen");
    }
    SetNonBlocking(uds_listen_fd_);
  }

  if (options_.tcp) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) {
      return fail("tcp socket");
    }
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return fail("tcp bind");
    }
    if (::listen(tcp_listen_fd_, 64) != 0) {
      return fail("tcp listen");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return fail("tcp getsockname");
    }
    resolved_tcp_port_ = ntohs(bound.sin_port);
    SetNonBlocking(tcp_listen_fd_);
  }

  stopping_.store(false, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_relaxed);
  drain_clean_.store(true, std::memory_order_relaxed);
  loop_ = std::thread([this] { Loop(); });
  started_ = true;
  return true;
}

void SocketServer::Cleanup() {
  for (auto& conn : connections_) {
    CloseFd(conn->fd);
  }
  connections_.clear();
  CloseFd(uds_listen_fd_);
  CloseFd(tcp_listen_fd_);
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
  if (!options_.uds_path.empty()) {
    ::unlink(options_.uds_path.c_str());
  }
  started_ = false;
}

void SocketServer::Stop() {
  if (!started_) {
    return;
  }
  stopping_.store(true, std::memory_order_relaxed);
  const char byte = 0;
  // A full pipe already guarantees a wakeup; ignore the short write.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  loop_.join();
  Cleanup();
}

bool SocketServer::Drain(double deadline_ms) {
  if (!started_) {
    return true;
  }
  const auto deadline = Clock::now() + MsDuration(deadline_ms);
  drain_deadline_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline.time_since_epoch())
          .count(),
      std::memory_order_release);
  drain_clean_.store(true, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  loop_.join();
  Cleanup();
  return drain_clean_.load(std::memory_order_acquire);
}

ServerStats SocketServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void SocketServer::EnqueueReject(Connection& conn, uint64_t request_id,
                                 wire::RejectCode code,
                                 const std::string& detail) {
  wire::RejectFrame reject;
  reject.request_id = request_id;
  reject.code = static_cast<uint8_t>(code);
  reject.detail = detail;
  wire::EncodeReject(reject, &conn.out);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.rejects;
}

void SocketServer::HandleRequest(Connection& conn,
                                 const wire::RequestFrame& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  if (stopping_.load(std::memory_order_relaxed) ||
      draining_.load(std::memory_order_relaxed)) {
    EnqueueReject(conn, req.request_id, wire::RejectCode::kServerStopping,
                  "server stopping");
    return;
  }
  // Per-connection pipeline cap: the global admission queue is shared — one
  // connection streaming requests without reading answers must hit ITS
  // limit, not everyone's.
  if (options_.max_pipeline > 0 &&
      conn.pending.size() >= options_.max_pipeline) {
    EnqueueReject(conn, req.request_id, wire::RejectCode::kPipelineFull,
                  "per-connection pipeline cap reached");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.pipeline_rejects;
    return;
  }
  Query query;
  // The kind byte crosses un-checked by design: admission owns range policy
  // (service.cc bound-guards before any per-kind array index) and answers
  // out-of-range kinds with kRejectedInvalid — which maps right back to a
  // typed reject below. The codec only vouched for structure.
  query.kind = static_cast<QueryKind>(req.kind);
  query.source = req.source;
  query.k = req.k;
  // RELATIVE on the wire; GraphService::Submit converts to its own absolute
  // steady-clock domain at admission. The server must NOT convert here —
  // doing so would re-introduce the cross-clock-domain bug the wire
  // contract exists to prevent.
  query.deadline_ms = req.deadline_rel_ms;
  query.max_attempts = req.max_attempts;
  query.want_values = req.want_values != 0;

  GraphService::Ticket ticket = service_.Submit(query);
  if (ticket.verdict != AdmissionVerdict::kAdmitted) {
    EnqueueReject(conn, req.request_id, RejectCodeFor(ticket.verdict),
                  ToString(ticket.verdict));
    return;
  }
  PendingReply pending;
  pending.request_id = req.request_id;
  pending.kind = req.kind;
  pending.want_values = req.want_values != 0;
  pending.future = std::move(ticket.result);
  conn.pending.push_back(std::move(pending));
}

void SocketServer::HandleReadable(Connection& conn) {
  uint8_t buf[64 * 1024];
  bool got_bytes = false;
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.decoder.Feed(buf, static_cast<size_t>(n));
      got_bytes = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_rx += static_cast<uint64_t>(n);
      if (static_cast<size_t>(n) == sizeof(buf)) {
        continue;  // more may be waiting; drain before decoding
      }
      break;
    }
    if (n == 0) {
      conn.closing = true;  // peer closed; flush whatever we owe, then close
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    conn.closing = true;  // hard error: retire the connection
    break;
  }
  if (got_bytes) {
    conn.last_rx = Clock::now();
  }

  // Drain every complete frame the new bytes finished. A fatal status
  // rejects once and marks the connection closing; the decoder stays
  // poisoned so no further frame can be conjured from a desynced stream.
  while (true) {
    wire::Frame frame;
    const wire::DecodeStatus status = conn.decoder.Next(&frame);
    if (status == wire::DecodeStatus::kNeedMore) {
      break;
    }
    if (status == wire::DecodeStatus::kOk) {
      if (frame.type == wire::MsgType::kRequest) {
        HandleRequest(conn, frame.request);
      } else {
        // Structurally valid but nonsensical on the server side of the
        // protocol: answered like any other recoverable decode error.
        EnqueueReject(conn, 0, wire::RejectCode::kMalformedBody,
                      std::string("unexpected ") + ToString(frame.type) +
                          " frame on a request stream");
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.decode_errors;
      }
      continue;
    }
    const bool fatal = wire::IsFatal(status);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.decode_errors;
      if (fatal) {
        ++stats_.fatal_decode_errors;
      }
    }
    EnqueueReject(conn, 0,
                  fatal ? wire::RejectCode::kBadFrame
                        : wire::RejectCode::kMalformedBody,
                  ToString(status));
    if (fatal) {
      conn.closing = true;  // reject flushes first; no new frames decode
      break;
    }
  }

  // Partial-frame clock for the slow-loris bound: starts when a partial
  // first appears, survives further trickle (more bytes do NOT reset it),
  // clears only when the frame completes.
  if (conn.decoder.buffered() > 0) {
    if (!conn.mid_frame) {
      conn.mid_frame = true;
      conn.partial_since = Clock::now();
    }
  } else {
    conn.mid_frame = false;
  }
}

// The per-iteration timeout police: idle reap, slow-loris reject, slow-reader
// abort. Ordering matters — the header timeout answers with a typed reject
// (the peer is TALKING, just too slowly), the idle and slow-reader closes
// are abrupt (there is nobody listening worth answering).
void SocketServer::EnforceLifecycle(Connection& conn, Clock::time_point now) {
  if (conn.closing || conn.aborted) {
    return;
  }
  if (options_.header_timeout_ms > 0 && conn.mid_frame &&
      now - conn.partial_since > MsDuration(options_.header_timeout_ms)) {
    EnqueueReject(conn, 0, wire::RejectCode::kTimedOut,
                  "partial frame exceeded header timeout");
    conn.closing = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.header_timeout_closed;
    return;
  }
  if (options_.idle_timeout_ms > 0 && conn.pending.empty() &&
      conn.out.empty() && !conn.mid_frame &&
      now - conn.last_rx > MsDuration(options_.idle_timeout_ms)) {
    conn.aborted = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.idle_closed;
    return;
  }
  if (options_.max_outbuf_bytes > 0) {
    const size_t backlog = conn.out.size() - conn.out_pos;
    if (backlog > options_.max_outbuf_bytes) {
      if (!conn.outbuf_over) {
        conn.outbuf_over = true;
        conn.outbuf_over_since = now;
      } else if (now - conn.outbuf_over_since >
                 MsDuration(options_.write_stall_timeout_ms)) {
        conn.aborted = true;  // flow control failed; the peer is not reading
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.slow_reader_closed;
      }
    } else {
      conn.outbuf_over = false;
    }
  }
}

void SocketServer::PollPending(Connection& conn) {
  for (size_t i = 0; i < conn.pending.size();) {
    PendingReply& p = conn.pending[i];
    if (p.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const QueryResult r = p.future.get();
    wire::ResponseFrame resp;
    resp.request_id = p.request_id;
    resp.kind = p.kind;
    resp.outcome = static_cast<uint8_t>(r.outcome);
    resp.served = static_cast<uint8_t>(r.served);
    resp.attempts = r.attempts;
    resp.queue_ms = r.queue_ms;
    resp.run_ms = r.run_ms;
    resp.value_fingerprint = r.value_fingerprint;
    if (p.want_values) {
      resp.value_bytes = r.value_bytes;
    }
    wire::EncodeResponse(resp, &conn.out);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses;
      if (draining_.load(std::memory_order_relaxed)) {
        ++stats_.drained_replies;
      }
    }
    conn.pending.erase(conn.pending.begin() + static_cast<ptrdiff_t>(i));
  }
}

void SocketServer::FlushWrites(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that closed between our accept and this write
    // must cost an errno, never a SIGPIPE through the whole process.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_tx += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // kernel buffer full; POLLOUT resumes us
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.broken_pipe_writes;
    }
    conn.closing = true;  // peer gone mid-write
    conn.out_pos = conn.out.size();
    break;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
}

void SocketServer::CloseConnection(Connection& conn) {
  CloseFd(conn.fd);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.closed;
}

void SocketServer::Loop() {
  std::vector<pollfd> fds;
  bool stop_seen = false;
  Clock::time_point stop_since;
  while (true) {
    const bool stop = stopping_.load(std::memory_order_relaxed);
    const bool draining = draining_.load(std::memory_order_relaxed);
    const auto now = Clock::now();
    if (stop && !stop_seen) {
      stop_seen = true;
      stop_since = now;
    }
    if (stop) {
      // Every connection drains (pending replies resolve, owed frames
      // flush) and then closes; a peer that stops reading gets a bounded
      // grace, not a hung shutdown.
      const bool grace_over = now - stop_since > std::chrono::seconds(2);
      for (auto& conn : connections_) {
        conn->closing = true;
        if (grace_over) {
          conn->pending.clear();
          conn->out.clear();
          conn->out_pos = 0;
        }
      }
    } else if (draining) {
      // Drain: connections KEEP reading (so a request sent mid-drain gets
      // its kServerStopping reject, not an EOF), but one that owes nothing
      // closes now. Past the deadline the stragglers are cut loose.
      const auto deadline = Clock::time_point(std::chrono::duration_cast<
          Clock::duration>(std::chrono::nanoseconds(
          drain_deadline_ns_.load(std::memory_order_acquire))));
      const bool deadline_over = now > deadline;
      for (auto& conn : connections_) {
        if (conn->pending.empty() && conn->out.empty()) {
          conn->closing = true;
        } else if (deadline_over) {
          if (!conn->pending.empty()) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            stats_.drain_dropped += conn->pending.size();
          }
          conn->pending.clear();
          conn->out.clear();
          conn->out_pos = 0;
          conn->closing = true;
          drain_clean_.store(false, std::memory_order_release);
        }
      }
    }

    // Resolve futures first so their frames join this cycle's write flush;
    // then let the timeout police look at what is left.
    bool any_pending = false;
    for (auto& conn : connections_) {
      PollPending(*conn);
      if (!conn->out.empty()) {
        FlushWrites(*conn);
      }
      EnforceLifecycle(*conn, now);
      any_pending = any_pending || !conn->pending.empty();
    }

    // Retire connections that are done: flagged closing with nothing left
    // to flush (and no reply that could still want the socket), or aborted
    // outright by the lifecycle police.
    for (size_t i = 0; i < connections_.size();) {
      Connection& conn = *connections_[i];
      if (conn.aborted ||
          (conn.closing && conn.out.empty() && conn.pending.empty()) ||
          conn.fd < 0) {
        CloseConnection(conn);
        connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if ((stop || draining) && connections_.empty()) {
      return;
    }

    fds.clear();
    const size_t wake_idx = fds.size();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    size_t uds_idx = SIZE_MAX;
    size_t tcp_idx = SIZE_MAX;
    const bool accepting = !stop && !draining;
    if (accepting && uds_listen_fd_ >= 0) {
      uds_idx = fds.size();
      fds.push_back({uds_listen_fd_, POLLIN, 0});
    }
    if (accepting && tcp_listen_fd_ >= 0) {
      tcp_idx = fds.size();
      fds.push_back({tcp_listen_fd_, POLLIN, 0});
    }
    const size_t conn_base = fds.size();
    for (auto& conn : connections_) {
      short events = 0;
      // Read-side flow control: a connection whose outbound backlog is over
      // the cap gets no POLLIN — it cannot create new work until it drains
      // what it already owes. (POLLERR/POLLHUP are always reported.)
      if (!conn->outbuf_over) {
        events |= POLLIN;
      }
      if (!conn->out.empty()) {
        events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    // While replies are pending the loop wakes briskly (futures resolve in
    // GraphService worker threads and have no way to poke the poll);
    // otherwise it parks until traffic or the stop pipe arrives — clamped
    // to 20 ms whenever lifecycle timers could fire, so a timeout is acted
    // on at most that late.
    int timeout_ms = (stop || draining || any_pending) ? options_.busy_poll_ms
                                                       : 100;
    const bool timers_armed =
        !connections_.empty() &&
        (options_.idle_timeout_ms > 0 || options_.header_timeout_ms > 0 ||
         options_.max_outbuf_bytes > 0);
    if (timers_armed && timeout_ms > 20) {
      timeout_ms = 20;
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      return;  // poll itself failed; nothing sane left to do
    }
    if (rc <= 0) {
      continue;
    }

    if (fds[wake_idx].revents & POLLIN) {
      char drain_buf[64];
      while (::read(wake_pipe_[0], drain_buf, sizeof(drain_buf)) > 0) {
      }
    }
    for (const size_t idx : {uds_idx, tcp_idx}) {
      if (idx == SIZE_MAX || !(fds[idx].revents & POLLIN)) {
        continue;
      }
      while (true) {
        const int cfd = ::accept(fds[idx].fd, nullptr, nullptr);
        if (cfd < 0) {
          break;  // EAGAIN (drained) or transient error: next poll retries
        }
        if (connections_.size() >= options_.max_connections) {
          ::close(cfd);
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.overflow_closed;
          continue;
        }
        SetNonBlocking(cfd);
        if (options_.sndbuf_bytes > 0) {
          ::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                       sizeof(options_.sndbuf_bytes));
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = cfd;
        conn->last_rx = Clock::now();
        connections_.push_back(std::move(conn));
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.accepted;
      }
    }
    for (size_t i = 0; i < connections_.size(); ++i) {
      const size_t idx = conn_base + i;
      if (idx >= fds.size() || fds[idx].fd != connections_[i]->fd) {
        break;  // connection set changed shape; re-poll
      }
      const short revents = fds[idx].revents;
      Connection& conn = *connections_[i];
      if (revents & (POLLERR | POLLNVAL)) {
        conn.closing = true;
      }
      // POLLHUP alone is NOT a close: a peer that shut down its write side
      // may still be reading our replies. The read loop below sees its EOF
      // and flags closing once the bytes agree.
      if ((revents & (POLLIN | POLLHUP)) && !conn.closing &&
          !conn.outbuf_over) {
        HandleReadable(conn);
      }
      if ((revents & POLLOUT) || !conn.out.empty()) {
        FlushWrites(conn);
      }
    }
  }
}

}  // namespace simdx::service
