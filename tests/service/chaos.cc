#include "tests/service/chaos.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

namespace simdx::service {

namespace {

using Clock = std::chrono::steady_clock;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

void AppendTerm(std::ostringstream& os, const char* name, double p, double ms,
                bool has_ms) {
  os << "," << name << "@p=" << p;
  if (has_ms) {
    os << ":ms=" << ms;
  }
}

}  // namespace

std::string ChaosSpec::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (delay_p > 0) AppendTerm(os, "delay", delay_p, delay_ms, true);
  if (split_p > 0) AppendTerm(os, "split", split_p, 0, false);
  if (stall_p > 0) AppendTerm(os, "stall", stall_p, stall_ms, true);
  if (dup_p > 0) AppendTerm(os, "dup", dup_p, 0, false);
  if (drop_p > 0) AppendTerm(os, "drop", drop_p, 0, false);
  if (reset_p > 0) AppendTerm(os, "reset", reset_p, 0, false);
  return os.str();
}

bool ChaosSpec::Parse(const std::string& spec, ChaosSpec* out,
                      std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  ChaosSpec parsed;
  std::vector<std::string> seen;
  size_t at = 0;
  while (at <= spec.size()) {
    const size_t comma = std::min(spec.find(',', at), spec.size());
    const std::string term = spec.substr(at, comma - at);
    at = comma + 1;
    if (term.empty()) {
      return fail("empty term");
    }
    std::string name;
    double p = 0.0;
    double ms = 0.0;
    bool has_ms = false;
    if (term.rfind("seed=", 0) == 0) {
      name = "seed";
      if (!ParseU64(term.substr(5), &parsed.seed)) {
        return fail("bad seed in '" + term + "'");
      }
    } else {
      const size_t atp = term.find("@p=");
      if (atp == std::string::npos) {
        return fail("expected name@p=... in '" + term + "'");
      }
      name = term.substr(0, atp);
      std::string rest = term.substr(atp + 3);
      const size_t colon = rest.find(":ms=");
      if (colon != std::string::npos) {
        has_ms = true;
        if (!ParseDouble(rest.substr(colon + 4), &ms) || ms < 0.0) {
          return fail("bad ms in '" + term + "'");
        }
        rest = rest.substr(0, colon);
      }
      if (!ParseDouble(rest, &p) || p < 0.0 || p > 1.0) {
        return fail("bad probability in '" + term + "' (want [0,1])");
      }
      if (name == "delay") {
        parsed.delay_p = p;
        if (has_ms) parsed.delay_ms = ms;
      } else if (name == "stall") {
        parsed.stall_p = p;
        if (has_ms) parsed.stall_ms = ms;
      } else if (name == "split" || name == "dup" || name == "drop" ||
                 name == "reset") {
        if (has_ms) {
          return fail("'" + name + "' takes no ms parameter");
        }
        if (name == "split") parsed.split_p = p;
        if (name == "dup") parsed.dup_p = p;
        if (name == "drop") parsed.drop_p = p;
        if (name == "reset") parsed.reset_p = p;
      } else {
        return fail("unknown fault '" + name + "'");
      }
    }
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
      return fail("duplicate term '" + name + "'");
    }
    seen.push_back(name);
    if (comma == spec.size()) {
      break;
    }
  }
  if (seen.empty()) {
    return fail("empty spec");
  }
  *out = parsed;
  return true;
}

ChaosSpec ChaosSpec::Default() {
  ChaosSpec s;
  s.seed = 1;
  s.delay_p = 0.08;
  s.delay_ms = 2.0;
  s.split_p = 0.25;
  s.stall_p = 0.03;
  s.stall_ms = 15.0;
  s.dup_p = 0.03;
  s.drop_p = 0.03;
  s.reset_p = 0.02;
  return s;
}

ChaosSpec ChaosSpec::Scaled(double factor) const {
  auto clamp = [](double p) { return std::min(1.0, std::max(0.0, p)); };
  ChaosSpec s = *this;
  s.delay_p = clamp(s.delay_p * factor);
  s.split_p = clamp(s.split_p * factor);
  s.stall_p = clamp(s.stall_p * factor);
  s.dup_p = clamp(s.dup_p * factor);
  s.drop_p = clamp(s.drop_p * factor);
  s.reset_p = clamp(s.reset_p * factor);
  return s;
}

// ---------------------------------------------------------------------------
// Proxy internals.

namespace {

struct Chunk {
  std::vector<uint8_t> bytes;
  Clock::time_point due;  // not forwarded before this instant
};

// One direction of a link: bytes read from `src` queue here until written
// to `sink`. The queue preserves order — faults reorder NOTHING; they only
// delay, duplicate, split, or destroy.
struct Pipe {
  std::deque<Chunk> q;
  Clock::time_point stall_until = Clock::time_point::min();
  bool eof = false;   // src reached EOF; propagate after the queue drains
  bool shut = false;  // SHUT_WR delivered to sink
};

}  // namespace

struct ChaosProxy::Link {
  int cfd = -1;  // client side
  int bfd = -1;  // backend (real server) side
  Pipe c2b;      // client -> backend
  Pipe b2c;      // backend -> client
  bool dead = false;
};

ChaosProxy::ChaosProxy(ChaosSpec spec, std::string listen_uds,
                       std::string backend_uds)
    : spec_(spec),
      listen_uds_(std::move(listen_uds)),
      backend_uds_(std::move(backend_uds)) {}

ChaosProxy::~ChaosProxy() { Stop(); }

bool ChaosProxy::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (listen_uds_.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return fail("uds path");
  }
  std::strncpy(addr.sun_path, listen_uds_.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(listen_uds_.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail("socket");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + listen_uds_);
  }
  if (::listen(listen_fd_, 64) != 0) {
    return fail("listen");
  }
  SetNonBlocking(listen_fd_);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail("pipe");
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  SetNonBlocking(wake_rd_);
  SetNonBlocking(wake_wr_);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void ChaosProxy::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (wake_wr_ >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  for (int* fd : {&listen_fd_, &wake_rd_, &wake_wr_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  ::unlink(listen_uds_.c_str());
  running_.store(false, std::memory_order_release);
}

void ChaosProxy::CloseLink(Link& link) {
  if (link.cfd >= 0) {
    ::close(link.cfd);
    link.cfd = -1;
  }
  if (link.bfd >= 0) {
    ::close(link.bfd);
    link.bfd = -1;
  }
  link.c2b.q.clear();
  link.b2c.q.clear();
  link.dead = true;
}

void ChaosProxy::Loop() {
  std::mt19937_64 rng(spec_.seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<Link> links;

  // Reads a chunk's worth from `src`, runs the fault draws, queues the
  // survivors onto `pipe`. Returns false when the LINK must die (reset
  // fault or a hard socket error).
  auto ingest = [&](Link& link, int src, Pipe& pipe) -> bool {
    uint8_t buf[4096];  // small on purpose: more chunks, more fault rolls
    const ssize_t n = ::read(src, buf, sizeof(buf));
    if (n == 0) {
      pipe.eof = true;
      return true;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      return false;  // ECONNRESET and friends: the link is gone
    }
    stats_.bytes_in += static_cast<uint64_t>(n);
    ++stats_.chunks;
    // Fixed draw ORDER (reset, drop, dup, split, delay, stall) so a given
    // seed yields the same decision stream for the same arrival pattern.
    const bool reset = u01(rng) < spec_.reset_p;
    const bool drop = u01(rng) < spec_.drop_p;
    const bool dup = u01(rng) < spec_.dup_p;
    const bool split = u01(rng) < spec_.split_p;
    const bool delay = u01(rng) < spec_.delay_p;
    const bool stall = u01(rng) < spec_.stall_p;
    if (reset) {
      ++stats_.resets;
      return false;
    }
    if (drop) {
      ++stats_.drops;
      return true;  // the bytes simply never happened
    }
    const auto now = Clock::now();
    auto due = now;
    if (delay) {
      ++stats_.delays;
      due = now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(spec_.delay_ms));
    }
    if (stall) {
      ++stats_.stalls;
      pipe.stall_until =
          std::max(pipe.stall_until,
                   now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 spec_.stall_ms)));
    }
    std::vector<uint8_t> data(buf, buf + n);
    size_t cut = data.size();
    if (split && data.size() > 1) {
      ++stats_.splits;
      cut = 1 + static_cast<size_t>(u01(rng) *
                                    static_cast<double>(data.size() - 1));
    }
    auto enqueue = [&](std::vector<uint8_t> bytes) {
      if (!bytes.empty()) {
        pipe.q.push_back(Chunk{std::move(bytes), due});
      }
    };
    enqueue(std::vector<uint8_t>(data.begin(), data.begin() + cut));
    enqueue(std::vector<uint8_t>(data.begin() + cut, data.end()));
    if (dup) {
      ++stats_.dups;
      enqueue(std::vector<uint8_t>(data.begin(), data.begin() + cut));
      enqueue(std::vector<uint8_t>(data.begin() + cut, data.end()));
    }
    return true;
  };

  // Writes due chunks to `sink`; propagates EOF once drained. Returns false
  // when the link must die (EPIPE on a half-closed peer).
  auto flush = [&](Pipe& pipe, int sink, Clock::time_point now) -> bool {
    if (pipe.stall_until > now) {
      return true;
    }
    while (!pipe.q.empty()) {
      Chunk& front = pipe.q.front();
      if (front.due > now) {
        break;
      }
      const ssize_t n =
          ::send(sink, front.bytes.data(), front.bytes.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return true;  // POLLOUT will bring us back
        }
        return false;
      }
      stats_.bytes_out += static_cast<uint64_t>(n);
      if (static_cast<size_t>(n) < front.bytes.size()) {
        front.bytes.erase(front.bytes.begin(), front.bytes.begin() + n);
        return true;
      }
      pipe.q.pop_front();
    }
    if (pipe.eof && pipe.q.empty() && !pipe.shut) {
      ::shutdown(sink, SHUT_WR);
      pipe.shut = true;
    }
    return true;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Poll set: wake pipe, listener, then both fds of every live link.
    std::vector<pollfd> fds;
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    const auto now = Clock::now();
    auto next_due = Clock::time_point::max();
    auto note = [&](const Pipe& pipe) {
      if (pipe.stall_until > now) {
        next_due = std::min(next_due, pipe.stall_until);
      }
      if (!pipe.q.empty()) {
        next_due = std::min(next_due, std::max(pipe.q.front().due, now));
      }
    };
    for (Link& link : links) {
      short c_ev = 0;
      short b_ev = 0;
      if (!link.c2b.eof) c_ev |= POLLIN;
      if (!link.b2c.eof) b_ev |= POLLIN;
      if (!link.b2c.q.empty()) c_ev |= POLLOUT;
      if (!link.c2b.q.empty()) b_ev |= POLLOUT;
      fds.push_back({link.cfd, c_ev, 0});
      fds.push_back({link.bfd, b_ev, 0});
      note(link.c2b);
      note(link.b2c);
    }
    int timeout_ms = 100;
    if (next_due != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            next_due - now)
                            .count();
      timeout_ms = static_cast<int>(std::min<int64_t>(std::max<int64_t>(left, 1), 100));
    }
    ::poll(fds.data(), fds.size(), timeout_ms);

    if ((fds[0].revents & POLLIN) != 0) {
      uint8_t drain[64];
      while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
          break;
        }
        ++stats_.connections;
        sockaddr_un baddr{};
        baddr.sun_family = AF_UNIX;
        std::strncpy(baddr.sun_path, backend_uds_.c_str(),
                     sizeof(baddr.sun_path) - 1);
        const int bfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (bfd < 0 ||
            ::connect(bfd, reinterpret_cast<const sockaddr*>(&baddr),
                      sizeof(baddr)) != 0) {
          // No backend, no link: the client gets an EOF, which is exactly
          // what a dead server looks like.
          ++stats_.backend_fails;
          if (bfd >= 0) {
            ::close(bfd);
          }
          ::close(cfd);
          continue;
        }
        SetNonBlocking(cfd);
        SetNonBlocking(bfd);
        Link link;
        link.cfd = cfd;
        link.bfd = bfd;
        links.push_back(std::move(link));
      }
    }

    // The fds vector indexes links at 2 + 2*i; links may have grown from
    // accepts above, so bound by the polled count.
    const size_t polled_links = (fds.size() - 2) / 2;
    for (size_t i = 0; i < polled_links && i < links.size(); ++i) {
      Link& link = links[i];
      if (link.dead) {
        continue;
      }
      const short c_re = fds[2 + 2 * i].revents;
      const short b_re = fds[3 + 2 * i].revents;
      bool alive = true;
      if (alive && (c_re & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !link.c2b.eof) {
        alive = ingest(link, link.cfd, link.c2b);
      }
      if (alive && (b_re & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !link.b2c.eof) {
        alive = ingest(link, link.bfd, link.b2c);
      }
      if (!alive) {
        CloseLink(link);
      }
    }

    // Flush every live link (time-based faults fire on poll timeouts, not
    // just on revents), then retire finished/dead links.
    const auto flush_now = Clock::now();
    for (Link& link : links) {
      if (link.dead) {
        continue;
      }
      if (!flush(link.c2b, link.bfd, flush_now) ||
          !flush(link.b2c, link.cfd, flush_now)) {
        CloseLink(link);
        continue;
      }
      if (link.c2b.shut && link.b2c.shut) {
        CloseLink(link);  // both directions done: a clean teardown
      }
    }
    links.erase(std::remove_if(links.begin(), links.end(),
                               [](const Link& l) { return l.dead; }),
                links.end());
  }

  for (Link& link : links) {
    CloseLink(link);
  }
}

}  // namespace simdx::service
