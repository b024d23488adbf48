// Serve workloads: an open loop of Poisson arrivals into a SocketServer, sent
// by one sender thread and read by one receiver thread over four pipelined
// UDS connections that speak the public wire codec. Each request is timed
// from its due time, so a stall also charges the requests queued behind it.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/cpu_reference.h"
#include "core/fingerprint.h"
#include "service/codec.h"
#include "service/server.h"
#include "service/service.h"
#include "trace.h"
#include "workloads.h"

namespace simdx::e2e {

namespace {

using service::GraphService;
using service::Query;
using service::QueryKind;
using service::QueryResult;
using service::ServiceStats;
using service::SocketServer;
namespace wire = service::wire;

constexpr uint32_t kConnections = 4;
constexpr double kWarmupMs = 1000.0;
// Shares of --seconds: the light and heavy open-loop phases, then the
// closed-loop saturation phase (untraced) or the direct arm (traced). heavy
// is the longest because the end-to-end latencies come from it: on
// serve-mixed each kind's p90 needs 100 samples, 2 s of 100 q/s split 1:1.
constexpr double kLightShare = 0.2;
constexpr double kHeavyShare = 0.5;
constexpr double kSaturationShare = 0.3;
// Saturation keeps this many requests outstanding per connection: enough to
// keep both service workers and the batcher busy. In total it is the admission
// queue's capacity, which the two running workers keep from filling, so
// nothing is shed for space.
constexpr uint32_t kSaturationWindow = 16;
constexpr double kGraceMs = 2000.0;  // replies still owed after the last send
// Open-loop requests carry a deadline of this many latency limits: a late
// answer then still arrives and counts as a miss of the limit, while a
// request stuck behind a stall is cut off instead of piling up. At 4 limits,
// one of ~50,000 serve-hot requests came back uncompleted, in a light phase
// where a host stall put 1% of the requests over the limit.
constexpr double kDeadlineLimits = 10.0;
constexpr uint32_t kHotSet = 2048;
constexpr double kZipfS = 1.0;
constexpr uint64_t kMixedCheckEvery = 16;
// A run whose generator sent more than 1% of its requests over 1 ms late is
// invalid: every request is timed from its due time, so that lateness would
// be charged to the service, and 1 ms is a tenth of serve-hot's limit and
// about half its p90.
constexpr double kLatenessBudgetMs = 1.0;

struct ServeSpec {
  double limit_ms;  // p99 latency limit
  // Frozen rates: about 11-15% and 30-40% of the highest rate whose p99 met
  // the limit on the reference host (bench/e2e/README.md), frozen so that a
  // faster or slower build is measured at the same offered load. heavy stays
  // well below the knee: at 55% of it, queueing tripled the host's
  // run-to-run noise in p90.
  double light_rate;
  double heavy_rate;
  bool hot;
};

ServeSpec SpecFor(const Workload& w) {
  if (std::string(w.name) == "serve-hot") {
    return {10.0, 700.0, 1800.0, true};
  }
  return {50.0, 30.0, 100.0, false};
}

service::ServiceOptions ServeOptions() {
  service::ServiceOptions so;
  so.workers = 2;
  so.queue_capacity = 64;
  so.batch_max = 64;
  so.cache_capacity = 1024;
  so.engine.host_threads = 1;
  return so;
}

// The questions a run asks, in order. serve-mixed asks BFS or SSSP with equal
// odds and draws each kind's sources without replacement, so a question
// repeats only after every non-isolated vertex was asked, far beyond the
// cache's reach, and the cache never hits; serve-hot asks BFS from
// Zipf-ranked sources in a seeded hot set.
class QuestionStream {
 public:
  QuestionStream(const Graph& g, bool hot, uint64_t seed)
      : rng_(SubSeed(seed, "questions")), hot_(hot), zipf_(kHotSet, kZipfS) {
    std::vector<uint32_t> live;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (g.OutDegree(v) > 0) {
        live.push_back(v);
      }
    }
    bfs_ = ShuffledCopy(live, rng_);
    sssp_ = ShuffledCopy(live, rng_);
    bfs_.resize(hot ? std::min<size_t>(kHotSet, bfs_.size()) : bfs_.size());
  }

  std::pair<QueryKind, VertexId> Next() {
    if (hot_) {
      return {QueryKind::kBfs, bfs_[zipf_.Next(rng_) % bfs_.size()]};
    }
    if (rng_.Below(2) == 0) {
      return {QueryKind::kBfs, bfs_[bfs_next_++ % bfs_.size()]};
    }
    return {QueryKind::kSssp, sssp_[sssp_next_++ % sssp_.size()]};
  }

 private:
  Rng rng_;
  bool hot_;
  ZipfSampler zipf_;
  std::vector<uint32_t> bfs_, sssp_;
  size_t bfs_next_ = 0, sssp_next_ = 0;
};

struct Request {
  double due_ms = 0.0;  // from the phase start
  QueryKind kind = QueryKind::kBfs;
  VertexId source = 0;
};

// One request's fate. The sender and the receiver write disjoint fields.
struct Outcome {
  // Sender.
  bool sent = false;
  double late_ms = 0.0;
  double send_ms = 0.0;  // encode start, from the phase start
  double encode_us = 0.0;
  double submit_us = 0.0;  // direct arm
  size_t req_bytes = 0;
  // Receiver.
  bool replied = false;
  bool rejected = false;
  double recv_ms = 0.0;
  double decode_us = 0.0;
  size_t resp_bytes = 0;
  wire::ResponseFrame response;
  // Checker.
  bool wrong = false;

  bool ok() const {
    const auto outcome = static_cast<RunOutcome>(response.outcome);
    return replied && !rejected && !wrong &&
           (outcome == RunOutcome::kCompleted || outcome == RunOutcome::kResumed);
  }
};

struct Phase {
  const char* name = "";
  double rate = 0.0;
  std::vector<Request> requests;
  std::vector<Outcome> out;
  std::vector<uint64_t> span_ids;  // traced runs: one root span per request
  uint64_t first_id = 0;
  Clock::time_point t0;

  double Latency(size_t i) const {
    return out[i].ok() ? out[i].recv_ms - requests[i].due_ms : kFailed;
  }
  std::vector<double> Latencies() const {
    std::vector<double> l;
    for (size_t i = 0; i < out.size(); ++i) {
      l.push_back(Latency(i));
    }
    return l;
  }
  std::vector<double> Latencies(QueryKind kind) const {
    std::vector<double> l;
    for (size_t i = 0; i < out.size(); ++i) {
      if (requests[i].kind == kind) {
        l.push_back(Latency(i));
      }
    }
    return l;
  }
  double Attainment(double limit_ms) const {
    size_t met = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      met += Latency(i) <= limit_ms ? 1 : 0;
    }
    return out.empty() ? 1.0 : static_cast<double>(met) / out.size();
  }
  uint64_t Failures() const {
    return std::count_if(out.begin(), out.end(), [](const Outcome& o) { return !o.ok(); });
  }
  bool Traced(size_t i) const { return !span_ids.empty() && (first_id + i) % 2 == 1; }
};

Phase MakePhase(const char* name, double rate, double duration_ms,
                QuestionStream& questions, Rng& arrivals, uint64_t* next_id) {
  Phase p;
  p.name = name;
  p.rate = rate;
  for (double due : PoissonArrivals(rate, duration_ms, arrivals)) {
    const auto [kind, source] = questions.Next();
    p.requests.push_back(Request{due, kind, source});
  }
  p.out.resize(p.requests.size());
  p.first_id = *next_id;
  *next_id += p.requests.size();
  if (Tracer::Get().enabled()) {
    for (size_t i = 0; i < p.requests.size(); ++i) {
      p.span_ids.push_back(Tracer::Get().NewId());
    }
  }
  return p;
}

class Socket {
 public:
  Socket() = default;
  ~Socket() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool ConnectUds(const std::string& path, std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = "connect " + path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool SendAll(const std::vector<uint8_t>& bytes) const {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// The load generator runs on the last CPU this process may use and the
// service on the others, so they never compete for a core: when the service
// could run on the generator's core, the generator sent up to 2 ms late at
// p99. Threads inherit their creator's CPUs, so the service side is pinned
// before the service starts its threads and the generator side before the
// generator starts its own.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&service_);
    CPU_ZERO(&generator_);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
      return;  // one CPU: nothing to split
    }
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        CPU_SET(c, &service_);
        last = c;
      }
    }
    CPU_CLR(last, &service_);
    CPU_SET(last, &generator_);
    split_ = true;
  }
  void PinServiceSide() const { Pin(service_); }
  void PinGeneratorSide() const { Pin(generator_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (split_) {
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
  }
  bool split_ = false;
  cpu_set_t service_;
  cpu_set_t generator_;
};

// The receiver polls without sleeping and yields between polls: its core is
// the generator's own, so spinning costs the service nothing, while a core
// that never idles wakes in microseconds. Sleeping in poll(2) instead left
// the client's side of every round trip to the host's wake-up latency, which
// tripled the cache-hit p50 in some runs. The yield lets the sender thread,
// which shares the core, run as soon as its due time comes.
bool PollSpinning(pollfd* fds) {
  if (::poll(fds, kConnections, 0) > 0) {
    return true;
  }
  sched_yield();
  return false;
}

Clock::time_point At(Clock::time_point t0, double ms) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
}

// Drives phases over four connections that stay open for the whole run.
class LoadGenerator {
 public:
  bool Connect(const std::string& path, std::string* error) {
    for (auto& s : sockets_) {
      if (!s.ConnectUds(path, error)) {
        return false;
      }
    }
    return true;
  }

  // Open loop: one thread keeps the phase's schedule (request i goes out on
  // connection i % 4), another matches replies to requests by id.
  void RunOpen(Phase* phase, double deadline_ms) {
    std::atomic<size_t> sends_ok{0};
    std::atomic<bool> sender_done{false};
    phase->t0 = Clock::now() + std::chrono::milliseconds(2);
    std::jthread receiver([&] { Receive(phase, sends_ok, sender_done); });
    for (size_t i = 0; i < phase->requests.size(); ++i) {
      const auto due = At(phase->t0, phase->requests[i].due_ms);
      std::this_thread::sleep_until(due);
      if (Send(phase, i, i % kConnections, deadline_ms, due)) {
        sends_ok.fetch_add(1, std::memory_order_release);
      }
    }
    sender_done.store(true, std::memory_order_release);
    receiver.join();
  }

  // Closed loop: kSaturationWindow requests outstanding per connection for
  // duration_ms, without deadlines; each reply sends that connection's next
  // question. Returns the answers completed per second within duration_ms.
  double RunClosed(Phase* phase, double duration_ms, QuestionStream& questions) {
    phase->t0 = Clock::now();
    size_t outstanding = 0;
    auto send_next = [&](uint32_t c) {
      const auto now = Clock::now();
      const auto [kind, source] = questions.Next();
      phase->requests.push_back(Request{MsBetween(phase->t0, now), kind, source});
      phase->out.emplace_back();
      outstanding += Send(phase, phase->requests.size() - 1, c, 0.0, now) ? 1 : 0;
    };
    for (uint32_t c = 0; c < kConnections; ++c) {
      for (uint32_t k = 0; k < kSaturationWindow; ++k) {
        send_next(c);
      }
    }
    pollfd fds[kConnections];
    for (uint32_t c = 0; c < kConnections; ++c) {
      fds[c] = pollfd{sockets_[c].fd(), POLLIN, 0};
    }
    while (outstanding > 0 &&
           MsBetween(phase->t0, Clock::now()) < duration_ms + kGraceMs) {
      if (!PollSpinning(fds)) {
        continue;
      }
      for (uint32_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        if (!ReadReplies(phase, c, [&](size_t) {
              --outstanding;
              if (MsBetween(phase->t0, Clock::now()) < duration_ms) {
                send_next(c);
              }
            })) {
          fds[c].fd = -1;
        }
      }
    }
    size_t answered = 0;
    for (const Outcome& o : phase->out) {
      answered += o.ok() && o.recv_ms <= duration_ms ? 1 : 0;
    }
    return static_cast<double>(answered) * 1000.0 / duration_ms;
  }

 private:
  // Encodes request i and sends it on connection c; fills the sender's fields.
  bool Send(Phase* phase, size_t i, uint32_t c, double deadline_ms,
            Clock::time_point due) {
    const Request& req = phase->requests[i];
    Outcome& o = phase->out[i];
    const auto e0 = Clock::now();
    wire::RequestFrame frame;
    frame.request_id = phase->first_id + i;
    frame.kind = static_cast<uint8_t>(req.kind);
    frame.source = req.source;
    frame.deadline_rel_ms = deadline_ms;
    bytes_.clear();
    wire::EncodeRequest(frame, &bytes_);
    const auto e1 = Clock::now();
    o.late_ms = std::max(0.0, MsBetween(due, e0));
    o.send_ms = MsBetween(phase->t0, e0);
    o.encode_us = MsBetween(e0, e1) * 1000.0;
    o.req_bytes = bytes_.size();
    o.sent = sockets_[c].SendAll(bytes_);
    if (phase->Traced(i)) {
      Tracer& tracer = Tracer::Get();
      tracer.Record("codec.encode", tracer.ToUs(e0), tracer.ToUs(e1), tracer.NewId(),
                    phase->span_ids[i], frame.request_id);
    }
    return o.sent;
  }

  // Reads what connection c has and records every reply it completes, then
  // calls on_reply(index) for it. False once the connection is closed or its
  // stream cannot be decoded; its outstanding requests then time out.
  template <typename OnReply>
  bool ReadReplies(Phase* phase, uint32_t c, OnReply on_reply) {
    uint8_t buf[64 * 1024];
    const ssize_t got = ::read(sockets_[c].fd(), buf, sizeof(buf));
    if (got <= 0) {
      return got < 0 && errno == EINTR;
    }
    wire::FrameDecoder& decoder = decoders_[c];
    decoder.Feed(buf, static_cast<size_t>(got));
    while (true) {
      wire::Frame frame;
      const size_t before = decoder.buffered();
      const auto d0 = Clock::now();
      const wire::DecodeStatus status = decoder.Next(&frame);
      const auto d1 = Clock::now();
      if (status == wire::DecodeStatus::kNeedMore) {
        return true;
      }
      if (status != wire::DecodeStatus::kOk) {
        std::fprintf(stderr, "serve: undecodable reply: %s\n", wire::ToString(status));
        return false;
      }
      const bool is_reject = frame.type == wire::MsgType::kReject;
      const uint64_t id = is_reject ? frame.reject.request_id : frame.response.request_id;
      const uint64_t index = id - phase->first_id;
      if (id < phase->first_id || index >= phase->out.size() ||
          phase->out[index].replied) {
        continue;
      }
      Outcome& o = phase->out[index];
      o.replied = true;
      o.rejected = is_reject;
      o.response = std::move(frame.response);
      o.recv_ms = MsBetween(phase->t0, d1);
      o.decode_us = MsBetween(d0, d1) * 1000.0;
      o.resp_bytes = before - decoder.buffered();
      if (phase->Traced(index)) {
        Tracer& tracer = Tracer::Get();
        tracer.Record("codec.decode", tracer.ToUs(d0), tracer.ToUs(d1), tracer.NewId(),
                      phase->span_ids[index], id);
      }
      on_reply(index);  // may grow phase->out: o is not used past this point
    }
  }

  void Receive(Phase* phase, const std::atomic<size_t>& sends_ok,
               const std::atomic<bool>& sender_done) {
    const size_t n = phase->requests.size();
    const double end_ms = (n == 0 ? 0.0 : phase->requests.back().due_ms) + kGraceMs;
    pollfd fds[kConnections];
    for (uint32_t c = 0; c < kConnections; ++c) {
      fds[c] = pollfd{sockets_[c].fd(), POLLIN, 0};
    }
    size_t received = 0;
    while (received < n) {
      const bool all_sent = sender_done.load(std::memory_order_acquire);
      if ((all_sent && received >= sends_ok.load(std::memory_order_acquire)) ||
          MsBetween(phase->t0, Clock::now()) > end_ms) {
        break;
      }
      if (!PollSpinning(fds)) {
        continue;
      }
      for (uint32_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !ReadReplies(phase, c, [&](size_t) { ++received; })) {
          fds[c].fd = -1;
        }
      }
    }
  }

  Socket sockets_[kConnections];
  wire::FrameDecoder decoders_[kConnections];
  std::vector<uint8_t> bytes_;  // sender's encode buffer
};

// The direct arm: the same schedule through an in-process Submit, so the
// difference to the socket path is what transport and codec cost.
void RunDirect(GraphService& svc, Phase* phase, double deadline_ms) {
  struct Pending {
    size_t index;
    std::future<QueryResult> result;
  };
  std::mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  std::atomic<bool> sender_done{false};
  phase->t0 = Clock::now() + std::chrono::milliseconds(2);
  const double end_ms =
      (phase->requests.empty() ? 0.0 : phase->requests.back().due_ms) + kGraceMs;

  std::jthread collector([&] {
    std::vector<Pending> live;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& p : inbox) {
          live.push_back(std::move(p));
        }
        inbox.clear();
      }
      const bool done = sender_done.load(std::memory_order_acquire);
      for (size_t k = 0; k < live.size();) {
        if (live[k].result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++k;
          continue;
        }
        const QueryResult r = live[k].result.get();
        Outcome& o = phase->out[live[k].index];
        o.replied = true;
        o.recv_ms = MsBetween(phase->t0, Clock::now());
        o.response.outcome = static_cast<uint8_t>(r.outcome);
        o.response.served = static_cast<uint8_t>(r.served);
        o.response.queue_ms = r.queue_ms;
        o.response.run_ms = r.run_ms;
        o.response.value_fingerprint = r.value_fingerprint;
        live[k] = std::move(live.back());
        live.pop_back();
      }
      if ((done && live.empty()) || MsBetween(phase->t0, Clock::now()) > end_ms) {
        std::lock_guard<std::mutex> lock(mu);
        if (inbox.empty()) {
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  Tracer& tracer = Tracer::Get();
  for (size_t i = 0; i < phase->requests.size(); ++i) {
    const Request& req = phase->requests[i];
    Outcome& o = phase->out[i];
    const auto due = At(phase->t0, req.due_ms);
    std::this_thread::sleep_until(due);
    Query q;
    q.kind = req.kind;
    q.source = req.source;
    q.deadline_ms = deadline_ms;
    const auto s0 = Clock::now();
    auto ticket = svc.Submit(q);
    const auto s1 = Clock::now();
    o.late_ms = std::max(0.0, MsBetween(due, s0));
    o.send_ms = MsBetween(phase->t0, s0);
    o.submit_us = MsBetween(s0, s1) * 1000.0;
    o.sent = true;
    tracer.Record("service.submit", tracer.ToUs(s0), tracer.ToUs(s1), tracer.NewId(), 0,
                  phase->first_id + i);
    if (ticket.verdict != service::AdmissionVerdict::kAdmitted) {
      o.replied = true;
      o.rejected = true;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back(Pending{i, std::move(ticket.result)});
  }
  sender_done.store(true, std::memory_order_release);
  collector.join();
}

// Compares served answers with the CPU oracles' value fingerprints: every
// serve-hot reply, and every 16th serve-mixed reply. Returns the mismatches.
uint64_t CheckAnswers(const Graph& g, bool hot, std::vector<Phase*> phases) {
  std::map<std::pair<QueryKind, VertexId>, uint64_t> oracle;
  uint64_t wrong = 0;
  for (Phase* p : phases) {
    for (size_t i = 0; i < p->out.size(); ++i) {
      Outcome& o = p->out[i];
      if (!o.ok() || (!hot && (p->first_id + i) % kMixedCheckEvery != 0)) {
        continue;
      }
      const auto key = std::make_pair(p->requests[i].kind, p->requests[i].source);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        const std::vector<uint32_t> values = key.first == QueryKind::kBfs
                                                 ? CpuBfsLevels(g, key.second)
                                                 : CpuDijkstra(g, key.second);
        it = oracle.emplace(key, ValueBytesFingerprint(values.data(),
                                                       values.size() * sizeof(uint32_t)))
                 .first;
      }
      if (o.response.value_fingerprint != it->second) {
        std::fprintf(stderr, "check: %s answer for source %u differs from the oracle\n",
                     service::ToString(key.first), key.second);
        o.wrong = true;
        ++wrong;
      }
    }
  }
  return wrong;
}

bool LedgerHolds(const ServiceStats& s) {
  return s.submitted == s.admitted + s.shed_queue_full + s.shed_deadline +
                            s.rejected_invalid &&
         s.admitted ==
             s.completed + s.faulted + s.cancelled + s.deadline_exceeded + s.sink_failed;
}

// Lays a traced request's spans out: the root from due time to receipt, and
// the service's queue and run placed from the reply's durations after half of
// the transport time (which the client cannot split between directions).
void RecordRequestSpans(const Phase& p) {
  Tracer& tracer = Tracer::Get();
  const double base_us = tracer.ToUs(p.t0);
  for (size_t i = 0; i < p.out.size(); ++i) {
    const Outcome& o = p.out[i];
    if (!p.Traced(i) || !o.replied) {
      continue;
    }
    const uint64_t id = p.first_id + i;
    const double due_us = base_us + p.requests[i].due_ms * 1000.0;
    const double recv_us = base_us + o.recv_ms * 1000.0;
    tracer.Record("client.request", due_us, recv_us, p.span_ids[i], 0, id);
    if (!o.ok()) {
      continue;
    }
    const double queue_us = o.response.queue_ms * 1000.0;
    const double run_us = o.response.run_ms * 1000.0;
    const double sent_us = base_us + o.send_ms * 1000.0 + o.encode_us;
    const double transit_us = std::max(0.0, recv_us - sent_us - queue_us - run_us);
    const double queue_start = sent_us + transit_us / 2.0;
    tracer.Record("service.queue", queue_start, queue_start + queue_us, tracer.NewId(),
                  p.span_ids[i], id);
    tracer.Record("service.run", queue_start + queue_us, queue_start + queue_us + run_us,
                  tracer.NewId(), p.span_ids[i], id);
  }
}

template <typename F>
std::vector<double> Collect(const std::vector<const Phase*>& phases, F f) {
  std::vector<double> v;
  for (const Phase* p : phases) {
    for (size_t i = 0; i < p->out.size(); ++i) {
      if (p->out[i].ok()) {
        v.push_back(f(*p, i));
      }
    }
  }
  return v;
}

void ReportTraced(const Phase& light, const Phase& heavy, const Phase& direct,
                  double limit_ms, const ServiceStats& s,
                  const service::ServerStats& light_server, const Lateness& lateness,
                  Report* r) {
  const std::vector<const Phase*> remote = {&light, &heavy};
  const auto queue = Collect({&heavy}, [](const Phase& p, size_t i) {
    return p.out[i].response.queue_ms;
  });
  const auto run = Collect({&heavy}, [](const Phase& p, size_t i) {
    return p.out[i].response.run_ms;
  });
  const auto transport = Collect({&heavy}, [](const Phase& p, size_t i) {
    const Outcome& o = p.out[i];
    return o.recv_ms - o.send_ms - o.response.queue_ms - o.response.run_ms;
  });
  const auto encode = Collect(remote, [](const Phase& p, size_t i) { return p.out[i].encode_us; });
  const auto decode = Collect(remote, [](const Phase& p, size_t i) { return p.out[i].decode_us; });
  const auto req_bytes = Collect(remote, [](const Phase& p, size_t i) {
    return static_cast<double>(p.out[i].req_bytes);
  });
  const auto resp_bytes = Collect(remote, [](const Phase& p, size_t i) {
    return static_cast<double>(p.out[i].resp_bytes);
  });
  std::vector<double> submit;
  for (const Outcome& o : direct.out) {
    submit.push_back(o.submit_us);
  }
  r->Set("service.queue_ms_p50", Quantile(queue, 0.5), queue.size());
  r->Set("service.queue_ms_p99", Quantile(queue, 0.99), queue.size());
  r->Set("service.run_ms_p50", Quantile(run, 0.5), run.size());
  r->Set("service.run_ms_p99", Quantile(run, 0.99), run.size());
  const auto frac = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  r->Set("service.cache_hit_frac", frac(s.cache_hits, s.submitted), s.submitted);
  r->Set("service.batched_frac", frac(s.batched_queries, s.completed), s.completed);
  r->Set("service.batch_size_mean", frac(s.batched_queries, s.batches), s.batches);
  r->Set("service.shed_frac", frac(s.shed_queue_full + s.shed_deadline, s.submitted),
         s.submitted);
  r->Set("service.retries", static_cast<double>(s.retries), s.submitted);
  r->Set("service.ladder_transitions", static_cast<double>(s.ladder.size()), s.submitted);
  r->Set("service.submit_us_p50", Quantile(submit, 0.5), submit.size());
  r->Set("service.submit_us_p99", Quantile(submit, 0.99), submit.size());
  r->Set("codec.encode_us", Mean(encode), encode.size());
  r->Set("codec.decode_us", Mean(decode), decode.size());
  r->Set("codec.req_bytes", Mean(req_bytes), req_bytes.size());
  r->Set("codec.resp_bytes", Mean(resp_bytes), resp_bytes.size());
  r->Set("transport.ms_p50", Quantile(transport, 0.5), transport.size());
  r->Set("transport.ms_p99", Quantile(transport, 0.99), transport.size());
  r->Set("transport.nonneg_frac",
         transport.empty() ? 0.0
                           : static_cast<double>(std::count_if(
                                 transport.begin(), transport.end(),
                                 [](double t) { return t >= 0.0; })) /
                                 transport.size(),
         transport.size());
  const auto direct_lat = direct.Latencies();
  r->Set("transport.direct_gap_ms",
         Quantile(heavy.Latencies(), 0.5) - Quantile(direct_lat, 0.5), direct_lat.size());
  r->Set("server.rejects", static_cast<double>(light_server.rejects), light.out.size());
  r->Set("server.decode_errors", static_cast<double>(light_server.decode_errors),
         light.out.size());
  r->Set("load.lat_ms_p50.light", Quantile(light.Latencies(), 0.5), light.out.size());
  const auto bfs = heavy.Latencies(QueryKind::kBfs);
  const auto sssp = heavy.Latencies(QueryKind::kSssp);
  r->Set("load.lat_ms_p50.bfs", Quantile(bfs, 0.5), bfs.size());
  r->Set("load.lat_ms_p90.bfs", Quantile(bfs, 0.9), bfs.size());
  r->Set("load.lat_ms_p50.sssp", Quantile(sssp, 0.5), sssp.size());
  r->Set("load.lat_ms_p90.sssp", Quantile(sssp, 0.9), sssp.size());
  r->Set("load.attain_frac.heavy", heavy.Attainment(limit_ms), heavy.out.size());
  r->Set("load.fail_frac", frac(light.Failures() + heavy.Failures(),
                                light.out.size() + heavy.out.size()),
         light.out.size() + heavy.out.size());
  r->Set("gen.late_ms_p99", lateness.P99(), lateness.count());
  // Spans are recorded for odd request ids only: the even ones are the
  // untraced baseline under the same load.
  std::vector<std::vector<double>> traced_lat(2), plain_lat(2);
  for (size_t i = 0; i < heavy.out.size(); ++i) {
    const size_t kind = heavy.requests[i].kind == QueryKind::kBfs ? 0 : 1;
    (heavy.Traced(i) ? traced_lat : plain_lat)[kind].push_back(heavy.Latency(i));
  }
  const double plain_p50 = KindQuantile(plain_lat, 0.5);
  r->Set("trace.overhead_frac",
         plain_p50 > 0 ? KindQuantile(traced_lat, 0.5) / plain_p50 - 1.0 : 0.0,
         heavy.out.size());
}

// One line per phase on stderr: what was sent and how it ended (for the
// closed-loop phase, the rate is the answered rate it measured).
void PrintPhase(const Phase& p, double limit_ms) {
  size_t sent = 0, replied = 0, rejected = 0, ok = 0;
  for (const Outcome& o : p.out) {
    sent += o.sent ? 1 : 0;
    replied += o.replied ? 1 : 0;
    rejected += o.rejected ? 1 : 0;
    ok += o.ok() ? 1 : 0;
  }
  const auto lat = p.Latencies();
  std::fprintf(stderr,
               "phase %-10s rate %7.1f/s sent %6zu ok %6zu rejected %4zu "
               "unanswered %4zu within-limit %.4f p50 %.3f ms p90 %.3f ms\n",
               p.name, p.rate, sent, ok, rejected, sent - replied,
               p.Attainment(limit_ms), Quantile(lat, 0.5), Quantile(lat, 0.9));
}

service::ServerStats Minus(service::ServerStats a, const service::ServerStats& b) {
  a.rejects -= b.rejects;
  a.decode_errors -= b.decode_errors;
  return a;
}

}  // namespace

Report RunServeWorkload(const RunConfig& cfg) {
  Report report;
  const ServeSpec spec = SpecFor(*cfg.workload);
  service::ServerOptions server_options;
  server_options.uds_path = cfg.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  const CpuSplit cpus;
  cpus.PinServiceSide();
  // Set-up: read, build, start the service and listen, repeated.
  LoadedGraph loaded;
  std::unique_ptr<GraphService> svc;
  std::unique_ptr<SocketServer> server;
  std::vector<double> setup_ms, read_ms, build_ms;
  double spent_ms = 0.0;
  while (MoreSetups(setup_ms.size(), spent_ms)) {
    server.reset();
    svc.reset();
    loaded = LoadedGraph{};
    std::string error;
    const auto t0 = Clock::now();
    if (!LoadGraph(cfg, &loaded, &error)) {
      std::fprintf(stderr, "setup: %s\n", error.c_str());
      report.correct = false;
      return report;
    }
    svc = std::make_unique<GraphService>(loaded.graph, ServeOptions());
    server = std::make_unique<SocketServer>(*svc, server_options);
    if (!server->Start(&error)) {
      std::fprintf(stderr, "setup: server start: %s\n", error.c_str());
      report.correct = false;
      return report;
    }
    setup_ms.push_back(MsBetween(t0, Clock::now()));
    spent_ms += setup_ms.back();
    read_ms.push_back(loaded.read_ms);
    build_ms.push_back(loaded.build_ms);
  }
  report.Set("setup_s", Median(setup_ms) / 1000.0, setup_ms.size());
  report.Set("graph.read_ms", Median(read_ms), read_ms.size());
  report.Set("graph.build_ms", Median(build_ms), build_ms.size());
  report.Set("graph.csr_mb",
             static_cast<double>(loaded.graph.CsrFootprintBytes()) / (1 << 20), 1);
  const Graph& g = loaded.graph;

  cpus.PinGeneratorSide();
  LoadGenerator gen;
  std::string error;
  if (!gen.Connect(server_options.uds_path, &error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    report.correct = false;
    return report;
  }
  QuestionStream questions(g, spec.hot, cfg.seed);
  Rng arrivals(SubSeed(cfg.seed, "arrivals"));
  uint64_t next_id = 1;
  const double ms = cfg.seconds * 1000.0;
  const double deadline_ms = spec.limit_ms * kDeadlineLimits;

  Phase warmup = MakePhase("warmup", spec.light_rate, kWarmupMs, questions, arrivals, &next_id);
  gen.RunOpen(&warmup, deadline_ms);
  const auto before_light = server->stats();
  Phase light = MakePhase("light", spec.light_rate, ms * kLightShare, questions, arrivals,
                          &next_id);
  gen.RunOpen(&light, deadline_ms);
  const auto light_server = Minus(server->stats(), before_light);
  Phase heavy = MakePhase("heavy", spec.heavy_rate, ms * kHeavyShare, questions, arrivals,
                          &next_id);
  gen.RunOpen(&heavy, deadline_ms);

  Phase last;  // the direct arm (traced) or saturation (untraced)
  if (cfg.traced) {
    last = MakePhase("direct", spec.heavy_rate, ms * kHeavyShare, questions, arrivals,
                     &next_id);
    RunDirect(*svc, &last, deadline_ms);
  } else {
    last.name = "saturation";
    last.first_id = next_id;
    last.rate = gen.RunClosed(&last, ms * kSaturationShare, questions);
    report.Set("ops_per_s", last.rate, last.out.size());
  }
  const std::vector<Phase*> phases = {&warmup, &light, &heavy, &last};
  report.Set("peak_rss_mb", PeakRssMb(), 1);

  svc->Drain();
  const ServiceStats stats = svc->stats();
  if (!LedgerHolds(stats)) {
    std::fprintf(stderr, "check: service ledger identities do not hold\n");
    report.correct = false;
  }
  if (!spec.hot && stats.cache_hits != 0) {
    std::fprintf(stderr, "check: serve-mixed hit the cache %llu times\n",
                 static_cast<unsigned long long>(stats.cache_hits));
    report.correct = false;
  }
  if (CheckAnswers(g, spec.hot, phases) != 0) {
    report.correct = false;
  }
  for (const Phase* p : phases) {
    PrintPhase(*p, spec.limit_ms);
  }

  Lateness lateness;
  for (const Phase* p : {&light, &heavy}) {
    for (const Outcome& o : p->out) {
      lateness.Add(o.late_ms);
    }
  }
  std::fprintf(stderr, "generator p99 lateness %.3f ms (budget %.1f ms)\n", lateness.P99(),
               kLatenessBudgetMs);
  if (!lateness.Valid(kLatenessBudgetMs)) {
    std::fprintf(stderr, "invalid: the generator ran late\n");
    report.valid = false;
  }
  report.attempted = light.out.size() + heavy.out.size();
  report.failed = light.Failures() + heavy.Failures();
  const std::vector<std::vector<double>> by_kind = {heavy.Latencies(QueryKind::kBfs),
                                                    heavy.Latencies(QueryKind::kSssp)};
  size_t n = 0;
  const double p50 = KindQuantile(by_kind, 0.5, &n);
  report.Set("lat_ms_p50", p50, n);
  const double p90 = KindQuantile(by_kind, 0.9, &n);
  report.Set("lat_ms_p90", p90, n);
  if (cfg.traced) {
    for (const Phase* p : {&light, &heavy}) {
      RecordRequestSpans(*p);
    }
    ReportTraced(light, heavy, last, spec.limit_ms, stats, light_server, lateness,
                 &report);
  }
  server->Stop();
  svc->Shutdown();
  return report;
}

}  // namespace simdx::e2e
