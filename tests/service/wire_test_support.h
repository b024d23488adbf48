// Fixtures shared by the service-layer tests. The malformed-frame table is
// checked against decode statuses in codec_test and sent over a live socket
// in server_test. The socket harness (graph + service + server, BFS
// requests, their one-shot oracles, unique socket paths, the open-fd count)
// serves server_test and chaos_test.
#ifndef SIMDX_TESTS_SERVICE_WIRE_TEST_SUPPORT_H_
#define SIMDX_TESTS_SERVICE_WIRE_TEST_SUPPORT_H_

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algos/algos.h"
#include "core/checkpoint.h"
#include "core/fingerprint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/client.h"
#include "service/codec.h"
#include "service/server.h"
#include "service/service.h"

namespace simdx::service {

// ---- malformed frames: one status per lie ----

inline wire::RequestFrame SampleRequest() {
  wire::RequestFrame f;
  f.request_id = 0xDEADBEEFCAFEull;
  f.kind = static_cast<uint8_t>(QueryKind::kSssp);
  f.source = 1234;
  f.k = 7;
  f.deadline_rel_ms = 250.5;
  f.max_attempts = 3;
  f.want_values = 1;
  return f;
}

inline std::vector<uint8_t> ValidRequestBytes() {
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(SampleRequest(), &bytes);
  return bytes;
}

// A header over `body` with a CRC that matches it, so only the body (or the
// version) lies.
inline std::vector<uint8_t> FrameAround(
    const std::vector<uint8_t>& body,
    wire::MsgType type = wire::MsgType::kRequest,
    uint16_t version = wire::kWireVersion) {
  std::vector<uint8_t> b;
  ByteWriter w(&b);
  w.Pod(wire::kFrameMagic);
  w.Pod(version);
  w.Pod(static_cast<uint16_t>(type));
  w.Pod(static_cast<uint32_t>(body.size()));
  w.Pod(Crc32(body.data(), body.size()));
  w.Bytes(body.data(), body.size());
  return b;
}

struct MalformedCase {
  const char* name;
  std::vector<uint8_t> bytes;
  wire::DecodeStatus expect;
};

// Every way a frame can lie maps to exactly one DecodeStatus; IsFatal(expect)
// says whether the stream keeps its frame sync afterwards.
inline std::vector<MalformedCase> MalformedCases() {
  using wire::DecodeStatus;
  std::vector<MalformedCase> cases;
  {
    auto b = ValidRequestBytes();
    b[0] ^= 0xFF;
    cases.push_back({"bad-magic", b, DecodeStatus::kBadMagic});
  }
  {
    auto b = ValidRequestBytes();
    b[4] ^= 0xFF;
    cases.push_back({"bad-version", b, DecodeStatus::kBadVersion});
  }
  {
    // Unknown msg type over a structurally perfect body: recoverable.
    auto b = ValidRequestBytes();
    const uint16_t bogus = 99;
    std::memcpy(&b[6], &bogus, sizeof(bogus));
    cases.push_back({"bad-msg-type", b, DecodeStatus::kBadMsgType});
  }
  {
    // A hostile 4 GiB length must be refused from the header alone —
    // before allocation, before waiting for body bytes.
    auto b = ValidRequestBytes();
    b.resize(wire::kFrameHeaderBytes);
    const uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(&b[8], &huge, sizeof(huge));
    cases.push_back({"oversized-body", b, DecodeStatus::kOversizedBody});
  }
  {
    auto b = ValidRequestBytes();
    b.back() ^= 0xFF;
    cases.push_back({"bad-crc", b, DecodeStatus::kBadCrc});
  }
  // CRC-valid garbage that fails to parse as a request body.
  cases.push_back(
      {"truncated-fields", FrameAround({1, 2, 3}), DecodeStatus::kMalformedBody});
  const wire::RequestFrame rq = SampleRequest();
  const auto request_fields = [&rq](ByteWriter& bw) {
    bw.Pod(rq.request_id);
    bw.Pod(rq.kind);
    bw.Pod(rq.source);
    bw.Pod(rq.k);
    bw.Pod(rq.deadline_rel_ms);
    bw.Pod(rq.max_attempts);
    bw.Pod(rq.want_values);
  };
  {
    // Trailing garbage after a complete body: rejected by design (there is
    // no silent ignore-the-tail lane — new fields bump the version, so a
    // field a newer sender appends arrives as a kBadVersion header, never
    // as a tail).
    std::vector<uint8_t> body;
    ByteWriter bw(&body);
    request_fields(bw);
    bw.Pod(uint32_t{0xAAAAAAAAu});
    cases.push_back(
        {"trailing-garbage", FrameAround(body), DecodeStatus::kMalformedBody});
  }
  {
    // A reject detail length that overruns the remaining payload:
    // ByteReader validates string lengths before any copy.
    std::vector<uint8_t> body;
    ByteWriter bw(&body);
    bw.Pod(uint64_t{7});  // request id
    bw.Pod(static_cast<uint8_t>(wire::RejectCode::kInvalidQuery));
    bw.Pod(uint64_t{1u << 20});  // claims a 1 MiB string, provides 0 bytes
    cases.push_back({"string-length-overrun",
                     FrameAround(body, wire::MsgType::kReject),
                     DecodeStatus::kMalformedBody});
  }
  {
    // A version-1 request: its body ended in a fault spec, which let any
    // socket peer arm fault injection. Refused from the header.
    std::vector<uint8_t> body;
    ByteWriter bw(&body);
    request_fields(bw);
    bw.Str("iteration-start@1");
    cases.push_back({"v1-request-with-fault-spec",
                     FrameAround(body, wire::MsgType::kRequest, 1),
                     DecodeStatus::kBadVersion});
  }
  return cases;
}

// ---- the socket harness ----

// A UDS path unique to this process and call: /tmp/simdx_<tag>_<pid>_<n>.sock.
inline std::string UniqueSocketPath(const char* tag) {
  static std::atomic<int> counter{0};
  return std::string("/tmp/simdx_") + tag + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter.fetch_add(1) + 1) + ".sock";
}

// Open-fd count via /proc/self/fd — the leak gate for connection churn.
// Includes ".", ".." and the dirfd itself, consistently across calls.
inline int CountOpenFds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) {
    return -1;
  }
  int n = 0;
  while (::readdir(d) != nullptr) {
    ++n;
  }
  ::closedir(d);
  return n;
}

// Budgets for every test client that is not itself probing a timeout: a
// server regression that stops answering (or keeps a dead stream open)
// fails the test within 5 s instead of hanging ctest.
inline constexpr ClientTimeouts kTestTimeouts{5000.0, 5000.0, 5000.0};

// A BFS request that pulls the level array across the wire. Id 0 lets
// BlockingClient::Call assign one.
inline wire::RequestFrame BfsRequest(VertexId source, uint64_t request_id = 0) {
  Query q;
  q.kind = QueryKind::kBfs;
  q.source = source;
  q.want_values = true;
  wire::RequestFrame f = ToRequestFrame(q);
  f.request_id = request_id;
  return f;
}

// Graph + service + server with caller-chosen options, listening on a fresh
// UDS path (and a loopback TCP port when opts.tcp is set).
struct Harness {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<GraphService> service;
  std::unique_ptr<SocketServer> server;
  std::string uds;
  std::string error;
  bool ok = false;

  explicit Harness(ServerOptions opts = {}, ServiceOptions so = {}) {
    graph = std::make_unique<Graph>(
        Graph::FromEdges(GenerateRmat(7, 8, 3), false));
    service = std::make_unique<GraphService>(*graph, so);
    uds = UniqueSocketPath("harness");
    opts.uds_path = uds;
    server = std::make_unique<SocketServer>(*service, opts);
    ok = server->Start(&error);
  }
  ~Harness() {
    server->Stop();
    service->Shutdown();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Value fingerprint of a one-shot RunBfs from `source` — what every served
  // answer's value_fingerprint and value_bytes must match.
  uint64_t OracleVfp(VertexId source) const {
    ServiceOptions so;
    const auto r = RunBfs(*graph, source, so.device, so.engine);
    return ValueBytesFingerprint(r.values.data(),
                                 r.values.size() * sizeof(uint32_t));
  }
};

}  // namespace simdx::service

#endif  // SIMDX_TESTS_SERVICE_WIRE_TEST_SUPPORT_H_
