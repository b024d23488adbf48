// Blocking wire client for the socket query service: one connection, one
// outstanding request at a time, synchronous Call(). This is the process
// boundary's equivalent of GraphService::Submit().get() — bench/qps --remote
// runs many of these concurrently (one per client thread) to model
// independent client PROCESSES without fork cost in the harness.
//
// Error model mirrors the rest of the stack: transport and codec failures
// come back as a typed ClientStatus plus a human-readable detail, never an
// exception or a crash. A server-side reject is NOT a client error — it is
// a successful round trip whose answer is a RejectFrame (reply->type ==
// MsgType::kReject), exactly as an in-process caller treats a non-admitted
// Ticket.
//
// Every operation is poll-bounded (ClientTimeouts): a dead or stalled server
// yields a typed kTimedOut within the configured budget instead of blocking
// the caller forever. The socket stays non-blocking for its whole life and
// every write is send(..., MSG_NOSIGNAL) — a peer closing mid-write is an
// EPIPE errno, never a process-killing SIGPIPE. Timeouts of 0 preserve the
// legacy block-forever behavior for callers that own their own watchdogs.
#ifndef SIMDX_SERVICE_CLIENT_H_
#define SIMDX_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>

#include "service/codec.h"
#include "service/query.h"

namespace simdx::service {

enum class ClientStatus : uint8_t {
  kOk = 0,
  kConnectFailed,
  kNotConnected,
  kSendFailed,       // write error / connection lost mid-request
  kRecvFailed,       // read error / server closed before a reply
  kDecodeFailed,     // reply bytes failed the codec (detail has the status)
  kProtocolError,    // a well-formed frame that answers a different request
  kTimedOut,         // connect/send/recv exceeded its ClientTimeouts budget
};

const char* ToString(ClientStatus s);

// Per-operation budgets in milliseconds; 0 = no bound (block indefinitely).
// recv_ms bounds ONE ReadFrame call end to end — a server that trickles a
// frame byte-by-byte must finish it inside the budget, so the hostile-frame
// probes in server_test can never hang CI on a regression.
struct ClientTimeouts {
  double connect_ms = 0.0;
  double send_ms = 0.0;
  double recv_ms = 0.0;
};

class BlockingClient {
 public:
  BlockingClient() = default;
  explicit BlockingClient(ClientTimeouts timeouts) : timeouts_(timeouts) {}
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  ClientStatus ConnectUds(const std::string& path, std::string* error);
  ClientStatus ConnectTcp(const std::string& host, uint16_t port,
                          std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }

  void set_timeouts(const ClientTimeouts& t) { timeouts_ = t; }
  const ClientTimeouts& timeouts() const { return timeouts_; }

  // Sends `request` and blocks for the frame that echoes its request_id
  // (response or reject — both are successful calls). request_id is
  // assigned here when the caller left it 0.
  ClientStatus Call(wire::RequestFrame request, wire::Frame* reply,
                    std::string* error);

  // Sends raw bytes as-is — the hostile-input path for tests and the
  // malformed-frame probe (torn writes, bad magic, corrupt CRCs), which
  // must elicit typed rejects from the dispatch loop, never a crash.
  // Bounded by timeouts().send_ms.
  ClientStatus SendRaw(const void* data, size_t size, std::string* error);
  // Blocks for one frame, whatever it is (pairs with SendRaw). Bounded by
  // timeouts().recv_ms.
  ClientStatus ReadFrame(wire::Frame* reply, std::string* error);

 private:
  ClientStatus FinishConnect(const std::string& what, std::string* error);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  ClientTimeouts timeouts_;
  wire::FrameDecoder decoder_;
};

// Convenience: a Query as the wire request it becomes. The deadline crosses
// as-is — Query::deadline_ms is already RELATIVE (the one public contract),
// so no clock is consulted on the client side, ever. The fault spec does not
// cross: faults arm only in-process.
wire::RequestFrame ToRequestFrame(const Query& query);

}  // namespace simdx::service

#endif  // SIMDX_SERVICE_CLIENT_H_
