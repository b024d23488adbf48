// Socket dispatch loop contract: answers over UDS/TCP are bit-equal to
// direct Submit, hostile bytes (every row of the codec's malformed-frame
// table) elicit typed rejects (fatal ones close the stream, recoverable ones
// don't), torn writes reassemble, the admission verdict taxonomy crosses the
// wire intact, and the deadline that crosses is RELATIVE — the TSan CI job
// runs this test over the dispatch loop's thread + the service workers +
// concurrent client threads.
#include "service/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.h"
#include "service/client.h"
#include "tests/service/wire_test_support.h"

namespace simdx::service {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.tcp = true;  // ephemeral loopback port
    ServiceOptions so;
    so.workers = 2;
    h_ = std::make_unique<Harness>(opts, so);
    ASSERT_TRUE(h_->ok) << h_->error;
  }

  std::unique_ptr<Harness> h_;
};

TEST_F(ServerTest, UdsAnswerIsBitEqualToDirectSubmit) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk) << err;
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  const uint64_t oracle = h_->OracleVfp(0);
  EXPECT_EQ(reply.response.value_fingerprint, oracle);
  EXPECT_EQ(ValueBytesFingerprint(reply.response.value_bytes.data(),
                                  reply.response.value_bytes.size()),
            oracle);
}

TEST_F(ServerTest, TcpAnswerMatchesToo) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectTcp("127.0.0.1", h_->server->tcp_port(), &err),
            ClientStatus::kOk)
      << err;
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(1), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, h_->OracleVfp(1));
}

TEST_F(ServerTest, ConcurrentClientsAllGetTheirOwnAnswers) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<uint64_t> oracle;
  for (int s = 0; s < kClients * kPerClient; ++s) {
    oracle.push_back(h_->OracleVfp(static_cast<VertexId>(s)));
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient cli(kTestTimeouts);
      std::string err;
      if (cli.ConnectUds(h_->uds, &err) != ClientStatus::kOk) {
        failures[c] = kPerClient;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int s = c * kPerClient + i;
        wire::Frame reply;
        if (cli.Call(BfsRequest(static_cast<VertexId>(s)), &reply, &err) !=
                ClientStatus::kOk ||
            reply.type != wire::MsgType::kResponse ||
            reply.response.value_fingerprint != oracle[s]) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

TEST_F(ServerTest, RawGarbageGetsBadFrameRejectThenClose) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // wrong protocol entirely
  ASSERT_EQ(cli.SendRaw(garbage, sizeof(garbage) - 1, &err), ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kBadFrame));
  // Frame sync is gone: the server closes after flushing the reject.
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
}

// The codec's malformed-frame table over a live socket, one connection per
// row: a fatal lie gets kBadFrame and then the close; a recoverable one gets
// kMalformedBody, and the same connection then answers a real query.
TEST_F(ServerTest, EveryMalformedFrameGetsItsTypedRejectOverTheSocket) {
  const uint64_t oracle = h_->OracleVfp(0);
  const std::vector<MalformedCase> cases = MalformedCases();
  uint64_t fatal_rows = 0;
  for (const MalformedCase& mc : cases) {
    SCOPED_TRACE(mc.name);
    // Bounded reads: a server that keeps a desynced stream open must fail
    // the row, not hang it.
    BlockingClient cli(kTestTimeouts);
    std::string err;
    ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk) << err;
    ASSERT_EQ(cli.SendRaw(mc.bytes.data(), mc.bytes.size(), &err),
              ClientStatus::kOk)
        << err;
    wire::Frame reply;
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    ASSERT_EQ(reply.type, wire::MsgType::kReject);
    if (wire::IsFatal(mc.expect)) {
      ++fatal_rows;
      EXPECT_EQ(reply.reject.code,
                static_cast<uint8_t>(wire::RejectCode::kBadFrame));
      EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
    } else {
      EXPECT_EQ(reply.reject.code,
                static_cast<uint8_t>(wire::RejectCode::kMalformedBody));
      ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk)
          << err;
      ASSERT_EQ(reply.type, wire::MsgType::kResponse);
      EXPECT_EQ(reply.response.value_fingerprint, oracle);
      EXPECT_EQ(ValueBytesFingerprint(reply.response.value_bytes.data(),
                                      reply.response.value_bytes.size()),
                oracle);
    }
  }
  const ServerStats s = h_->server->stats();
  EXPECT_EQ(s.decode_errors, cases.size());
  EXPECT_EQ(s.fatal_decode_errors, fatal_rows);
}

TEST_F(ServerTest, OutOfRangeKindByteIsInvalidQueryNotACrash) {
  // The codec carries the hostile byte intact; ADMISSION refuses it before
  // any per-kind array is indexed (the kind-byte bound-guard fix). The
  // connection survives — the frame itself was well-formed.
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(0);
  rf.kind = 200;
  wire::Frame reply;
  ASSERT_EQ(cli.Call(rf, &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kInvalidQuery));
  ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk);
  EXPECT_EQ(reply.type, wire::MsgType::kResponse);
}

TEST_F(ServerTest, InvalidSourceMapsToInvalidQueryReject) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(0);
  rf.source = 0xFFFFFFFFu;  // far beyond the loaded graph
  wire::Frame reply;
  ASSERT_EQ(cli.Call(rf, &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kInvalidQuery));
}

TEST_F(ServerTest, TornWriteReassemblesIntoANormalAnswer) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(2);
  rf.request_id = 77;
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(rf, &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 9, &err), ClientStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(cli.SendRaw(bytes.data() + 9, bytes.size() - 9, &err),
            ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.request_id, 77u);
  EXPECT_EQ(reply.response.value_fingerprint, h_->OracleVfp(2));
}

TEST_F(ServerTest, GenerousRelativeDeadlineCompletesDespiteTransitDelay) {
  // The wire deadline is relative to SERVER admission: a client-side pause
  // between encoding and sending must not erode it (absolute semantics
  // would make this flaky; relative semantics make it a non-event).
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::RequestFrame rf = BfsRequest(0);
  rf.deadline_rel_ms = 60000.0;
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(rf, &bytes);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // "transit"
  ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, h_->OracleVfp(0));
}

TEST_F(ServerTest, ServerStatsLedgerAddsUp) {
  BlockingClient cli(kTestTimeouts);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::Frame reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(cli.Call(BfsRequest(static_cast<VertexId>(i)), &reply, &err),
              ClientStatus::kOk);
  }
  wire::RequestFrame bad = BfsRequest(0);
  bad.kind = 200;
  ASSERT_EQ(cli.Call(bad, &reply, &err), ClientStatus::kOk);
  const ServerStats s = h_->server->stats();
  EXPECT_GE(s.accepted, 1u);
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.responses, 3u);
  EXPECT_EQ(s.rejects, 1u);
  EXPECT_EQ(s.decode_errors, 0u);
  EXPECT_GT(s.bytes_rx, 0u);
  EXPECT_GT(s.bytes_tx, 0u);
}

// ---------------------------------------------------------------------------
// Transport resilience (PR 10): lifecycle timeouts, pipeline caps, drain.

TEST_F(ServerTest, CloseMidWriteDoesNotKillServer) {
  // The SIGPIPE regression: clients that slam the connection shut while the
  // server owes them bytes. A reply written into the dead socket must be an
  // EPIPE errno under MSG_NOSIGNAL — a single raw write() here would kill
  // the whole process on the first iteration.
  std::string err;
  for (int i = 0; i < 30; ++i) {
    BlockingClient cli(kTestTimeouts);
    ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(static_cast<VertexId>(i % 64)), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
    cli.Close();  // gone before the reply can flush
  }
  for (int i = 0; i < 10; ++i) {
    // The between-header-and-body variant: leave the decoder mid-frame.
    BlockingClient cli(kTestTimeouts);
    ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(0), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), 10, &err), ClientStatus::kOk);
    cli.Close();
  }
  // The process survived; the server still answers.
  BlockingClient cli(kTestTimeouts);
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  wire::Frame reply;
  ASSERT_EQ(cli.Call(BfsRequest(1), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, h_->OracleVfp(1));
}

TEST_F(ServerTest, RecvTimeoutOnSilentServerIsTyped) {
  // The unbounded-ReadFrame fix: a server that legitimately never replies
  // (here: we sent half a frame, so it is WAITING, correctly) must cost the
  // client its recv budget, not forever.
  ClientTimeouts t;
  t.recv_ms = 150.0;
  BlockingClient cli(t);
  std::string err;
  ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(BfsRequest(0), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 10, &err), ClientStatus::kOk);
  const auto t0 = std::chrono::steady_clock::now();
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kTimedOut);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_GE(elapsed_ms, 100.0);
  EXPECT_LT(elapsed_ms, 5000.0);
}

TEST_F(ServerTest, FdChurnSoakReturnsToBaseline) {
  std::string err;
  {
    // Warm-up: first query initializes lazy process state (thread pool,
    // arenas) whose fds must not count against the churn.
    BlockingClient cli(kTestTimeouts);
    ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
    wire::Frame reply;
    ASSERT_EQ(cli.Call(BfsRequest(0), &reply, &err), ClientStatus::kOk);
  }
  // Let the server retire the warm-up connection before the baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);
  for (int i = 0; i < 300; ++i) {
    BlockingClient cli(kTestTimeouts);
    ASSERT_EQ(cli.ConnectUds(h_->uds, &err), ClientStatus::kOk);
    wire::Frame reply;
    ASSERT_EQ(cli.Call(BfsRequest(static_cast<VertexId>(i % 128)), &reply,
                       &err),
              ClientStatus::kOk)
        << "churn " << i << ": " << err;
    cli.Close();
  }
  // Server-side closes trail the client by a poll cycle; wait them out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CountOpenFds() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(CountOpenFds(), baseline);
}

TEST(ServerLifecycleTest, ConnectionSlotsRecycleAfterOverflow) {
  ServerOptions opts;
  opts.max_connections = 2;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient a(kTestTimeouts);
  BlockingClient b(kTestTimeouts);
  ASSERT_EQ(a.ConnectUds(h.uds, &err), ClientStatus::kOk);
  ASSERT_EQ(b.ConnectUds(h.uds, &err), ClientStatus::kOk);
  wire::Frame reply;
  // Calls force both connections through accept before the overflow probe.
  ASSERT_EQ(a.Call(BfsRequest(0, 1), &reply, &err), ClientStatus::kOk);
  ASSERT_EQ(b.Call(BfsRequest(1, 2), &reply, &err), ClientStatus::kOk);

  // Third connection: connect() lands in the backlog, then the dispatch
  // loop closes it at the cap — the client's next read sees the EOF.
  BlockingClient c(kTestTimeouts);
  ASSERT_EQ(c.ConnectUds(h.uds, &err), ClientStatus::kOk);
  const ClientStatus over = c.Call(BfsRequest(2, 3), &reply, &err);
  // EPIPE on the send or EOF on the read, depending on who raced whom —
  // either way a typed transport failure, never a hang.
  EXPECT_TRUE(over == ClientStatus::kRecvFailed ||
              over == ClientStatus::kSendFailed)
      << ToString(over);

  // Freeing a slot lets a NEW connection in (the loop must notice the close
  // and recycle — a leaked slot would refuse forever).
  a.Close();
  bool recycled = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!recycled && std::chrono::steady_clock::now() < deadline) {
    BlockingClient d(kTestTimeouts);
    if (d.ConnectUds(h.uds, &err) == ClientStatus::kOk &&
        d.Call(BfsRequest(3, 4), &reply, &err) == ClientStatus::kOk &&
        reply.type == wire::MsgType::kResponse) {
      recycled = true;
    }
    if (!recycled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recycled);
  const ServerStats s = h.server->stats();
  EXPECT_GE(s.overflow_closed, 1u);
  EXPECT_GE(s.accepted, 3u);  // a, b, and the recycled d (c never got a slot)
  EXPECT_GE(s.closed, 1u);    // at least a's retirement
}

TEST(ServerLifecycleTest, PipelineCapRejectsTyped) {
  ServiceOptions so;
  so.start_paused = true;  // admitted queries queue; nothing resolves yet
  ServerOptions opts;
  opts.max_pipeline = 2;
  Harness h(opts, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 10000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  for (uint64_t id = 1; id <= 3; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(static_cast<VertexId>(id), id),
                        &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  // With two requests parked in the paused service, the third must bounce
  // off the per-connection cap immediately — a typed answer, not a queue.
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.request_id, 3u);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kPipelineFull));
  h.service->Resume();
  uint64_t got = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    ASSERT_EQ(reply.type, wire::MsgType::kResponse);
    got |= uint64_t{1} << reply.response.request_id;
  }
  EXPECT_EQ(got, (uint64_t{1} << 1) | (uint64_t{1} << 2));
  EXPECT_EQ(h.server->stats().pipeline_rejects, 1u);
}

TEST(ServerLifecycleTest, SlowLorisPartialFrameGetsTimedOutReject) {
  ServerOptions opts;
  opts.header_timeout_ms = 100.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli(kTestTimeouts);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(BfsRequest(0, 1), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), 6, &err), ClientStatus::kOk);
  // The server must answer the stall itself: a typed kTimedOut reject, then
  // the close — not an open-ended wait for bytes that never come.
  wire::Frame reply;
  ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kReject);
  EXPECT_EQ(reply.reject.code,
            static_cast<uint8_t>(wire::RejectCode::kTimedOut));
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  EXPECT_EQ(h.server->stats().header_timeout_closed, 1u);
}

TEST(ServerLifecycleTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli(kTestTimeouts);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  // Say nothing, owe nothing: the reap is a plain close (EOF), no reject —
  // there is no request to answer.
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  EXPECT_EQ(h.server->stats().idle_closed, 1u);
}

TEST(ServerLifecycleTest, SlowReaderOverOutbufCapIsClosed) {
  ServerOptions opts;
  opts.sndbuf_bytes = 4096;      // shrink the kernel's slack
  opts.max_outbuf_bytes = 8192;  // user-space backlog cap
  opts.write_stall_timeout_ms = 200.0;
  Harness h(opts);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli(kTestTimeouts);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  // 64 want_values requests, never reading a byte back: ~36 KB of replies
  // pile up behind a 4 KB kernel buffer, blow the 8 KB cap, and the stall
  // clock runs out. Read-side flow control means the server stops taking
  // new requests from us first; the axe falls 200 ms later.
  for (uint64_t id = 1; id <= 64; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(
        BfsRequest(static_cast<VertexId>(id % 128), id), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.server->stats().slow_reader_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(h.server->stats().slow_reader_closed, 1u);
}

TEST(ServerDrainTest, DrainAnswersPendingThenCloses) {
  ServiceOptions so;
  so.start_paused = true;
  Harness h({}, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  ClientTimeouts t;
  t.recv_ms = 15000.0;
  BlockingClient cli(t);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  for (uint64_t id = 1; id <= 2; ++id) {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(static_cast<VertexId>(id), id),
                        &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  // Both admitted (and parked — the service is paused) before Drain starts.
  auto wait_requests = [&](uint64_t n) {
    const auto dl = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (h.server->stats().requests < n &&
           std::chrono::steady_clock::now() < dl) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  wait_requests(2);
  ASSERT_EQ(h.server->stats().requests, 2u);

  bool clean = false;
  std::thread drainer([&] { clean = h.server->Drain(15000.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // A request arriving MID-drain is answered with the typed stopping
  // reject — the connection is still being read precisely for this.
  {
    std::vector<uint8_t> bytes;
    wire::EncodeRequest(BfsRequest(3, 9), &bytes);
    ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err),
              ClientStatus::kOk);
  }
  h.service->Resume();  // now the two parked queries run and resolve

  int responses = 0;
  int stopping = 0;
  for (int i = 0; i < 3; ++i) {
    wire::Frame reply;
    ASSERT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kOk) << err;
    if (reply.type == wire::MsgType::kResponse) {
      ++responses;
      // Request ids 1 and 2 asked from sources 1 and 2.
      EXPECT_EQ(reply.response.value_fingerprint,
                h.OracleVfp(static_cast<VertexId>(reply.response.request_id)));
    } else if (reply.type == wire::MsgType::kReject &&
               reply.reject.code ==
                   static_cast<uint8_t>(wire::RejectCode::kServerStopping)) {
      EXPECT_EQ(reply.reject.request_id, 9u);
      ++stopping;
    }
  }
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(stopping, 1);
  // Everything owed was delivered; the server closes the connection.
  wire::Frame reply;
  EXPECT_EQ(cli.ReadFrame(&reply, &err), ClientStatus::kRecvFailed);
  drainer.join();
  EXPECT_TRUE(clean);
  const ServerStats s = h.server->stats();
  EXPECT_EQ(s.drained_replies, 2u);
  EXPECT_EQ(s.drain_dropped, 0u);
}

TEST(ServerDrainTest, DrainDeadlineDropsStuckReplies) {
  ServiceOptions so;
  so.start_paused = true;  // never resumed: the reply can never resolve
  Harness h({}, so);
  ASSERT_TRUE(h.ok) << h.error;
  std::string err;
  BlockingClient cli(kTestTimeouts);
  ASSERT_EQ(cli.ConnectUds(h.uds, &err), ClientStatus::kOk);
  std::vector<uint8_t> bytes;
  wire::EncodeRequest(BfsRequest(1, 1), &bytes);
  ASSERT_EQ(cli.SendRaw(bytes.data(), bytes.size(), &err), ClientStatus::kOk);
  const auto dl = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server->stats().requests < 1 &&
         std::chrono::steady_clock::now() < dl) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(h.server->stats().requests, 1u);
  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = h.server->Drain(300.0);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_FALSE(clean);
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 5000.0);  // bounded: the deadline cuts it loose
  EXPECT_EQ(h.server->stats().drain_dropped, 1u);
}

// Direct (in-process) admission must enforce the same kind-byte bound guard
// the wire path relies on — the service-side half of the sweep.
TEST(AdmissionKindGuardTest, OutOfRangeKindIsRejectedInvalid) {
  const Graph g = Graph::FromEdges(GenerateRmat(6, 8, 3), false);
  ServiceOptions so;
  so.workers = 1;
  GraphService svc(g, so);
  Query q;
  q.kind = static_cast<QueryKind>(200);
  q.source = 0;
  auto ticket = svc.Submit(q);
  EXPECT_EQ(ticket.verdict, AdmissionVerdict::kRejectedInvalid);
  Query sentinel;
  sentinel.kind = QueryKind::kCount;  // the sentinel itself is not a kind
  auto t2 = svc.Submit(sentinel);
  EXPECT_EQ(t2.verdict, AdmissionVerdict::kRejectedInvalid);
  svc.Shutdown();
}

}  // namespace
}  // namespace simdx::service
