// Wire codec contract: round trips for all three frame types, the
// malformed-frame taxonomy (table-driven — every way a frame can lie maps to
// exactly one DecodeStatus, never a crash; the CI ASan job runs this test so
// a hostile length or torn body that touched memory it shouldn't would
// abort), partial-read reassembly down to one byte at a time, and the
// relative-deadline semantics the codec is REQUIRED to preserve across the
// process boundary.
#include "service/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "service/service.h"
#include "tests/service/wire_test_support.h"

namespace simdx::service::wire {
namespace {

ResponseFrame SampleResponse() {
  ResponseFrame f;
  f.request_id = 42;
  f.kind = static_cast<uint8_t>(QueryKind::kBfs);
  f.outcome = 0;
  f.served = 1;
  f.attempts = 2;
  f.queue_ms = 1.25;
  f.run_ms = 9.75;
  f.value_fingerprint = 0x1122334455667788ull;
  f.value_bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  return f;
}

// Feeds bytes and expects exactly one well-formed frame.
DecodeStatus DecodeOne(const std::vector<uint8_t>& bytes, Frame* out) {
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  return dec.Next(out);
}

TEST(CodecRoundTripTest, Request) {
  const RequestFrame in = SampleRequest();
  std::vector<uint8_t> bytes;
  EncodeRequest(in, &bytes);

  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  ASSERT_EQ(f.type, MsgType::kRequest);
  EXPECT_EQ(f.request.request_id, in.request_id);
  EXPECT_EQ(f.request.kind, in.kind);
  EXPECT_EQ(f.request.source, in.source);
  EXPECT_EQ(f.request.k, in.k);
  EXPECT_EQ(f.request.deadline_rel_ms, in.deadline_rel_ms);
  EXPECT_EQ(f.request.max_attempts, in.max_attempts);
  EXPECT_EQ(f.request.want_values, in.want_values);
}

TEST(CodecRoundTripTest, Response) {
  const ResponseFrame in = SampleResponse();
  std::vector<uint8_t> bytes;
  EncodeResponse(in, &bytes);

  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  ASSERT_EQ(f.type, MsgType::kResponse);
  EXPECT_EQ(f.response.request_id, in.request_id);
  EXPECT_EQ(f.response.kind, in.kind);
  EXPECT_EQ(f.response.served, in.served);
  EXPECT_EQ(f.response.attempts, in.attempts);
  EXPECT_EQ(f.response.queue_ms, in.queue_ms);
  EXPECT_EQ(f.response.run_ms, in.run_ms);
  EXPECT_EQ(f.response.value_fingerprint, in.value_fingerprint);
  EXPECT_EQ(f.response.value_bytes, in.value_bytes);
}

TEST(CodecRoundTripTest, Reject) {
  RejectFrame in;
  in.request_id = 9;
  in.code = static_cast<uint8_t>(RejectCode::kShedDeadline);
  in.detail = "backlog estimate exceeds the deadline";
  std::vector<uint8_t> bytes;
  EncodeReject(in, &bytes);

  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  ASSERT_EQ(f.type, MsgType::kReject);
  EXPECT_EQ(f.reject.request_id, in.request_id);
  EXPECT_EQ(f.reject.code, in.code);
  EXPECT_EQ(f.reject.detail, in.detail);
}

TEST(CodecRoundTripTest, EmptyValueBytesAndEmptyStrings) {
  ResponseFrame in;  // all defaults: no value bytes
  std::vector<uint8_t> bytes;
  EncodeResponse(in, &bytes);
  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  EXPECT_TRUE(f.response.value_bytes.empty());

  RejectFrame rj;  // empty detail, the one string on the wire
  bytes.clear();
  EncodeReject(rj, &bytes);
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  EXPECT_TRUE(f.reject.detail.empty());
}

// An out-of-range kind byte is STRUCTURALLY valid wire traffic: the codec
// carries it intact (range policy belongs to admission, which bound-guards
// before its per-kind arrays — see service.cc). The codec must neither
// reject nor clamp it.
TEST(CodecRoundTripTest, OutOfRangeKindByteTravelsIntact) {
  RequestFrame in = SampleRequest();
  in.kind = 200;
  std::vector<uint8_t> bytes;
  EncodeRequest(in, &bytes);
  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  EXPECT_EQ(f.request.kind, 200);
}

// ---- malformed frames: one status per lie, table-driven (the table lives
// in wire_test_support.h; server_test sends the same rows over a socket) ----

TEST(CodecMalformedTest, EveryLieGetsItsTypedStatus) {
  for (const MalformedCase& mc : MalformedCases()) {
    SCOPED_TRACE(mc.name);
    Frame f;
    EXPECT_EQ(DecodeOne(mc.bytes, &f), mc.expect);
  }
}

TEST(CodecMalformedTest, FatalSplitMatchesStreamTrust) {
  // Fatal = the stream lost its frame boundary; recoverable = the header
  // walked the body correctly. The dispatch loop's close-or-continue
  // decision hangs off this split, so pin it.
  EXPECT_TRUE(IsFatal(DecodeStatus::kBadMagic));
  EXPECT_TRUE(IsFatal(DecodeStatus::kBadVersion));
  EXPECT_TRUE(IsFatal(DecodeStatus::kOversizedBody));
  EXPECT_TRUE(IsFatal(DecodeStatus::kBadCrc));
  EXPECT_FALSE(IsFatal(DecodeStatus::kBadMsgType));
  EXPECT_FALSE(IsFatal(DecodeStatus::kMalformedBody));
  EXPECT_FALSE(IsFatal(DecodeStatus::kOk));
  EXPECT_FALSE(IsFatal(DecodeStatus::kNeedMore));
}

TEST(CodecMalformedTest, FatalStatusPoisonsTheDecoder) {
  auto bad = ValidRequestBytes();
  bad[0] ^= 0xFF;
  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kBadMagic);
  // Even pristine follow-up bytes cannot revive the stream.
  const auto good = ValidRequestBytes();
  dec.Feed(good.data(), good.size());
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kBadMagic);
}

TEST(CodecMalformedTest, RecoverableStatusConsumesTheFrameAndContinues) {
  auto bad = ValidRequestBytes();
  const uint16_t bogus = 77;
  std::memcpy(&bad[6], &bogus, sizeof(bogus));
  const auto good = ValidRequestBytes();

  FrameDecoder dec;
  dec.Feed(bad.data(), bad.size());
  dec.Feed(good.data(), good.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kBadMsgType);
  ASSERT_EQ(dec.Next(&f), DecodeStatus::kOk);  // the stream kept its sync
  EXPECT_EQ(f.type, MsgType::kRequest);
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kNeedMore);
}

// ---- reassembly ----

TEST(CodecReassemblyTest, TruncatedHeaderThenCompletion) {
  const auto bytes = ValidRequestBytes();
  FrameDecoder dec;
  Frame f;
  dec.Feed(bytes.data(), kFrameHeaderBytes - 3);
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kNeedMore);
  dec.Feed(bytes.data() + kFrameHeaderBytes - 3,
           bytes.size() - (kFrameHeaderBytes - 3));
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kOk);
}

TEST(CodecReassemblyTest, TornMidBodyThenCompletion) {
  const auto bytes = ValidRequestBytes();
  const size_t cut = kFrameHeaderBytes + 5;  // header complete, body torn
  FrameDecoder dec;
  Frame f;
  dec.Feed(bytes.data(), cut);
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kNeedMore);
  dec.Feed(bytes.data() + cut, bytes.size() - cut);
  ASSERT_EQ(dec.Next(&f), DecodeStatus::kOk);
  EXPECT_EQ(f.request.request_id, SampleRequest().request_id);
}

TEST(CodecReassemblyTest, OneByteAtATime) {
  const auto bytes = ValidRequestBytes();
  FrameDecoder dec;
  Frame f;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.Feed(&bytes[i], 1);
    ASSERT_EQ(dec.Next(&f), DecodeStatus::kNeedMore) << "byte " << i;
  }
  dec.Feed(&bytes.back(), 1);
  ASSERT_EQ(dec.Next(&f), DecodeStatus::kOk);
  // The body's last field arrived intact.
  EXPECT_EQ(f.request.want_values, SampleRequest().want_values);
}

TEST(CodecReassemblyTest, ManyFramesInOneFeed) {
  std::vector<uint8_t> bytes;
  constexpr int kFrames = 5;
  for (int i = 0; i < kFrames; ++i) {
    RequestFrame rf = SampleRequest();
    rf.request_id = static_cast<uint64_t>(i);
    EncodeRequest(rf, &bytes);
  }
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame f;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(dec.Next(&f), DecodeStatus::kOk);
    EXPECT_EQ(f.request.request_id, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(dec.Next(&f), DecodeStatus::kNeedMore);
  EXPECT_EQ(dec.frames_decoded(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---- the cross-process deadline contract ----

// A round-tripped deadline must still mean "relative to SERVER admission".
// Regression for the bug class this PR sweeps out: if the codec (or a
// client) converted to an absolute clock value, a deadline encoded before a
// queueing delay would arrive already half-expired — here, a generous
// relative deadline crossing the codec while the service is PAUSED must
// still admit and complete once resumed, because the clock only starts at
// Submit on the server side.
TEST(CodecDeadlineTest, RelativeDeadlineSurvivesEncodingDelay) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  ServiceOptions so;
  so.workers = 1;
  so.start_paused = true;
  GraphService svc(g, so);

  RequestFrame rf;
  rf.kind = static_cast<uint8_t>(QueryKind::kBfs);
  rf.source = 0;
  rf.deadline_rel_ms = 60000.0;  // one minute, relative
  std::vector<uint8_t> bytes;
  EncodeRequest(rf, &bytes);

  // Time passes between encoding and admission (a network, a queue...).
  // Relative semantics are immune; absolute semantics would be eroding.
  Frame f;
  ASSERT_EQ(DecodeOne(bytes, &f), DecodeStatus::kOk);
  EXPECT_EQ(f.request.deadline_rel_ms, 60000.0);

  Query q;
  q.kind = static_cast<QueryKind>(f.request.kind);
  q.source = f.request.source;
  q.deadline_ms = f.request.deadline_rel_ms;  // relative stays relative
  auto ticket = svc.Submit(q);
  ASSERT_EQ(ticket.verdict, AdmissionVerdict::kAdmitted);
  svc.Resume();
  const QueryResult r = ticket.result.get();
  EXPECT_TRUE(r.ok()) << "outcome=" << ToString(r.outcome);
  svc.Shutdown();
}

}  // namespace
}  // namespace simdx::service::wire
