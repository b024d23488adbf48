#include "service/codec.h"

#include <cstring>

namespace simdx::service::wire {

namespace {

// The header is serialized field-by-field (not memcpy'd as a struct) so the
// wire layout is pinned by this code, not by compiler padding decisions.
// Frames encode in place: BeginFrame appends a header with length/CRC
// placeholders, the body writes directly into *out, and EndFrame backfills —
// no per-frame body staging buffer, which matters when a response carries a
// want_values payload.
size_t BeginFrame(MsgType type, std::vector<uint8_t>* out) {
  const size_t head_at = out->size();
  ByteWriter w(out);
  w.Pod(kFrameMagic);
  w.Pod(kWireVersion);
  w.Pod(static_cast<uint16_t>(type));
  w.Pod(uint32_t{0});  // body_length, backfilled by EndFrame
  w.Pod(uint32_t{0});  // body_crc, backfilled by EndFrame
  return head_at;
}

void EndFrame(size_t head_at, std::vector<uint8_t>* out) {
  const size_t body_at = head_at + kFrameHeaderBytes;
  const uint32_t body_length = static_cast<uint32_t>(out->size() - body_at);
  const uint32_t body_crc = Crc32(out->data() + body_at, body_length);
  std::memcpy(out->data() + head_at + 8, &body_length, sizeof(body_length));
  std::memcpy(out->data() + head_at + 12, &body_crc, sizeof(body_crc));
}

bool ParseRequestBody(ByteReader& r, RequestFrame* f) {
  r.Pod(&f->request_id);
  r.Pod(&f->kind);
  r.Pod(&f->source);
  r.Pod(&f->k);
  r.Pod(&f->deadline_rel_ms);
  r.Pod(&f->max_attempts);
  r.Pod(&f->want_values);
  return r.AtEnd();  // trailing garbage is malformed, not ignored
}

bool ParseResponseBody(ByteReader& r, ResponseFrame* f) {
  r.Pod(&f->request_id);
  r.Pod(&f->kind);
  r.Pod(&f->outcome);
  r.Pod(&f->served);
  r.Pod(&f->attempts);
  r.Pod(&f->queue_ms);
  r.Pod(&f->run_ms);
  r.Pod(&f->value_fingerprint);
  r.Vec(&f->value_bytes);
  return r.AtEnd();
}

bool ParseRejectBody(ByteReader& r, RejectFrame* f) {
  r.Pod(&f->request_id);
  r.Pod(&f->code);
  r.Str(&f->detail);
  return r.AtEnd();
}

}  // namespace

const char* ToString(MsgType t) {
  switch (t) {
    case MsgType::kRequest:
      return "request";
    case MsgType::kResponse:
      return "response";
    case MsgType::kReject:
      return "reject";
  }
  return "?";
}

const char* ToString(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadMsgType:
      return "bad-msg-type";
    case DecodeStatus::kOversizedBody:
      return "oversized-body";
    case DecodeStatus::kBadCrc:
      return "bad-crc";
    case DecodeStatus::kMalformedBody:
      return "malformed-body";
  }
  return "?";
}

bool IsFatal(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kBadMagic:
    case DecodeStatus::kBadVersion:
    case DecodeStatus::kOversizedBody:
    case DecodeStatus::kBadCrc:
      return true;
    case DecodeStatus::kOk:
    case DecodeStatus::kNeedMore:
    case DecodeStatus::kBadMsgType:
    case DecodeStatus::kMalformedBody:
      return false;
  }
  return true;
}

const char* ToString(RejectCode c) {
  switch (c) {
    case RejectCode::kBadFrame:
      return "bad-frame";
    case RejectCode::kMalformedBody:
      return "malformed-body";
    case RejectCode::kInvalidQuery:
      return "invalid-query";
    case RejectCode::kShedQueueFull:
      return "shed-queue-full";
    case RejectCode::kShedDeadline:
      return "shed-deadline";
    case RejectCode::kServerStopping:
      return "server-stopping";
    case RejectCode::kTimedOut:
      return "timed-out";
    case RejectCode::kPipelineFull:
      return "pipeline-full";
  }
  return "?";
}

void EncodeRequest(const RequestFrame& f, std::vector<uint8_t>* out) {
  const size_t head_at = BeginFrame(MsgType::kRequest, out);
  ByteWriter w(out);
  w.Pod(f.request_id);
  w.Pod(f.kind);
  w.Pod(f.source);
  w.Pod(f.k);
  w.Pod(f.deadline_rel_ms);
  w.Pod(f.max_attempts);
  w.Pod(f.want_values);
  EndFrame(head_at, out);
}

void EncodeResponse(const ResponseFrame& f, std::vector<uint8_t>* out) {
  const size_t head_at = BeginFrame(MsgType::kResponse, out);
  ByteWriter w(out);
  w.Pod(f.request_id);
  w.Pod(f.kind);
  w.Pod(f.outcome);
  w.Pod(f.served);
  w.Pod(f.attempts);
  w.Pod(f.queue_ms);
  w.Pod(f.run_ms);
  w.Pod(f.value_fingerprint);
  w.Pod(static_cast<uint64_t>(f.value_bytes.size()));
  w.Bytes(f.value_bytes.data(), f.value_bytes.size());
  EndFrame(head_at, out);
}

void EncodeReject(const RejectFrame& f, std::vector<uint8_t>* out) {
  const size_t head_at = BeginFrame(MsgType::kReject, out);
  ByteWriter w(out);
  w.Pod(f.request_id);
  w.Pod(f.code);
  w.Str(f.detail);
  EndFrame(head_at, out);
}

void FrameDecoder::Feed(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  // Compact the consumed prefix before it dominates the buffer — keeps the
  // steady-state footprint at one partial frame, not the connection's
  // lifetime byte count.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), p, p + size);
}

DecodeStatus FrameDecoder::Next(Frame* out) {
  if (poisoned_ != DecodeStatus::kOk) {
    return poisoned_;  // sticky: past a framing error the stream is noise
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) {
    return DecodeStatus::kNeedMore;
  }
  const uint8_t* head = buf_.data() + pos_;

  // Header fields, validated in order so the FIRST lie is the one reported.
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t raw_type = 0;
  uint32_t body_length = 0;
  uint32_t body_crc = 0;
  {
    ByteReader r(head, kFrameHeaderBytes);
    r.Pod(&magic);
    r.Pod(&version);
    r.Pod(&raw_type);
    r.Pod(&body_length);
    r.Pod(&body_crc);
  }
  if (magic != kFrameMagic) {
    return poisoned_ = DecodeStatus::kBadMagic;
  }
  if (version != kWireVersion) {
    return poisoned_ = DecodeStatus::kBadVersion;
  }
  // The length cap is checked BEFORE comparing against buffered bytes: a
  // hostile 4 GiB length must be refused outright, not waited for.
  if (body_length > kMaxBodyBytes) {
    return poisoned_ = DecodeStatus::kOversizedBody;
  }
  if (avail < kFrameHeaderBytes + body_length) {
    return DecodeStatus::kNeedMore;  // torn mid-frame: reassemble on Feed
  }
  const uint8_t* body = head + kFrameHeaderBytes;
  if (Crc32(body, body_length) != body_crc) {
    return poisoned_ = DecodeStatus::kBadCrc;
  }

  // The frame is structurally sound from here on: whatever the body says,
  // the stream stays in sync, so these failures consume the frame and the
  // connection may continue.
  pos_ += kFrameHeaderBytes + body_length;
  if (raw_type != static_cast<uint16_t>(MsgType::kRequest) &&
      raw_type != static_cast<uint16_t>(MsgType::kResponse) &&
      raw_type != static_cast<uint16_t>(MsgType::kReject)) {
    return DecodeStatus::kBadMsgType;
  }
  out->type = static_cast<MsgType>(raw_type);
  ByteReader r(body, body_length);
  bool parsed = false;
  switch (out->type) {
    case MsgType::kRequest:
      out->request = RequestFrame();
      parsed = ParseRequestBody(r, &out->request);
      break;
    case MsgType::kResponse:
      out->response = ResponseFrame();
      parsed = ParseResponseBody(r, &out->response);
      break;
    case MsgType::kReject:
      out->reject = RejectFrame();
      parsed = ParseRejectBody(r, &out->reject);
      break;
  }
  if (!parsed) {
    return DecodeStatus::kMalformedBody;
  }
  ++frames_decoded_;
  return DecodeStatus::kOk;
}

}  // namespace simdx::service::wire
