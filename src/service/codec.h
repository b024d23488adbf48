// Wire-format codec for the resident query service: versioned,
// length-prefixed binary frames carrying requests, responses and typed
// rejects between PROCESSES — the boundary PRs 7-8 stopped short of (their
// clients were threads sharing the service's address space). The shape
// follows the classic daemon-protocol split (slurm's slurm_protocol_api /
// slurmdbd proc_req): a fixed header that lets a dispatch loop find frame
// boundaries in a byte stream, a self-describing body per message type, and
// a reject message for everything that cannot be served — so a decode error
// is an ANSWER, never a crash.
//
// Frame layout (little-endian host order, like the binary edge-list
// container in graph/io.h):
//   u32 magic       "SXW1" (0x31575853) — rejects cross-protocol traffic
//   u16 version     kWireVersion; a mismatch is kBadVersion, never a guess
//   u16 msg_type    MsgType
//   u32 body_length CAPPED by kMaxBodyBytes BEFORE any allocation: a hostile
//                   length can cost at most a reject, not a giant resize
//   u32 body_crc    CRC-32 (core/checkpoint.h Crc32) over the body bytes —
//                   a torn or corrupted body surfaces as kBadCrc
//   ... body_length bytes of body ...
//
// The body serializer is the checkpoint layer's ByteWriter; the parser is
// its bounds-checked ByteReader, so request bytes arriving from a socket get
// the same untrusted-bytes discipline the PR 6 snapshot/graph parsers pinned
// under ASan+UBSan: every read bounds-checked, string lengths validated
// against the remaining payload before any copy, trailing garbage rejected.
//
// Deadline contract (THE cross-process fix this layer bakes in): a request
// carries deadline_rel_ms, a duration RELATIVE to server-side admission.
// Clients never see — and must never try to produce — the service's
// absolute steady-clock domain (service.cc converts to absolute inside
// Submit, on ITS clock); an absolute deadline encoded by a remote client
// would be meaningless skew. tests/service/codec_test.cc pins that a
// round-trip preserves these semantics.
//
// Versioning rules (bench/README.md "wire protocol" section): the magic
// never changes; any change to the header layout or to an existing body
// field bumps kWireVersion (old peers get kBadVersion rejects instead of
// misparses); appending NEW trailing body fields also bumps the version —
// decoders reject trailing garbage by design, so there is no silent
// "ignore what you don't know" lane to get subtly wrong.
//
// Version history: 1 carried a fault spec string at the end of the request
// body, so any socket peer could arm fault injection on the server; 2 drops
// it (a version-1 frame is kBadVersion).
#ifndef SIMDX_SERVICE_CODEC_H_
#define SIMDX_SERVICE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "graph/types.h"
#include "service/query.h"

namespace simdx::service::wire {

inline constexpr uint32_t kFrameMagic = 0x31575853u;  // "SXW1"
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
// Body-length ceiling, enforced BEFORE allocation. Generous enough for a
// want_values response over a scale-24 graph (2^24 vertices x 4-byte
// values = 64 MiB) plus headroom; tight enough that a hostile 4 GiB length
// can never drive a resize.
inline constexpr uint32_t kMaxBodyBytes = 80u << 20;

enum class MsgType : uint16_t {
  kRequest = 1,   // client -> server: one query
  kResponse = 2,  // server -> client: the query's terminal answer
  kReject = 3,    // server -> client: typed "no" (decode error or admission)
};

const char* ToString(MsgType t);

// What Decode/FrameDecoder::Next can say. kNeedMore is NOT an error: it is
// the partial-read state a poll loop parks in until more bytes arrive (torn
// mid-frame writes reassemble through it). Everything from kBadMagic down
// is typed rejection — the caller answers with a reject frame instead of
// crashing, and for the header-level kinds also drops the connection, since
// frame sync is lost.
enum class DecodeStatus : uint8_t {
  kOk = 0,
  kNeedMore,       // incomplete header or body: keep the bytes, wait
  kBadMagic,       // not our protocol (or stream desync)
  kBadVersion,     // peer speaks a different kWireVersion
  kBadMsgType,     // framing intact, but an unknown MsgType
  kOversizedBody,  // declared body_length > kMaxBodyBytes (pre-allocation)
  kBadCrc,         // body bytes do not match the header's CRC-32
  kMalformedBody,  // CRC-valid body that does not parse as its msg_type
};

const char* ToString(DecodeStatus s);

// True for the statuses where the byte stream can no longer be trusted to
// contain a next frame boundary (the dispatch loop rejects AND closes);
// false for kBadMsgType/kMalformedBody, where the header walked the body
// correctly and the connection may continue.
bool IsFatal(DecodeStatus s);

// Reject taxonomy carried inside a kReject body: why the server said no.
enum class RejectCode : uint8_t {
  kBadFrame = 0,       // header-level decode error (magic/version/size/CRC)
  kMalformedBody = 1,  // body bytes failed to parse as the declared type
  kInvalidQuery = 2,   // parsed, but admission said kRejectedInvalid
  kShedQueueFull = 3,  // admission said kShedQueueFull
  kShedDeadline = 4,   // admission said kShedDeadline
  kServerStopping = 5, // the service is draining; retry elsewhere/later
  // Transport-resilience codes. New CODE VALUES, not new layout: the
  // reject body is unchanged (u64 id, u8 code, string detail), so they
  // needed no version bump — an older client renders an unknown code as
  // "?" but parses the frame fine.
  kTimedOut = 6,       // the connection sat on a partial frame too long
  kPipelineFull = 7,   // per-connection in-flight pipeline cap reached
};

const char* ToString(RejectCode c);

// One query as it crosses the wire. request_id is chosen by the client and
// echoed verbatim in the response/reject, which is what lets responses
// complete out of order over one connection.
struct RequestFrame {
  uint64_t request_id = 0;
  // QueryKind as a raw byte: the codec guarantees STRUCTURE, not range —
  // range policy belongs to admission (Submit rejects out-of-range kinds as
  // kRejectedInvalid; see the bound guard in service.cc), so a hostile kind
  // byte travels intact and is refused with a typed verdict, not a misparse.
  uint8_t kind = 0;
  VertexId source = 0;
  uint32_t k = 16;
  // RELATIVE deadline in ms, 0 = none. Converted to the service's absolute
  // steady-clock domain only inside Submit, on the server's clock.
  double deadline_rel_ms = 0.0;
  uint32_t max_attempts = 0;  // 0 = service default
  uint8_t want_values = 0;    // copy raw value bytes into the response
  // No fault spec crosses the wire: faults arm only in-process (a Query
  // handed to Submit directly, or SIMDX_FAULTS), never from a socket peer.
};

struct ResponseFrame {
  uint64_t request_id = 0;
  uint8_t kind = 0;      // QueryKind, echoed
  uint8_t outcome = 0;   // RunOutcome
  uint8_t served = 0;    // ServedBy (solo / batched / cache)
  uint32_t attempts = 0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  // FNV-1a over the query's own output-value bytes — the answer oracle a
  // remote client can compare against a direct-Submit run.
  uint64_t value_fingerprint = 0;
  std::vector<uint8_t> value_bytes;  // present iff the request want_values
};

struct RejectFrame {
  // Echoed from the request when one parsed far enough to have an id;
  // 0 for header-level garbage, where no request was ever identified.
  uint64_t request_id = 0;
  uint8_t code = 0;  // RejectCode
  std::string detail;
};

// Encoders: append one complete frame (header + body) to *out.
void EncodeRequest(const RequestFrame& f, std::vector<uint8_t>* out);
void EncodeResponse(const ResponseFrame& f, std::vector<uint8_t>* out);
void EncodeReject(const RejectFrame& f, std::vector<uint8_t>* out);

// One decoded frame; `type` selects which member is meaningful.
struct Frame {
  MsgType type = MsgType::kRequest;
  RequestFrame request;
  ResponseFrame response;
  RejectFrame reject;
};

// Incremental decoder with partial-read reassembly: Feed() whatever the
// socket produced (any fragmentation, down to one byte at a time), then call
// Next() until it returns kNeedMore. A fatal status poisons the decoder —
// further Next() calls keep returning it, mirroring ByteReader's sticky
// failure — because past a framing error the buffered bytes are noise.
class FrameDecoder {
 public:
  void Feed(const void* data, size_t size);
  DecodeStatus Next(Frame* out);

  size_t buffered() const { return buf_.size() - pos_; }
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix; compacted when it outgrows the tail
  DecodeStatus poisoned_ = DecodeStatus::kOk;
  uint64_t frames_decoded_ = 0;
};

}  // namespace simdx::service::wire

#endif  // SIMDX_SERVICE_CODEC_H_
