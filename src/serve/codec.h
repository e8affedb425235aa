// Wire codec for the admission-control service (ISSUE 8 tentpole).
//
// A request/reply frame is a fixed 18-byte header followed by a bounded,
// type-specific payload:
//
//   u32  magic        "IMRQ" little-endian (0x51524D49)
//   u8   version      kWireVersion (1)
//   u8   type         MsgType
//   u64  request_id   echoed verbatim in the matching reply
//   u32  payload_len  <= kMaxPayload
//   ...  payload      payload_len bytes, layout per type
//
// Parsing follows the sim::Checkpoint discipline: little-endian fixed-width
// integers, doubles as raw IEEE-754 bit patterns, every read bounds-checked.
// Malformed bytes — truncated header, wrong magic/version, oversized length,
// garbage enum values, trailing payload bytes — throw a typed CodecError and
// never reach undefined behaviour. The service treats every inbound frame as
// untrusted input; the decoder is the trust boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "qos/flow_spec.h"

namespace imrm::serve {

inline constexpr std::uint32_t kWireMagic = 0x51524D49u;  // "IMRQ" on the wire
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 18;
/// Largest admissible payload. The biggest real payload (AdmitRequest) is
/// 65 bytes; the bound exists so a corrupt length field cannot make a
/// reassembler buffer gigabytes before the type check runs.
inline constexpr std::uint32_t kMaxPayload = 1024;
/// Capacity an encoder reserves in an empty buffer: room for every frame
/// but an ErrorReply with a long message, so a fresh buffer grows once.
inline constexpr std::size_t kFrameReserve = 96;

enum class CodecErrorCode : std::uint8_t {
  kTruncated,   // fewer bytes than the header/payload declared
  kBadMagic,    // first 4 bytes are not "IMRQ"
  kBadVersion,  // version byte != kWireVersion
  kOversized,   // payload_len > kMaxPayload
  kBadType,     // type byte is not a known MsgType
  kBadValue,    // enum/flag field outside its domain
  kTrailing,    // payload longer than the type's layout
};

[[nodiscard]] const char* to_string(CodecErrorCode code);

class CodecError : public std::runtime_error {
 public:
  CodecError(CodecErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] CodecErrorCode code() const { return code_; }

 private:
  CodecErrorCode code_;
};

enum class MsgType : std::uint8_t {
  // Requests (driver -> service).
  kAdmit = 1,
  kTeardown = 2,
  kHandoff = 3,
  kProbe = 4,
  kShutdown = 5,
  // Replies (service -> driver); request type | 0x80.
  kAdmitReply = 129,
  kTeardownReply = 130,
  kHandoffReply = 131,
  kProbeReply = 132,
  kShutdownReply = 133,
  // Overload shed: the request was rejected before decode/admission.
  kShedReply = 192,
  // Typed failure (malformed frame, unknown portable, ...).
  kErrorReply = 255,
};

/// Service-level failure codes carried by ErrorReply.
enum class ServiceError : std::uint8_t {
  kMalformedFrame = 0,
  kUnknownPortable = 1,
  kUnknownCell = 2,
  kAlreadyAdmitted = 3,
  kNoSession = 4,
  kShuttingDown = 5,
  /// Handoff/relocation target is not a neighbor of the current cell.
  kNotAdjacent = 6,
};
inline constexpr std::uint8_t kServiceErrorCount = 7;

[[nodiscard]] const char* to_string(ServiceError err);

// ---- request payloads ----------------------------------------------------

struct AdmitRequest {
  std::uint32_t portable = 0;  // caller-chosen external id
  std::uint32_t cell = 0;      // cell the portable is (or starts) in
  bool uplink = false;
  qos::QosRequest qos;
};

struct TeardownRequest {
  std::uint32_t portable = 0;
};

struct HandoffRequest {
  std::uint32_t portable = 0;
  std::uint32_t to_cell = 0;
};

struct ProbeRequest {};

struct ShutdownRequest {};

using Request = std::variant<AdmitRequest, TeardownRequest, HandoffRequest,
                             ProbeRequest, ShutdownRequest>;

// ---- reply payloads ------------------------------------------------------

struct AdmitReply {
  bool accepted = false;
  /// qos::RejectReason value when the service pre-checked the request
  /// (currently only kInvalidRequest); 0 (kNone) otherwise.
  std::uint8_t reason = 0;
  double allocated_bps = 0.0;
};

struct TeardownReply {
  bool had_session = false;  // idempotent: false when nothing was open
};

struct HandoffReply {
  bool completed = false;  // false = the connection was dropped
};

struct ProbeReply {
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t cells = 0;
};

struct ShutdownReply {};

struct ShedReply {
  /// Suggested client backoff before retrying, microseconds.
  double retry_after_us = 0.0;
};

struct ErrorReply {
  ServiceError error = ServiceError::kMalformedFrame;
  std::string message;
};

using Reply = std::variant<AdmitReply, TeardownReply, HandoffReply, ProbeReply,
                           ShutdownReply, ShedReply, ErrorReply>;

struct RequestFrame {
  std::uint64_t request_id = 0;
  Request body;
};

struct ReplyFrame {
  std::uint64_t request_id = 0;
  Reply body;
};

// ---- encode / decode -----------------------------------------------------

/// Encodes one frame into `out`, replacing its contents. `out` keeps its
/// capacity, so a caller that reuses one buffer (see DESIGN.md, "Serve frame
/// buffers") encodes without allocating once the buffer has grown to
/// kFrameReserve or to the largest frame it carried.
void encode_request(std::uint64_t request_id, const Request& body,
                    std::vector<std::uint8_t>& out);
void encode_reply(std::uint64_t request_id, const Reply& body,
                  std::vector<std::uint8_t>& out);

/// Decodes one complete frame (header + payload, exactly). Throws CodecError.
[[nodiscard]] RequestFrame decode_request(const std::uint8_t* data, std::size_t size);
[[nodiscard]] ReplyFrame decode_reply(const std::uint8_t* data, std::size_t size);

[[nodiscard]] inline RequestFrame decode_request(const std::vector<std::uint8_t>& bytes) {
  return decode_request(bytes.data(), bytes.size());
}
[[nodiscard]] inline ReplyFrame decode_reply(const std::vector<std::uint8_t>& bytes) {
  return decode_reply(bytes.data(), bytes.size());
}

/// Best-effort request id for replying to a frame that failed full decode:
/// returns the header's id when the magic/version/length fields are sane,
/// 0 otherwise (clients treat id 0 as "unmatched diagnostic").
[[nodiscard]] std::uint64_t peek_request_id(const std::vector<std::uint8_t>& bytes);

/// Reassembles frames out of a byte stream (the socket transport's read
/// side). feed() appends raw bytes; next() extracts the next complete frame.
/// Header validation (magic, version, payload bound) happens as soon as the
/// 18 header bytes are in, so a garbage stream fails fast instead of
/// buffering until kMaxPayload.
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t size);

  /// True and fills `frame` when a complete frame was extracted; false when
  /// more bytes are needed. Throws CodecError on a malformed header.
  bool next(std::vector<std::uint8_t>& frame);

  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace imrm::serve
