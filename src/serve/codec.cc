#include "serve/codec.h"

#include <cmath>
#include <cstring>

#include "qos/admission.h"

namespace imrm::serve {

namespace {

// Little-endian writer appending to a caller-owned byte vector, mirroring
// sim::CheckpointWriter but scoped to wire frames.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str32(const std::string& s) {
    u32(std::uint32_t(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_[offset + std::size_t(i)] = std::uint8_t(v >> (8 * i));
  }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t>& bytes_;
};

// Bounds-checked little-endian reader; every overrun is a typed kTruncated.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str32() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Payloads must be consumed exactly: leftover bytes mean the sender
  /// packed a different layout than the type byte claims.
  void expect_consumed() const {
    if (pos_ != size_) {
      throw CodecError(CodecErrorCode::kTrailing,
                       "serve codec: " + std::to_string(size_ - pos_) +
                           " trailing payload byte(s)");
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw CodecError(CodecErrorCode::kTruncated, "serve codec: truncated frame");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool decode_flag(Reader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw CodecError(CodecErrorCode::kBadValue,
                     std::string("serve codec: ") + what + " flag must be 0 or 1, got " +
                         std::to_string(int(v)));
  }
  return v != 0;
}

double decode_finite(Reader& r, const char* what) {
  const double v = r.f64();
  if (!std::isfinite(v)) {
    throw CodecError(CodecErrorCode::kBadValue,
                     std::string("serve codec: ") + what + " must be finite");
  }
  return v;
}

void encode_qos(Writer& w, const qos::QosRequest& q) {
  w.f64(q.bandwidth.b_min);
  w.f64(q.bandwidth.b_max);
  w.f64(q.delay_bound);
  w.f64(q.jitter_bound);
  w.f64(q.loss_bound);
  w.f64(q.traffic.sigma);
  w.f64(q.traffic.l_max);
}

qos::QosRequest decode_qos(Reader& r) {
  qos::QosRequest q;
  q.bandwidth.b_min = decode_finite(r, "qos b_min");
  q.bandwidth.b_max = decode_finite(r, "qos b_max");
  q.delay_bound = decode_finite(r, "qos delay_bound");
  q.jitter_bound = decode_finite(r, "qos jitter_bound");
  q.loss_bound = decode_finite(r, "qos loss_bound");
  q.traffic.sigma = decode_finite(r, "qos sigma");
  q.traffic.l_max = decode_finite(r, "qos l_max");
  return q;
}

/// Emits the 18-byte header into `out` (replacing its contents) with a
/// placeholder length, then patches the length once the payload has been
/// appended.
class FrameBuilder {
 public:
  FrameBuilder(MsgType type, std::uint64_t request_id, std::vector<std::uint8_t>& out)
      : w_(out) {
    out.clear();
    if (out.capacity() < kFrameReserve) out.reserve(kFrameReserve);
    w_.u32(kWireMagic);
    w_.u8(kWireVersion);
    w_.u8(std::uint8_t(type));
    w_.u64(request_id);
    len_offset_ = w_.size();
    w_.u32(0);
  }
  Writer& payload() { return w_; }
  void finish() { w_.patch_u32(len_offset_, std::uint32_t(w_.size() - kHeaderBytes)); }

 private:
  Writer w_;
  std::size_t len_offset_ = 0;
};

/// Validates the header and returns {type, request_id}; `size` must cover
/// exactly header + declared payload.
struct Header {
  MsgType type;
  std::uint64_t request_id;
  std::uint32_t payload_len;
};

Header decode_header(Reader& r, std::size_t total_size) {
  if (total_size < kHeaderBytes) {
    throw CodecError(CodecErrorCode::kTruncated,
                     "serve codec: frame shorter than the 18-byte header");
  }
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic) {
    throw CodecError(CodecErrorCode::kBadMagic, "serve codec: bad magic (not an IMRQ frame)");
  }
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw CodecError(CodecErrorCode::kBadVersion,
                     "serve codec: unsupported wire version " + std::to_string(int(version)));
  }
  const std::uint8_t type = r.u8();
  const std::uint64_t request_id = r.u64();
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxPayload) {
    throw CodecError(CodecErrorCode::kOversized,
                     "serve codec: payload length " + std::to_string(payload_len) +
                         " exceeds the " + std::to_string(kMaxPayload) + "-byte bound");
  }
  if (total_size < kHeaderBytes + payload_len) {
    throw CodecError(CodecErrorCode::kTruncated, "serve codec: truncated frame");
  }
  if (total_size > kHeaderBytes + payload_len) {
    throw CodecError(CodecErrorCode::kTrailing,
                     "serve codec: frame longer than header + declared payload");
  }
  return {MsgType(type), request_id, payload_len};
}

}  // namespace

const char* to_string(CodecErrorCode code) {
  switch (code) {
    case CodecErrorCode::kTruncated: return "truncated";
    case CodecErrorCode::kBadMagic: return "bad-magic";
    case CodecErrorCode::kBadVersion: return "bad-version";
    case CodecErrorCode::kOversized: return "oversized";
    case CodecErrorCode::kBadType: return "bad-type";
    case CodecErrorCode::kBadValue: return "bad-value";
    case CodecErrorCode::kTrailing: return "trailing-bytes";
  }
  return "unknown";
}

const char* to_string(ServiceError err) {
  switch (err) {
    case ServiceError::kMalformedFrame: return "malformed-frame";
    case ServiceError::kUnknownPortable: return "unknown-portable";
    case ServiceError::kUnknownCell: return "unknown-cell";
    case ServiceError::kAlreadyAdmitted: return "already-admitted";
    case ServiceError::kNoSession: return "no-session";
    case ServiceError::kShuttingDown: return "shutting-down";
    case ServiceError::kNotAdjacent: return "not-adjacent";
  }
  return "unknown";
}

void encode_request(std::uint64_t request_id, const Request& body,
                    std::vector<std::uint8_t>& out) {
  const MsgType type = std::visit(
      [](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, AdmitRequest>) return MsgType::kAdmit;
        else if constexpr (std::is_same_v<T, TeardownRequest>) return MsgType::kTeardown;
        else if constexpr (std::is_same_v<T, HandoffRequest>) return MsgType::kHandoff;
        else if constexpr (std::is_same_v<T, ProbeRequest>) return MsgType::kProbe;
        else return MsgType::kShutdown;
      },
      body);
  FrameBuilder frame(type, request_id, out);
  Writer& w = frame.payload();
  std::visit(
      [&w](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, AdmitRequest>) {
          w.u32(req.portable);
          w.u32(req.cell);
          w.u8(req.uplink ? 1 : 0);
          encode_qos(w, req.qos);
        } else if constexpr (std::is_same_v<T, TeardownRequest>) {
          w.u32(req.portable);
        } else if constexpr (std::is_same_v<T, HandoffRequest>) {
          w.u32(req.portable);
          w.u32(req.to_cell);
        }
        // Probe and Shutdown carry no payload.
      },
      body);
  frame.finish();
}

void encode_reply(std::uint64_t request_id, const Reply& body,
                  std::vector<std::uint8_t>& out) {
  const MsgType type = std::visit(
      [](const auto& rep) {
        using T = std::decay_t<decltype(rep)>;
        if constexpr (std::is_same_v<T, AdmitReply>) return MsgType::kAdmitReply;
        else if constexpr (std::is_same_v<T, TeardownReply>) return MsgType::kTeardownReply;
        else if constexpr (std::is_same_v<T, HandoffReply>) return MsgType::kHandoffReply;
        else if constexpr (std::is_same_v<T, ProbeReply>) return MsgType::kProbeReply;
        else if constexpr (std::is_same_v<T, ShutdownReply>) return MsgType::kShutdownReply;
        else if constexpr (std::is_same_v<T, ShedReply>) return MsgType::kShedReply;
        else return MsgType::kErrorReply;
      },
      body);
  FrameBuilder frame(type, request_id, out);
  Writer& w = frame.payload();
  std::visit(
      [&w](const auto& rep) {
        using T = std::decay_t<decltype(rep)>;
        if constexpr (std::is_same_v<T, AdmitReply>) {
          w.u8(rep.accepted ? 1 : 0);
          w.u8(rep.reason);
          w.f64(rep.allocated_bps);
        } else if constexpr (std::is_same_v<T, TeardownReply>) {
          w.u8(rep.had_session ? 1 : 0);
        } else if constexpr (std::is_same_v<T, HandoffReply>) {
          w.u8(rep.completed ? 1 : 0);
        } else if constexpr (std::is_same_v<T, ProbeReply>) {
          w.u64(rep.offered);
          w.u64(rep.processed);
          w.u64(rep.shed);
          w.u64(rep.errors);
          w.u32(rep.queue_depth);
          w.u32(rep.cells);
        } else if constexpr (std::is_same_v<T, ShedReply>) {
          w.f64(rep.retry_after_us);
        } else if constexpr (std::is_same_v<T, ErrorReply>) {
          w.u8(std::uint8_t(rep.error));
          w.str32(rep.message);
        }
        // ShutdownReply carries no payload.
      },
      body);
  frame.finish();
}

RequestFrame decode_request(const std::uint8_t* data, std::size_t size) {
  Reader header_reader(data, size);
  const Header h = decode_header(header_reader, size);
  Reader r(data + kHeaderBytes, h.payload_len);
  RequestFrame frame;
  frame.request_id = h.request_id;
  switch (h.type) {
    case MsgType::kAdmit: {
      AdmitRequest req;
      req.portable = r.u32();
      req.cell = r.u32();
      req.uplink = decode_flag(r, "admit direction");
      req.qos = decode_qos(r);
      frame.body = req;
      break;
    }
    case MsgType::kTeardown: {
      TeardownRequest req;
      req.portable = r.u32();
      frame.body = req;
      break;
    }
    case MsgType::kHandoff: {
      HandoffRequest req;
      req.portable = r.u32();
      req.to_cell = r.u32();
      frame.body = req;
      break;
    }
    case MsgType::kProbe:
      frame.body = ProbeRequest{};
      break;
    case MsgType::kShutdown:
      frame.body = ShutdownRequest{};
      break;
    default:
      throw CodecError(CodecErrorCode::kBadType,
                       "serve codec: unknown request type " +
                           std::to_string(int(h.type)));
  }
  r.expect_consumed();
  return frame;
}

ReplyFrame decode_reply(const std::uint8_t* data, std::size_t size) {
  Reader header_reader(data, size);
  const Header h = decode_header(header_reader, size);
  Reader r(data + kHeaderBytes, h.payload_len);
  ReplyFrame frame;
  frame.request_id = h.request_id;
  switch (h.type) {
    case MsgType::kAdmitReply: {
      AdmitReply rep;
      rep.accepted = decode_flag(r, "admit accepted");
      rep.reason = r.u8();
      if (rep.reason >= qos::kRejectReasonCount) {
        throw CodecError(CodecErrorCode::kBadValue,
                         "serve codec: reject reason " + std::to_string(int(rep.reason)) +
                             " out of range");
      }
      rep.allocated_bps = decode_finite(r, "allocated_bps");
      frame.body = rep;
      break;
    }
    case MsgType::kTeardownReply: {
      TeardownReply rep;
      rep.had_session = decode_flag(r, "teardown had_session");
      frame.body = rep;
      break;
    }
    case MsgType::kHandoffReply: {
      HandoffReply rep;
      rep.completed = decode_flag(r, "handoff completed");
      frame.body = rep;
      break;
    }
    case MsgType::kProbeReply: {
      ProbeReply rep;
      rep.offered = r.u64();
      rep.processed = r.u64();
      rep.shed = r.u64();
      rep.errors = r.u64();
      rep.queue_depth = r.u32();
      rep.cells = r.u32();
      frame.body = rep;
      break;
    }
    case MsgType::kShutdownReply:
      frame.body = ShutdownReply{};
      break;
    case MsgType::kShedReply: {
      ShedReply rep;
      rep.retry_after_us = decode_finite(r, "retry_after_us");
      if (rep.retry_after_us < 0.0) {
        throw CodecError(CodecErrorCode::kBadValue,
                         "serve codec: retry_after_us must be non-negative");
      }
      frame.body = rep;
      break;
    }
    case MsgType::kErrorReply: {
      ErrorReply rep;
      const std::uint8_t err = r.u8();
      if (err >= kServiceErrorCount) {
        throw CodecError(CodecErrorCode::kBadValue,
                         "serve codec: service error code " + std::to_string(int(err)) +
                             " out of range");
      }
      rep.error = ServiceError(err);
      rep.message = r.str32();
      frame.body = rep;
      break;
    }
    default:
      throw CodecError(CodecErrorCode::kBadType,
                       "serve codec: unknown reply type " + std::to_string(int(h.type)));
  }
  r.expect_consumed();
  return frame;
}

std::uint64_t peek_request_id(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return 0;
  Reader r(bytes.data(), kHeaderBytes);
  if (r.u32() != kWireMagic) return 0;
  if (r.u8() != kWireVersion) return 0;
  (void)r.u8();  // type — any value; the caller is building an error reply
  return r.u64();
}

void FrameAssembler::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed bytes once they dominate the buffer so a
  // long-lived connection doesn't grow the buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + std::ptrdiff_t(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameAssembler::next(std::vector<std::uint8_t>& frame) {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return false;
  const std::uint8_t* head = buffer_.data() + consumed_;
  // Validate the header eagerly: a garbage stream must fail on its first 18
  // bytes, not after buffering kMaxPayload of noise.
  Reader r(head, kHeaderBytes);
  if (r.u32() != kWireMagic) {
    throw CodecError(CodecErrorCode::kBadMagic, "serve codec: bad magic (not an IMRQ frame)");
  }
  if (r.u8() != kWireVersion) {
    throw CodecError(CodecErrorCode::kBadVersion, "serve codec: unsupported wire version");
  }
  (void)r.u8();   // type byte — validated by decode_request/decode_reply
  (void)r.u64();  // request id
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxPayload) {
    throw CodecError(CodecErrorCode::kOversized,
                     "serve codec: payload length " + std::to_string(payload_len) +
                         " exceeds the " + std::to_string(kMaxPayload) + "-byte bound");
  }
  const std::size_t frame_size = kHeaderBytes + payload_len;
  if (available < frame_size) return false;
  frame.assign(head, head + frame_size);
  consumed_ += frame_size;
  return true;
}

}  // namespace imrm::serve
