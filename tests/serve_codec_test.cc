// Wire-codec tests: round-trips for every message type, the adversarial
// malformed-frame suite (ISSUE 8 satellite), and stream reassembly.
#include "serve/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace imrm::serve {
namespace {

qos::QosRequest sample_qos() {
  qos::QosRequest q;
  q.bandwidth = {qos::kbps(32.0), qos::kbps(128.0)};
  q.delay_bound = 10.0;
  q.jitter_bound = 10.0;
  q.loss_bound = 0.05;
  q.traffic = {8000.0, 8000.0};
  return q;
}

// One freshly encoded frame per call (the codec itself writes into caller
// buffers).
std::vector<std::uint8_t> request_bytes(std::uint64_t id, const Request& body) {
  std::vector<std::uint8_t> out;
  encode_request(id, body, out);
  return out;
}

std::vector<std::uint8_t> reply_bytes(std::uint64_t id, const Reply& body) {
  std::vector<std::uint8_t> out;
  encode_reply(id, body, out);
  return out;
}

// ---- round trips ---------------------------------------------------------

TEST(ServeCodec, AdmitRoundTrip) {
  AdmitRequest req;
  req.portable = 42;
  req.cell = 7;
  req.uplink = true;
  req.qos = sample_qos();
  const auto bytes = request_bytes(99, req);
  const RequestFrame frame = decode_request(bytes);
  EXPECT_EQ(frame.request_id, 99u);
  const auto& out = std::get<AdmitRequest>(frame.body);
  EXPECT_EQ(out.portable, 42u);
  EXPECT_EQ(out.cell, 7u);
  EXPECT_TRUE(out.uplink);
  EXPECT_DOUBLE_EQ(out.qos.bandwidth.b_min, qos::kbps(32.0));
  EXPECT_DOUBLE_EQ(out.qos.bandwidth.b_max, qos::kbps(128.0));
  EXPECT_DOUBLE_EQ(out.qos.delay_bound, 10.0);
  EXPECT_DOUBLE_EQ(out.qos.jitter_bound, 10.0);
  EXPECT_DOUBLE_EQ(out.qos.loss_bound, 0.05);
  EXPECT_DOUBLE_EQ(out.qos.traffic.sigma, 8000.0);
  EXPECT_DOUBLE_EQ(out.qos.traffic.l_max, 8000.0);
}

TEST(ServeCodec, AllRequestTypesRoundTrip) {
  const Request requests[] = {
      AdmitRequest{1, 2, false, sample_qos()},
      TeardownRequest{3},
      HandoffRequest{4, 5},
      ProbeRequest{},
      ShutdownRequest{},
  };
  std::uint64_t id = 1000;
  for (const Request& request : requests) {
    const auto bytes = request_bytes(id, request);
    const RequestFrame frame = decode_request(bytes);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.body.index(), request.index());
    ++id;
  }
}

TEST(ServeCodec, AllReplyTypesRoundTrip) {
  const Reply replies[] = {
      AdmitReply{true, 0, 64000.0},
      TeardownReply{true},
      HandoffReply{false},
      ProbeReply{10, 8, 2, 1, 3, 16},
      ShutdownReply{},
      ShedReply{2500.0},
      ErrorReply{ServiceError::kUnknownCell, "cell 99 out of range"},
  };
  std::uint64_t id = 5;
  for (const Reply& reply : replies) {
    const auto bytes = reply_bytes(id, reply);
    const ReplyFrame frame = decode_reply(bytes);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.body.index(), reply.index());
    ++id;
  }
  const auto bytes = reply_bytes(1, replies[6]);
  const auto err = std::get<ErrorReply>(decode_reply(bytes).body);
  EXPECT_EQ(err.error, ServiceError::kUnknownCell);
  EXPECT_EQ(err.message, "cell 99 out of range");
}

TEST(ServeCodec, EncodeReplacesContentsAndKeepsTheBuffer) {
  std::vector<std::uint8_t> buffer;
  encode_request(1, AdmitRequest{1, 2, true, sample_qos()}, buffer);
  const std::uint8_t* data = buffer.data();
  const std::size_t capacity = buffer.capacity();
  EXPECT_GE(capacity, kFrameReserve);
  // A shorter frame reuses the storage and leaves no stale bytes behind.
  encode_request(2, TeardownRequest{9}, buffer);
  EXPECT_EQ(buffer, request_bytes(2, TeardownRequest{9}));
  encode_reply(3, ProbeReply{1, 2, 3, 4, 5, 6}, buffer);
  EXPECT_EQ(buffer, reply_bytes(3, ProbeReply{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(buffer.data(), data);
  EXPECT_EQ(buffer.capacity(), capacity);
  // A frame longer than the reserve grows the buffer once, and is exact.
  const ErrorReply long_error{ServiceError::kUnknownCell, std::string(200, 'x')};
  encode_reply(4, long_error, buffer);
  EXPECT_EQ(buffer, reply_bytes(4, long_error));
  EXPECT_EQ(std::get<ErrorReply>(decode_reply(buffer).body).message.size(), 200u);
}

TEST(ServeCodec, ProbeReplyCarriesCounters) {
  const auto bytes = reply_bytes(7, ProbeReply{100, 90, 10, 3, 12, 24});
  const auto probe = std::get<ProbeReply>(decode_reply(bytes).body);
  EXPECT_EQ(probe.offered, 100u);
  EXPECT_EQ(probe.processed, 90u);
  EXPECT_EQ(probe.shed, 10u);
  EXPECT_EQ(probe.errors, 3u);
  EXPECT_EQ(probe.queue_depth, 12u);
  EXPECT_EQ(probe.cells, 24u);
}

// ---- adversarial malformed frames ----------------------------------------

std::vector<std::uint8_t> valid_probe_frame(std::uint64_t id = 1) {
  return request_bytes(id, ProbeRequest{});
}

CodecErrorCode decode_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)decode_request(bytes);
  } catch (const CodecError& e) {
    return e.code();
  }
  ADD_FAILURE() << "frame unexpectedly decoded";
  return CodecErrorCode::kTruncated;
}

TEST(ServeCodecAdversarial, TruncatedHeader) {
  const auto frame = valid_probe_frame();
  for (std::size_t n = 0; n < kHeaderBytes; ++n) {
    std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + std::ptrdiff_t(n));
    EXPECT_EQ(decode_error(cut), CodecErrorCode::kTruncated) << "prefix " << n;
  }
}

TEST(ServeCodecAdversarial, TruncatedPayload) {
  auto frame = request_bytes(1, TeardownRequest{9});
  ASSERT_GT(frame.size(), kHeaderBytes);
  frame.pop_back();
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kTruncated);
}

TEST(ServeCodecAdversarial, BadMagic) {
  auto frame = valid_probe_frame();
  frame[0] ^= 0xFF;
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kBadMagic);
}

TEST(ServeCodecAdversarial, BadVersion) {
  auto frame = valid_probe_frame();
  frame[4] = kWireVersion + 1;
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kBadVersion);
}

TEST(ServeCodecAdversarial, OversizedLength) {
  auto frame = valid_probe_frame();
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(frame.data() + 14, &huge, sizeof huge);
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kOversized);
}

TEST(ServeCodecAdversarial, GarbageType) {
  auto frame = valid_probe_frame();
  frame[5] = 0x7E;  // not a MsgType
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kBadType);
}

TEST(ServeCodecAdversarial, ReplyTypeInRequestPosition) {
  const auto reply = reply_bytes(1, ShutdownReply{});
  EXPECT_EQ(decode_error(reply), CodecErrorCode::kBadType);
}

TEST(ServeCodecAdversarial, GarbageFlagByte) {
  AdmitRequest req;
  req.qos = sample_qos();
  auto frame = request_bytes(1, req);
  frame[kHeaderBytes + 8] = 2;  // uplink flag: only 0/1 admissible
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kBadValue);
}

TEST(ServeCodecAdversarial, NonFiniteQos) {
  AdmitRequest req;
  req.qos = sample_qos();
  req.qos.delay_bound = std::numeric_limits<double>::infinity();
  const auto frame = request_bytes(1, req);
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kBadValue);
}

TEST(ServeCodecAdversarial, TrailingPayloadBytes) {
  auto frame = request_bytes(1, TeardownRequest{5});
  // Declare one extra payload byte and supply it: layout says 4.
  const std::uint32_t padded = 5;
  std::memcpy(frame.data() + 14, &padded, sizeof padded);
  frame.push_back(0xAA);
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kTrailing);
}

TEST(ServeCodecAdversarial, ExtraBytesAfterFrame) {
  auto frame = valid_probe_frame();
  frame.push_back(0x00);
  EXPECT_EQ(decode_error(frame), CodecErrorCode::kTrailing);
}

TEST(ServeCodecAdversarial, GarbageEnumInErrorReply) {
  auto frame = reply_bytes(1, ErrorReply{ServiceError::kNoSession, "x"});
  frame[kHeaderBytes] = kServiceErrorCount;  // one past the last valid code
  try {
    (void)decode_reply(frame);
    FAIL() << "decoded a reply with an out-of-range ServiceError";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.code(), CodecErrorCode::kBadValue);
  }
}

TEST(ServeCodecAdversarial, ErrorCodesHaveNames) {
  for (const auto code :
       {CodecErrorCode::kTruncated, CodecErrorCode::kBadMagic,
        CodecErrorCode::kBadVersion, CodecErrorCode::kOversized,
        CodecErrorCode::kBadType, CodecErrorCode::kBadValue,
        CodecErrorCode::kTrailing}) {
    EXPECT_STRNE(to_string(code), "");
  }
  for (std::uint8_t v = 0; v < kServiceErrorCount; ++v) {
    EXPECT_STRNE(to_string(ServiceError(v)), "");
  }
}

TEST(ServeCodecAdversarial, PeekRequestIdOnGarbage) {
  EXPECT_EQ(peek_request_id({0xDE, 0xAD, 0xBE, 0xEF}), 0u);
  std::vector<std::uint8_t> garbage(64, 0x5A);
  EXPECT_EQ(peek_request_id(garbage), 0u);
  EXPECT_EQ(peek_request_id(valid_probe_frame(77)), 77u);
}

// ---- stream reassembly ---------------------------------------------------

TEST(ServeAssembler, ReassemblesByteAtATime) {
  const auto a = request_bytes(1, TeardownRequest{4});
  const auto b = request_bytes(2, ProbeRequest{});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> frame;
  for (const std::uint8_t byte : stream) {
    assembler.feed(&byte, 1);
    while (assembler.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(ServeAssembler, FailsFastOnGarbageHeader) {
  FrameAssembler assembler;
  const std::vector<std::uint8_t> garbage(kHeaderBytes, 0x11);
  assembler.feed(garbage.data(), garbage.size());
  std::vector<std::uint8_t> frame;
  EXPECT_THROW((void)assembler.next(frame), CodecError);
}

TEST(ServeAssembler, ManyFramesOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto f = request_bytes(i, HandoffRequest{std::uint32_t(i), 1});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameAssembler assembler;
  assembler.feed(stream.data(), stream.size());
  std::vector<std::uint8_t> frame;
  std::uint64_t count = 0;
  while (assembler.next(frame)) {
    EXPECT_EQ(decode_request(frame).request_id, count);
    ++count;
  }
  EXPECT_EQ(count, 100u);
}

}  // namespace
}  // namespace imrm::serve
