// Transport seam tests: the in-process SPSC ring (single-threaded and
// cross-thread) and the AF_UNIX socket listener, including survival of a
// client that writes garbage at the server.
#include "serve/ring_transport.h"
#include "serve/socket_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace imrm::serve {
namespace {

using std::chrono::microseconds;

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

std::string temp_socket_path(const char* tag) {
  return "/tmp/imrm_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---- ring ----------------------------------------------------------------

TEST(RingTransport, SingleThreadedRoundTrip) {
  RingTransport ring;
  const auto request = request_bytes(1, ProbeRequest{});
  auto frame = request;
  ASSERT_TRUE(ring.client().send_request(frame));

  Envelope env;
  ASSERT_TRUE(ring.server().next_request(env, microseconds(0)));
  EXPECT_EQ(env.frame, request);

  const auto reply = reply_bytes(1, ProbeReply{});
  frame = reply;
  ring.server().send_reply(env.client, frame);
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(ring.client().next_reply(got, microseconds(0)));
  EXPECT_EQ(got, reply);
  EXPECT_EQ(ring.dropped_replies(), 0u);
}

TEST(RingTransport, EmptyRingReturnsFalseWithoutBlocking) {
  RingTransport ring;
  Envelope env;
  EXPECT_FALSE(ring.server().next_request(env, microseconds(0)));
  std::vector<std::uint8_t> reply;
  EXPECT_FALSE(ring.client().next_reply(reply, microseconds(0)));
}

TEST(RingTransport, BoundedRequestRingRejectsWhenFull) {
  RingTransport ring(/*request_capacity=*/4, /*reply_capacity=*/4);
  std::vector<std::uint8_t> frame;
  const auto send_probe = [&] {
    encode_request(1, ProbeRequest{}, frame);
    return ring.client().send_request(frame);
  };
  std::size_t accepted = 0;
  while (send_probe()) ++accepted;
  EXPECT_GE(accepted, 4u);   // rounded up to a power of two
  EXPECT_LE(accepted, 8u);
  EXPECT_EQ(frame, request_bytes(1, ProbeRequest{}));  // a refused frame is untouched
  Envelope env;
  ASSERT_TRUE(ring.server().next_request(env, microseconds(0)));
  EXPECT_TRUE(send_probe());  // slot freed
}

// Bursts of frames, pushed and popped in random batch sizes over many laps
// of a small ring, arrive intact and in order: trading spares never hands a
// side a buffer that still carries an undelivered frame.
TEST(SpscRing, BurstsArriveIntactWhileBuffersTrade) {
  SpscRing ring(8);
  std::mt19937 rng(7);
  std::deque<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> in;
  std::uint8_t next = 0;
  for (int round = 0; round < 2000; ++round) {
    for (int n = int(rng() % 10); n > 0; --n) {
      const std::vector<std::uint8_t> frame(1 + rng() % 40, next++);
      out = frame;
      if (!ring.push(out)) {
        EXPECT_EQ(out, frame);  // refused when full, untouched
        break;
      }
      expected.push_back(frame);
    }
    for (int n = int(rng() % 10); n > 0 && ring.pop(in); --n) {
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(in, expected.front());
      expected.pop_front();
    }
  }
  while (ring.pop(in)) {
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(in, expected.front());
    expected.pop_front();
  }
  EXPECT_TRUE(expected.empty());
}

// A warm ring recycles: in a request/reply ping-pong that re-encodes into
// the buffers the transport hands back, every buffer used after the first
// laps was already in circulation, and only a handful ever exist.
TEST(RingTransport, WarmRoundTripsReuseTheBuffersInCirculation) {
  RingTransport ring(/*request_capacity=*/16, /*reply_capacity=*/16);
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
  std::vector<std::uint8_t> received;
  Envelope env;
  std::set<const std::uint8_t*> warm;
  std::size_t fresh = 0;
  const auto note = [&](std::uint64_t id, const std::vector<std::uint8_t>& buffer) {
    if (id <= 100) {
      warm.insert(buffer.data());
    } else if (warm.count(buffer.data()) == 0) {
      ++fresh;
    }
  };
  for (std::uint64_t id = 1; id <= 400; ++id) {
    encode_request(id, HandoffRequest{std::uint32_t(id), 1}, request);
    note(id, request);
    ASSERT_TRUE(ring.client().send_request(request));
    ASSERT_TRUE(ring.server().next_request(env, microseconds(0)));
    ASSERT_EQ(decode_request(env.frame).request_id, id);
    encode_reply(id, HandoffReply{true}, reply);
    note(id, reply);
    ring.server().send_reply(env.client, reply);
    ASSERT_TRUE(ring.client().next_reply(received, microseconds(0)));
    ASSERT_EQ(decode_reply(received).request_id, id);
  }
  EXPECT_EQ(fresh, 0u);
  EXPECT_LE(warm.size(), 6u);
}

TEST(RingTransport, ClientCloseFinishesServer) {
  RingTransport ring;
  EXPECT_FALSE(ring.server().finished());
  auto frame = request_bytes(7, ProbeRequest{});
  ring.client().send_request(frame);
  ring.client().close();
  // Buffered requests stay readable after close; finished() only once empty.
  Envelope env;
  ASSERT_TRUE(ring.server().next_request(env, microseconds(0)));
  EXPECT_TRUE(ring.server().finished());
}

// Under ThreadSanitizer every atomic op and clock read in the poll loops is
// instrumented, which on a small host turns the full 20k-frame soak into
// minutes of wall time without exercising any additional interleavings —
// the handshake patterns repeat after the first few ring wraps. Keep enough
// frames to wrap both rings many times.
#if defined(__SANITIZE_THREAD__)
#define IMRM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IMRM_TSAN_BUILD 1
#endif
#endif

TEST(RingTransport, CrossThreadTransfersEverything) {
#if defined(IMRM_TSAN_BUILD)
  constexpr std::uint64_t kCount = 2000;
#else
  constexpr std::uint64_t kCount = 20000;
#endif
  RingTransport ring(256, 256);
  std::atomic<std::uint64_t> echoed{0};

  std::thread server([&] {
    Envelope env;
    std::vector<std::uint8_t> reply;
    std::uint64_t served = 0;
    while (served < kCount) {
      if (!ring.server().next_request(env, microseconds(500))) {
        if (ring.server().finished()) break;
        continue;
      }
      const RequestFrame frame = decode_request(env.frame);
      encode_reply(frame.request_id, ProbeReply{}, reply);
      ring.server().send_reply(env.client, reply);
      ++served;
    }
  });

  std::thread client_reader([&] {
    std::vector<std::uint8_t> reply;
    while (echoed.load(std::memory_order_relaxed) < kCount) {
      if (ring.client().next_reply(reply, microseconds(500))) {
        const ReplyFrame frame = decode_reply(reply);
        EXPECT_LT(frame.request_id, kCount);
        echoed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Cap in-flight requests below the reply ring's capacity: send_reply on a
  // full reply ring DROPS (counted, not blocked), so an unthrottled producer
  // plus a descheduled reader could lose replies and strand the reader loop
  // short of kCount. Replies in the ring never exceed sent - read.
  constexpr std::uint64_t kMaxInFlight = 128;
  std::vector<std::uint8_t> request;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (i - echoed.load(std::memory_order_relaxed) >= kMaxInFlight) {
      std::this_thread::yield();
    }
    encode_request(i, ProbeRequest{}, request);
    // The bounded ring applies backpressure: spin until the slot frees.
    while (!ring.client().send_request(request)) {
      std::this_thread::yield();
    }
  }
  client_reader.join();
  ring.client().close();
  server.join();
  EXPECT_EQ(echoed.load(), kCount);
  EXPECT_EQ(ring.dropped_replies(), 0u);
}

// ---- socket --------------------------------------------------------------

TEST(SocketTransport, LoopbackRoundTrip) {
  const std::string path = temp_socket_path("loopback");
  SocketServerTransport server(path);
  SocketClientTransport client(path);

  auto request = request_bytes(11, TeardownRequest{3});
  ASSERT_TRUE(client.send_request(request));
  Envelope env;
  // Accept + read may take a couple of pump rounds.
  bool got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    got = server.next_request(env, microseconds(10000));
  }
  ASSERT_TRUE(got);
  const RequestFrame frame = decode_request(env.frame);
  EXPECT_EQ(frame.request_id, 11u);

  auto reply_frame = reply_bytes(11, TeardownReply{true});
  server.send_reply(env.client, reply_frame);
  std::vector<std::uint8_t> reply;
  got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    got = client.next_reply(reply, microseconds(10000));
  }
  ASSERT_TRUE(got);
  EXPECT_TRUE(std::get<TeardownReply>(decode_reply(reply).body).had_session);
}

TEST(SocketTransport, GarbageStreamGetsErrorReplyAndDisconnect) {
  const std::string path = temp_socket_path("garbage");
  SocketServerTransport server(path);

  // A raw client that writes bytes that can never frame.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::vector<std::uint8_t> garbage(64, 0x5A);
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            ssize_t(garbage.size()));

  // The server must survive, hand no frame up, and answer with a typed
  // kMalformedFrame ErrorReply before hanging up.
  Envelope env;
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(server.next_request(env, microseconds(10000)));
    if (server.connections() == 0) break;
  }
  EXPECT_EQ(server.connections(), 0u);

  FrameAssembler assembler;
  std::uint8_t chunk[512];
  std::vector<std::uint8_t> reply_bytes;
  for (int i = 0; i < 50 && reply_bytes.empty(); ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      assembler.feed(chunk, std::size_t(n));
      std::vector<std::uint8_t> frame;
      if (assembler.next(frame)) reply_bytes = frame;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_FALSE(reply_bytes.empty()) << "no ErrorReply before disconnect";
  const ReplyFrame reply = decode_reply(reply_bytes);
  EXPECT_EQ(reply.request_id, 0u);
  EXPECT_EQ(std::get<ErrorReply>(reply.body).error,
            ServiceError::kMalformedFrame);
  ::close(fd);

  // A well-behaved client still gets service afterwards.
  SocketClientTransport good(path);
  auto probe = request_bytes(5, ProbeRequest{});
  ASSERT_TRUE(good.send_request(probe));
  bool got = false;
  for (int i = 0; i < 100 && !got; ++i) {
    got = server.next_request(env, microseconds(10000));
  }
  EXPECT_TRUE(got);
}

TEST(SocketTransport, BindFailureThrowsTyped) {
  EXPECT_THROW(SocketServerTransport("/nonexistent-dir-imrm/x.sock"),
               TransportError);
  EXPECT_THROW(SocketClientTransport(temp_socket_path("nobody-listens")),
               TransportError);
  EXPECT_THROW(SocketServerTransport(std::string(200, 'a')), TransportError);
}

}  // namespace
}  // namespace imrm::serve
