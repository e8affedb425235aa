// In-process ring transport: a bounded SPSC ring in each direction.
//
// Two usage modes share this code:
//  * same-thread (virtual pacing) — the driver and the service interleave on
//    one sim::Simulator; push/pop never contend and the run is bit-
//    deterministic at a fixed seed;
//  * two threads (wall pacing) — one producer thread (driver) and one
//    consumer thread (service) per ring, the classic single-producer/
//    single-consumer discipline with acquire/release indices and no locks.
//
// Capacity bounds are part of the overload story: a full request ring is
// transport backpressure (counted by the driver as `drive.backpressure`),
// upstream of the service's own queue-depth shedding.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/transport.h"

namespace imrm::serve {

/// Fixed-capacity single-producer/single-consumer frame ring. Capacity is
/// rounded up to a power of two so the index math is a mask, not a modulo.
///
/// Slots trade buffers instead of moving them out: pop() leaves the
/// consumer's old buffer in the slot it read, and push() hands the producer
/// a spare in exchange for its frame, so buffers circulate between the two
/// sides and a warm ring allocates nothing (DESIGN.md, "Serve frame
/// buffers"). A slot is constructed when the first push reaches it, so a
/// ring that only ever holds a few frames touches only a few slots.
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity);
  ~SpscRing();
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: swaps `frame` into the ring and leaves a spare buffer in
  /// `frame`. False when the ring is full (frame left untouched).
  bool push(std::vector<std::uint8_t>& frame);

  /// Consumer side: swaps the oldest frame into `frame`, leaving the buffer
  /// `frame` held in the slot as a spare. False when the ring is empty.
  bool pop(std::vector<std::uint8_t>& frame);

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using Frame = std::vector<std::uint8_t>;

  std::size_t capacity_;
  std::size_t mask_;
  // capacity_ slots of raw storage; slot i is constructed once push() has
  // reached position i, that is, the slots below min(head, capacity_).
  Frame* slots_;
  std::atomic<std::size_t> head_{0};  // next slot the producer writes
  std::atomic<std::size_t> tail_{0};  // next slot the consumer reads
  // Producer-only: the oldest released position whose spare push() has not
  // taken yet.
  std::size_t reclaim_ = 0;
};

/// The paired endpoints over two SpscRings (requests out, replies back).
/// Construct once, then hand server()/client() to the two sides. The
/// endpoints stay valid for the RingTransport's lifetime.
class RingTransport {
 public:
  /// `request_capacity` bounds in-flight unread requests (transport
  /// backpressure); `reply_capacity` must cover the largest burst of replies
  /// the driver lets accumulate between drains.
  explicit RingTransport(std::size_t request_capacity = 4096,
                         std::size_t reply_capacity = 8192);

  [[nodiscard]] ServerTransport& server() { return server_end_; }
  [[nodiscard]] ClientTransport& client() { return client_end_; }

  /// Replies the server could not enqueue (reply ring full). Zero in every
  /// correctly-sized run; tests assert on it.
  [[nodiscard]] std::uint64_t dropped_replies() const { return dropped_replies_; }

 private:
  class ServerEnd final : public ServerTransport {
   public:
    explicit ServerEnd(RingTransport* owner) : owner_(owner) {}
    bool next_request(Envelope& env, std::chrono::microseconds wait) override;
    void send_reply(std::uint64_t client, std::vector<std::uint8_t>& frame) override;
    [[nodiscard]] bool finished() const override;

   private:
    RingTransport* owner_;
  };

  class ClientEnd final : public ClientTransport {
   public:
    explicit ClientEnd(RingTransport* owner) : owner_(owner) {}
    bool send_request(std::vector<std::uint8_t>& frame) override;
    bool next_reply(std::vector<std::uint8_t>& frame,
                    std::chrono::microseconds wait) override;
    void close() override;

   private:
    RingTransport* owner_;
  };

  SpscRing requests_;
  SpscRing replies_;
  std::atomic<bool> client_closed_{false};
  std::uint64_t dropped_replies_ = 0;  // server-side only; single consumer
  ServerEnd server_end_{this};
  ClientEnd client_end_{this};
};

}  // namespace imrm::serve
