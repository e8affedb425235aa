#include "serve/ring_transport.h"

#include <algorithm>
#include <memory>
#include <thread>

namespace imrm::serve {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Spin-then-yield poll loop shared by both blocking reads. Returns false
/// once `wait` elapses without `ready()` turning true.
template <typename Ready>
bool wait_until(Ready&& ready, std::chrono::microseconds wait) {
  if (ready()) return true;
  if (wait.count() <= 0) return false;
  const auto deadline = std::chrono::steady_clock::now() + wait;
  int spins = 0;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    // A short spin catches the common fast handoff; after that, yield so a
    // same-core producer/consumer pair makes progress.
    if (++spins > 64) std::this_thread::yield();
  }
  return true;
}

}  // namespace

SpscRing::SpscRing(std::size_t capacity)
    : capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)), mask_(capacity_ - 1),
      slots_(std::allocator<Frame>().allocate(capacity_)) {}

SpscRing::~SpscRing() {
  std::destroy_n(slots_, std::min(head_.load(std::memory_order_relaxed), capacity_));
  std::allocator<Frame>().deallocate(slots_, capacity_);
}

bool SpscRing::push(std::vector<std::uint8_t>& frame) {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  const std::size_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail == capacity_) return false;
  // The first lap constructs the slot it writes: the consumer reads only
  // slots below head, and the spare trade below only slots below tail.
  if (head < capacity_) std::construct_at(slots_ + head);
  slots_[head & mask_].swap(frame);
  if (frame.capacity() == 0) {
    // `frame` holds a never-used vector (the ring's first lap, or one left
    // by an earlier trade). Trade it for the oldest spare the consumer left
    // in a released slot: a position below `tail`, whose pop happened
    // before the tail store this thread acquired, and above head - capacity,
    // which this side has not written since.
    if (reclaim_ + capacity_ <= head) reclaim_ = head + 1 - capacity_;
    if (reclaim_ < tail) frame.swap(slots_[reclaim_++ & mask_]);
  }
  head_.store(head + 1, std::memory_order_release);
  return true;
}

bool SpscRing::pop(std::vector<std::uint8_t>& frame) {
  const std::size_t tail = tail_.load(std::memory_order_relaxed);
  if (head_.load(std::memory_order_acquire) == tail) return false;
  slots_[tail & mask_].swap(frame);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

RingTransport::RingTransport(std::size_t request_capacity, std::size_t reply_capacity)
    : requests_(request_capacity), replies_(reply_capacity) {}

bool RingTransport::ServerEnd::next_request(Envelope& env,
                                            std::chrono::microseconds wait) {
  env.client = 0;
  const bool got = wait_until(
      [this] { return !owner_->requests_.empty() || owner_->client_closed_.load(
                          std::memory_order_acquire); },
      wait);
  if (!got && wait.count() > 0) return false;
  return owner_->requests_.pop(env.frame);
}

void RingTransport::ServerEnd::send_reply(std::uint64_t /*client*/,
                                          std::vector<std::uint8_t>& frame) {
  if (!owner_->replies_.push(frame)) ++owner_->dropped_replies_;
}

bool RingTransport::ServerEnd::finished() const {
  // Order matters: read the closed flag before the emptiness check, so a
  // frame pushed just before close() is never missed.
  const bool closed = owner_->client_closed_.load(std::memory_order_acquire);
  return closed && owner_->requests_.empty();
}

bool RingTransport::ClientEnd::send_request(std::vector<std::uint8_t>& frame) {
  return owner_->requests_.push(frame);
}

bool RingTransport::ClientEnd::next_reply(std::vector<std::uint8_t>& frame,
                                          std::chrono::microseconds wait) {
  wait_until([this] { return !owner_->replies_.empty(); }, wait);
  return owner_->replies_.pop(frame);
}

void RingTransport::ClientEnd::close() {
  owner_->client_closed_.store(true, std::memory_order_release);
}

}  // namespace imrm::serve
