// Priority event queue for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic —
// a property every experiment in EXPERIMENTS.md relies on.
//
// Implementation: an indexed 4-ary min-heap of *time buckets*. The paper's
// schemes act at discrete instants — a cell's scheduler tick, the handoffs
// and the reservation messages crossing into it all land on the same tick —
// so most pops are followed by another event at the same time. Events at one
// instant therefore share a bucket: an intrusive FIFO of slots threaded
// through SlotMeta, with a single heap entry. A pop takes the top bucket's
// head and touches the heap only when the bucket empties.
//
// Each heap entry is one 128-bit key — an order-preserving bit transform of
// the timestamp in the high 64 bits, (seq of the bucket's first event << 24)
// | bucket in the low 64 — so the heap comparison is one branchless unsigned
// compare and an entry move is one 16-byte store. A small direct-mapped
// "open" table maps a time to the newest bucket for that time; schedule()
// appends there on a hit and opens a new bucket on a miss. Only the newest
// bucket of a time ever receives appends, so every older bucket of the same
// time holds only smaller seqs, and ordering buckets by (time, first seq)
// then draining each FIFO yields exactly the (time, seq) order, whatever the
// table's hit rate.
//
// Cancellation unlinks the slot in O(1) and removes an emptied bucket from
// the heap at once (no lazy-deletion tombstones). Callbacks live in a slot
// array and buckets in a bucket array, both recycled through free lists, so
// storage is bounded by the peak number of *pending* events, not by the
// total ever scheduled. EventIds carry a per-slot generation so a stale
// handle (fired, cancelled, or recycled) can never cancel an unrelated later
// event. Callbacks are small-buffer optimized (48-byte inline capture), so
// schedule() performs zero heap allocations in the common case.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/time.h"

namespace imrm::sim {

/// Opaque handle to a scheduled event; used to cancel it.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Callback = InplaceFunction<void(), 48>;

  /// Schedules `f` to fire at absolute time `at`. Returns a handle usable
  /// with cancel(). Allocation-free when the capture fits inline and a
  /// recycled slot is available: the callable is constructed exactly once,
  /// directly in its slot (no intermediate Callback temporaries).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>>>
  EventId schedule(SimTime at, F&& f) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].emplace(std::forward<F>(f));
    return enqueue(at, slot);
  }

  /// Overload for a pre-built Callback (moved into the slot).
  EventId schedule(SimTime at, Callback cb);

  /// Makes room for `events` simultaneously pending events (slots, buckets
  /// and heap entries), so a caller that knows its schedule up front pays
  /// one allocation per array instead of growing them event by event.
  /// Changes no ordering: only capacity.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    meta_.reserve(events);
    buckets_.reserve(events);
  }

  /// Cancels a pending event, unlinking it immediately (an emptied bucket
  /// leaves the heap at once). Cancelling an already-fired,
  /// already-cancelled, or unknown event is a no-op (the handle's generation
  /// no longer matches).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_; }

  /// Time of the earliest pending event; SimTime::infinity() when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? SimTime::infinity() : key_time(heap_.front());
  }

  /// Pops and returns the earliest event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback callback;
  };
  Fired pop();

  /// Pops the earliest event into `out` iff one exists and its time is
  /// <= `horizon`. The simulator's drain loop uses this fused form: one
  /// integer comparison against the encoded horizon instead of an empty()
  /// check plus a decoded-time comparison per event.
  bool pop_at_or_before(SimTime horizon, Fired& out) {
    if (heap_.empty() ||
        std::uint64_t(heap_.front() >> 64) > encode_time(horizon)) {
      return false;
    }
    out = pop();
    return true;
  }

  /// Number of callback slots ever allocated. Bounded by the peak number of
  /// simultaneously pending events (slots are recycled), which the
  /// regression tests assert.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Number of time buckets ever allocated. Every live bucket holds at least
  /// one pending event and closed buckets are recycled, so this is bounded
  /// by the peak pending count too.
  [[nodiscard]] std::size_t bucket_capacity() const { return buckets_.size(); }

  /// Lifetime churn/depth statistics; maintained unconditionally (the
  /// increments ride on operations that already touch the same cache lines)
  /// and exported by Simulator::collect_metrics. peak_pending counts live
  /// events, not buckets.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::size_t peak_pending = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Next FIFO tie-break sequence number (checkpoint save).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Slots permanently retired because their per-slot generation counter
  /// saturated (see release_slot): each retired slot is excluded from the
  /// free list forever so a wrapped generation can never let a stale EventId
  /// alias a live event. Exposed for the wraparound regression test.
  [[nodiscard]] std::size_t retired_slots() const { return retired_slots_; }

  /// Test hook: fast-forwards the generation of the slot at the head of the
  /// free list, as if it had been recycled `generation` times already. The
  /// wraparound regression test uses this to reach the saturation point in
  /// a few schedule/cancel cycles instead of 2^32 of them. Requires a free
  /// slot (schedule + cancel at least once first). Never call from
  /// production code.
  void age_free_slot_for_test(std::uint32_t generation) {
    assert(free_slot_ != kNone && "no free slot to age");
    meta_[free_slot_].generation = generation;
  }

  /// Checkpoint restore: overwrite the lifetime statistics and the sequence
  /// counter. Called AFTER the restoring harness has re-armed its pending
  /// events (re-arming bumps scheduled/peak/seq; the saved values already
  /// account for those events, so the overwrite makes the restored queue's
  /// externally visible totals identical to the uninterrupted run's).
  void restore_stats(const Stats& stats, std::uint64_t next_seq) {
    stats_ = stats;
    next_seq_ = next_seq;
  }

 private:
  // One heap entry: | encoded time (64) | seq (40) | bucket (24) |, where
  // seq is that of the event that opened the bucket. seq increments per
  // schedule, so keys are unique and ties are broken before the bucket bits
  // can ever matter. 2^24 simultaneous events and 2^40 total schedules are
  // asserted, far beyond any simulation here.
  using HeapKey = unsigned __int128;

  static constexpr int kIndexBits = 24;
  static constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;
  static constexpr std::uint32_t kNone = 0xffffffffu;  // list / free-list end

  // Standard order-preserving double <-> uint64 transform (flip all bits of
  // negatives, set the sign bit of non-negatives): unsigned comparison of
  // the transformed bits matches operator< on the doubles.
  static std::uint64_t encode_time(SimTime t) {
    const auto u = std::bit_cast<std::uint64_t>(t.to_seconds());
    constexpr std::uint64_t kMsb = 1ull << 63;
    return (u & kMsb) ? ~u : (u | kMsb);
  }
  static SimTime decode_time(std::uint64_t u) {
    constexpr std::uint64_t kMsb = 1ull << 63;
    u = (u & kMsb) ? (u & ~kMsb) : ~u;
    return SimTime::seconds(std::bit_cast<double>(u));
  }

  static HeapKey make_key(std::uint64_t time_bits, std::uint64_t seq,
                          std::uint32_t bucket) {
    return (HeapKey(time_bits) << 64) | (seq << kIndexBits) | bucket;
  }
  static std::uint32_t key_bucket(HeapKey k) {
    return std::uint32_t(std::uint64_t(k)) & kIndexMask;
  }
  static std::uint64_t key_time_bits(HeapKey k) { return std::uint64_t(k >> 64); }
  static SimTime key_time(HeapKey k) { return decode_time(key_time_bits(k)); }

  // Slot metadata lives apart from the (64-byte) callbacks so list and
  // free-list updates touch a dense 16-byte-stride array.
  struct SlotMeta {
    std::uint32_t generation = 0;
    // Next slot of the bucket's FIFO (kNone at its tail) while pending;
    // next free slot while free.
    std::uint32_t next = kNone;
    std::uint32_t prev = kNone;    // previous slot of the FIFO (kNone at its head)
    std::uint32_t bucket = kNone;  // owning bucket while pending
  };

  // The events pending at one instant, in FIFO order, plus the position of
  // the bucket's single heap entry (kept current by the sifts).
  struct Bucket {
    std::uint32_t head = kNone;  // oldest pending slot; next free bucket while free
    std::uint32_t tail = kNone;  // newest pending slot
    std::uint32_t pos = 0;       // index into heap_
  };

  // Direct-mapped cache from a time to the newest bucket open for it. An
  // entry only ever points at a live bucket: close_bucket clears it.
  struct OpenEntry {
    std::uint64_t time_bits = 0;
    std::uint32_t bucket = kNone;
  };
  static constexpr int kOpenBits = 3;
  static std::size_t open_index(std::uint64_t time_bits) {
    // Fibonacci hashing: tick multiples such as 1.0, 2.0, 3.0 differ only in
    // their high bits, so take the high bits of the product.
    return std::size_t((time_bits * 0x9e3779b97f4a7c15ull) >> (64 - kOpenBits));
  }

  // A slot whose generation reaches this value is retired, never recycled:
  // one more reuse would wrap the 32-bit generation back to a value an old
  // EventId may still carry, letting that stale handle cancel an unrelated
  // live event. EventIds with the sentinel generation are never issued.
  static constexpr std::uint32_t kRetiredGeneration = 0xffffffffu;

  std::uint32_t acquire_slot() {
    if (free_slot_ != kNone) {
      const std::uint32_t slot = free_slot_;
      free_slot_ = meta_[slot].next;
      return slot;
    }
    slots_.emplace_back();
    meta_.emplace_back();
    return std::uint32_t(slots_.size() - 1);
  }

  std::uint32_t acquire_bucket() {
    if (free_bucket_ != kNone) {
      const std::uint32_t bucket = free_bucket_;
      free_bucket_ = buckets_[bucket].head;
      return bucket;
    }
    buckets_.emplace_back();
    return std::uint32_t(buckets_.size() - 1);
  }

  void release_slot(std::uint32_t slot);
  EventId enqueue(SimTime at, std::uint32_t slot);
  void close_bucket(std::uint32_t bucket, std::uint64_t time_bits);
  void remove_heap_entry(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<HeapKey> heap_;   // 4-ary min-heap of packed bucket keys
  std::vector<Callback> slots_;
  std::vector<SlotMeta> meta_;  // parallel to slots_
  std::vector<Bucket> buckets_;
  OpenEntry open_[1 << kOpenBits];
  std::uint32_t free_slot_ = kNone;
  std::uint32_t free_bucket_ = kNone;
  std::size_t pending_ = 0;
  std::size_t retired_slots_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace imrm::sim
