#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace imrm::sim {

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].reset();       // release captured state eagerly
  SlotMeta& m = meta_[slot];
  ++m.generation;             // invalidate outstanding EventIds for this slot
  if (m.generation == kRetiredGeneration) {
    // Generation space exhausted: retire the slot instead of recycling it.
    // Recycling once more would eventually wrap the generation to a value a
    // long-held stale EventId still carries, and cancel() on that handle
    // would kill whatever live event happened to occupy the slot. The leak
    // is one 64-byte slot per 2^32 - 1 reuses — bounded and negligible.
    ++retired_slots_;
    return;
  }
  m.next = free_slot_;
  free_slot_ = slot;
}

EventId EventQueue::schedule(SimTime at, Callback cb) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot] = std::move(cb);
  return enqueue(at, slot);
}

EventId EventQueue::enqueue(SimTime at, std::uint32_t slot) {
  assert(slot <= kIndexMask && "slot index space exhausted");
  assert(next_seq_ < (1ull << 40) && "sequence space exhausted");
  const std::uint64_t time_bits = encode_time(at);
  const std::uint64_t seq = next_seq_++;
  SlotMeta& m = meta_[slot];
  m.next = kNone;
  OpenEntry& open = open_[open_index(time_bits)];
  if (open.bucket != kNone && open.time_bits == time_bits) {
    // The newest bucket for this instant: append to its FIFO.
    Bucket& b = buckets_[open.bucket];
    m.prev = b.tail;
    m.bucket = open.bucket;
    meta_[b.tail].next = slot;
    b.tail = slot;
  } else {
    // Open a new bucket; it becomes the newest for this instant, so any
    // older bucket of the same time stops receiving appends.
    const std::uint32_t bucket = acquire_bucket();
    buckets_[bucket].head = buckets_[bucket].tail = slot;
    m.prev = kNone;
    m.bucket = bucket;
    open = {time_bits, bucket};
    heap_.push_back(make_key(time_bits, seq, bucket));
    sift_up(heap_.size() - 1);  // also records the bucket's heap position
  }
  ++stats_.scheduled;
  if (++pending_ > stats_.peak_pending) stats_.peak_pending = pending_;
  return (EventId(m.generation) << 32) | slot;
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = std::uint32_t(id) & kIndexMask;
  const std::uint32_t generation = std::uint32_t(id >> 32);
  if (slot >= slots_.size() || meta_[slot].generation != generation ||
      (std::uint32_t(id) & ~kIndexMask) != 0) {
    return;
  }
  const SlotMeta& m = meta_[slot];
  Bucket& b = buckets_[m.bucket];
  if (m.prev == kNone && m.next == kNone) {
    close_bucket(m.bucket, key_time_bits(heap_[b.pos]));
  } else {
    (m.prev == kNone ? b.head : meta_[m.prev].next) = m.next;
    (m.next == kNone ? b.tail : meta_[m.next].prev) = m.prev;
  }
  release_slot(slot);
  --pending_;
  ++stats_.cancelled;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapKey top = heap_.front();
  const std::uint32_t bucket = key_bucket(top);
  const std::uint32_t slot = buckets_[bucket].head;
  const std::uint32_t next = meta_[slot].next;
  if (next == kNone) {
    close_bucket(bucket, key_time_bits(top));
  } else {
    // The bucket keeps its heap key: its first seq still orders it before
    // every newer bucket of the same instant.
    buckets_[bucket].head = next;
    meta_[next].prev = kNone;
  }
  Fired fired{key_time(top), std::move(slots_[slot])};
  release_slot(slot);
  --pending_;
  return fired;
}

void EventQueue::close_bucket(std::uint32_t bucket, std::uint64_t time_bits) {
  OpenEntry& open = open_[open_index(time_bits)];
  if (open.bucket == bucket) open.bucket = kNone;
  remove_heap_entry(buckets_[bucket].pos);
  buckets_[bucket].head = free_bucket_;
  free_bucket_ = bucket;
}

void EventQueue::remove_heap_entry(std::size_t pos) {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  // The moved-in entry belongs either above or below its new position.
  if (pos > 0 && last < heap_[(pos - 1) / 4]) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapKey key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    const HeapKey pk = heap_[parent];
    if (!(key < pk)) break;
    heap_[pos] = pk;
    buckets_[key_bucket(pk)].pos = std::uint32_t(pos);
    pos = parent;
  }
  heap_[pos] = key;
  buckets_[key_bucket(key)].pos = std::uint32_t(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapKey key = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    HeapKey bk = heap_[first];
    if (first + 4 <= n) {
      // Interior node: all four children exist; branchless min scan.
      for (std::size_t c = first + 1; c < first + 4; ++c) {
        const HeapKey ck = heap_[c];
        const bool better = ck < bk;
        best = better ? c : best;
        bk = better ? ck : bk;
      }
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        const HeapKey ck = heap_[c];
        const bool better = ck < bk;
        best = better ? c : best;
        bk = better ? ck : bk;
      }
    }
    if (!(bk < key)) break;
    heap_[pos] = bk;
    buckets_[key_bucket(bk)].pos = std::uint32_t(pos);
    pos = best;
  }
  heap_[pos] = key;
  buckets_[key_bucket(key)].pos = std::uint32_t(pos);
}

}  // namespace imrm::sim
