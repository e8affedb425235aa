#include "reservation/cell_bandwidth.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace {

void bump(imrm::obs::Counter* c) {
  if (c) c->add();
}

}  // namespace

namespace imrm::reservation {

bool CellBandwidth::admit_new(PortableId portable, qos::BitsPerSecond b) {
  assert(b > 0.0);
  assert(!connections_.contains(portable.value()));
  if (b > free_for_new() + 1e-9) {
    if (telemetry_) bump(telemetry_->new_blocked);
    return false;
  }
  connections_.insert(portable.value(), b);
  allocated_ += b;
  if (telemetry_) bump(telemetry_->new_admitted);
  return true;
}

bool CellBandwidth::admit_handoff(PortableId portable, qos::BitsPerSecond b) {
  assert(b > 0.0);
  assert(!connections_.contains(portable.value()));
  // The portable's own reservation is consumed by its arrival either way.
  const qos::BitsPerSecond own = reservation_for(portable);
  cancel_reservation(portable);
  if (telemetry_) {
    bump(own > 0.0 ? telemetry_->reservation_hits : telemetry_->reservation_misses);
    if (telemetry_->reservation_coverage) {
      telemetry_->reservation_coverage->record(std::min(own / b, 1.0));
    }
  }

  // Others' specific reservations stay untouchable; the anonymous pool is
  // exactly the instrument meant to absorb handoffs (Section 4.3).
  const qos::BitsPerSecond blocked = reserved_specific_total_;
  const qos::BitsPerSecond free = capacity_ - allocated_ - blocked;
  (void)own;  // own reservation already excluded from reserved_specific_total_
  if (b > free + 1e-9) {
    if (telemetry_) bump(telemetry_->handoff_dropped);
    return false;
  }
  // Consume anonymous pool before bare capacity so the pool reflects how
  // much "unforeseen event" headroom remains.
  const qos::BitsPerSecond from_pool = std::min(anonymous_reserved_, b);
  anonymous_reserved_ -= from_pool;
  connections_.insert(portable.value(), b);
  allocated_ += b;
  if (telemetry_) bump(telemetry_->handoff_admitted);
  return true;
}

void CellBandwidth::release(PortableId portable) {
  qos::BitsPerSecond* b = connections_.find(portable.value());
  assert(b != nullptr);
  allocated_ -= *b;
  if (allocated_ < 0.0) allocated_ = 0.0;
  connections_.erase(portable.value());
}

void CellBandwidth::set_allocation(PortableId portable, qos::BitsPerSecond b) {
  assert(b > 0.0);
  qos::BitsPerSecond* cur = connections_.find(portable.value());
  assert(cur != nullptr);
  allocated_ += b - *cur;
  if (allocated_ < 0.0) allocated_ = 0.0;
  *cur = b;
}

void CellBandwidth::reserve_for(PortableId portable, qos::BitsPerSecond b) {
  assert(b >= 0.0);
  if (b <= 0.0) {
    cancel_reservation(portable);
    return;
  }
  // A replaced reservation is rewritten in place, the total moving as a
  // cancel and a fresh reservation would move it.
  if (qos::BitsPerSecond* held = reserved_for_.find(portable.value())) {
    reserved_specific_total_ -= *held;
    if (reserved_specific_total_ < 0.0) reserved_specific_total_ = 0.0;
    *held = b;
  } else {
    reserved_for_.insert(portable.value(), b);
  }
  reserved_specific_total_ += b;
}

void CellBandwidth::cancel_reservation(PortableId portable) {
  const qos::BitsPerSecond* b = reserved_for_.find(portable.value());
  if (b == nullptr) return;
  reserved_specific_total_ -= *b;
  if (reserved_specific_total_ < 0.0) reserved_specific_total_ = 0.0;
  reserved_for_.erase(portable.value());
}

qos::BitsPerSecond CellBandwidth::reservation_for(PortableId portable) const {
  const qos::BitsPerSecond* b = reserved_for_.find(portable.value());
  return b == nullptr ? 0.0 : *b;
}

namespace {

// Checkpoint bytes must stay identical to the pre-FlatMap format: count,
// then (u32 portable id, f64 bits/s) sorted ascending by id.
void save_portable_map(sim::CheckpointWriter& w,
                       const sim::FlatMap<std::uint32_t, qos::BitsPerSecond>& map) {
  std::vector<std::pair<std::uint32_t, qos::BitsPerSecond>> entries;
  entries.reserve(map.size());
  map.for_each([&entries](std::uint32_t id, qos::BitsPerSecond b) {
    entries.emplace_back(id, b);
  });
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [id, b] : entries) {
    w.u32(id);
    w.f64(b);
  }
}

void restore_portable_map(sim::CheckpointReader& r,
                          sim::FlatMap<std::uint32_t, qos::BitsPerSecond>& map) {
  map.clear();
  for (std::uint64_t n = r.u64(); n-- > 0;) {
    const std::uint32_t id = r.u32();
    map[id] = r.f64();
  }
}

}  // namespace

void CellBandwidth::save_state(sim::CheckpointWriter& w) const {
  w.f64(capacity_);
  w.f64(allocated_);
  w.f64(anonymous_reserved_);
  w.f64(reserved_specific_total_);
  save_portable_map(w, reserved_for_);
  save_portable_map(w, connections_);
}

void CellBandwidth::restore_state(sim::CheckpointReader& r) {
  capacity_ = r.f64();
  allocated_ = r.f64();
  anonymous_reserved_ = r.f64();
  reserved_specific_total_ = r.f64();
  restore_portable_map(r, reserved_for_);
  restore_portable_map(r, connections_);
}

}  // namespace imrm::reservation
