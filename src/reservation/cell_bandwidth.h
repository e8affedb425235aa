// Per-cell wireless bandwidth accounting for advance reservation (Section
// 3.3's reservation model).
//
// A cell's capacity is consumed by (a) ongoing connections (allocated), (b)
// portable-specific advance reservations made for predicted handoffs, and
// (c) anonymous reservations: the dynamically adjustable pool B_dyn plus
// aggregate reservations that are not tied to one portable.
//
// Admission semantics:
//  - a NEW connection must fit under capacity minus everything reserved,
//  - a HANDOFF may consume the reservation made for its portable and may
//    draw from the anonymous pool, but never from reservations made for
//    other portables.
#pragma once

#include <cassert>
#include <cstdint>

#include "net/ids.h"
#include "qos/flow_spec.h"
#include "sim/checkpoint.h"
#include "sim/flat_map.h"

namespace imrm::obs {
class Counter;
class Histogram;
}  // namespace imrm::obs

namespace imrm::reservation {

using net::CellId;
using net::PortableId;

class CellBandwidth {
 public:
  /// Shared instrument set for admission telemetry. One Telemetry is
  /// typically owned by the ReservationDirectory and shared by every cell,
  /// so the counters aggregate across the whole coverage area. All pointers
  /// optional; a default-constructed Telemetry records nothing.
  struct Telemetry {
    obs::Counter* new_admitted = nullptr;
    obs::Counter* new_blocked = nullptr;
    obs::Counter* handoff_admitted = nullptr;
    obs::Counter* handoff_dropped = nullptr;
    obs::Counter* reservation_hits = nullptr;    // handoff found own reservation
    obs::Counter* reservation_misses = nullptr;  // handoff arrived unreserved
    obs::Histogram* reservation_coverage = nullptr;  // min(own / b, 1) per handoff
  };

  CellBandwidth() = default;
  explicit CellBandwidth(qos::BitsPerSecond capacity) : capacity_(capacity) {}

  /// Attaches admission telemetry; `t` must outlive this cell (or the next
  /// set_telemetry call). Pass nullptr to detach.
  void set_telemetry(const Telemetry* t) { telemetry_ = t; }

  // ---- admission -------------------------------------------------------
  /// Admits a new connection of `b` for `portable` if it fits under the
  /// capacity net of all reservations. Returns success.
  bool admit_new(PortableId portable, qos::BitsPerSecond b);

  /// Admits a handoff: the portable's own reservation is released (used up)
  /// and the anonymous pool may cover any shortfall. Returns success; on
  /// failure the portable's reservation is still released (the portable has
  /// arrived; the stale reservation must not linger).
  bool admit_handoff(PortableId portable, qos::BitsPerSecond b);

  /// Releases an ongoing connection's bandwidth (departure or teardown).
  void release(PortableId portable);

  /// Re-points an admitted connection's allocation (QoS adaptation within
  /// the negotiated bounds). The caller guarantees the new total fits.
  void set_allocation(PortableId portable, qos::BitsPerSecond b);

  // ---- reservations ------------------------------------------------------
  /// Advance-reserves `b` for a specific portable (replaces any previous
  /// reservation for it).
  void reserve_for(PortableId portable, qos::BitsPerSecond b);
  void cancel_reservation(PortableId portable);

  /// Sets the anonymous reservation level (aggregate policies and the B_dyn
  /// pool are both expressed this way).
  void set_anonymous_reservation(qos::BitsPerSecond b) {
    assert(b >= 0.0);
    anonymous_reserved_ = b;
  }
  /// Adds to the anonymous reservation (several policies contributing to
  /// one cell within a refresh cycle).
  void add_anonymous_reservation(qos::BitsPerSecond b) {
    assert(b >= 0.0);
    anonymous_reserved_ += b;
  }

  /// Drops every portable-specific reservation (used by policies that
  /// rebuild a cell's reservation picture from scratch).
  void clear_specific_reservations() {
    reserved_for_.clear();
    reserved_specific_total_ = 0.0;
  }

  /// Replaces the running total of the specific reservations with `total`,
  /// which the caller summed from those same reservations in its own order.
  /// A roster policy that edits a cell's reservations in place restates the
  /// sum a full rebuild would have accumulated, so the total does not
  /// depend on the order of the edits.
  void restate_specific_total(qos::BitsPerSecond total) {
    assert(total >= 0.0);
    reserved_specific_total_ = total;
  }

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] qos::BitsPerSecond capacity() const { return capacity_; }
  [[nodiscard]] qos::BitsPerSecond allocated() const { return allocated_; }
  [[nodiscard]] qos::BitsPerSecond reserved_total() const {
    return reserved_specific_total_ + anonymous_reserved_;
  }
  [[nodiscard]] qos::BitsPerSecond anonymous_reservation() const {
    return anonymous_reserved_;
  }
  [[nodiscard]] qos::BitsPerSecond reservation_for(PortableId portable) const;
  [[nodiscard]] std::size_t active_connections() const { return connections_.size(); }
  [[nodiscard]] bool has_connection(PortableId portable) const {
    return connections_.contains(portable.value());
  }

  /// Capacity available to a brand-new connection right now.
  [[nodiscard]] qos::BitsPerSecond free_for_new() const {
    return capacity_ - allocated_ - reserved_total();
  }

  /// Time-integral bookkeeping hook: wasted = reserved but never used.
  [[nodiscard]] qos::BitsPerSecond utilization_fraction() const {
    return capacity_ > 0.0 ? allocated_ / capacity_ : 0.0;
  }

  // --- checkpoint/restore (ISSUE 4): the whole account (capacity, running
  // totals, per-portable reservation/connection maps, sorted by portable so
  // the bytes are iteration-order independent). Telemetry pointers are
  // rebound by the owner.
  void save_state(sim::CheckpointWriter& w) const;
  void restore_state(sim::CheckpointReader& r);

 private:
  // Open-addressing tables keyed on PortableId::value(): the admission path
  // (admit/release/reserve) is the hot loop at campus scale, and the flat
  // layout keeps each probe inside one cache line instead of a heap node.
  using PortableMap = sim::FlatMap<std::uint32_t, qos::BitsPerSecond>;

  qos::BitsPerSecond capacity_ = 0.0;
  qos::BitsPerSecond allocated_ = 0.0;
  qos::BitsPerSecond anonymous_reserved_ = 0.0;
  qos::BitsPerSecond reserved_specific_total_ = 0.0;
  PortableMap reserved_for_;
  PortableMap connections_;
  const Telemetry* telemetry_ = nullptr;
};

}  // namespace imrm::reservation
