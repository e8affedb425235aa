// Zone profile server (Section 3.4.3).
//
// One server per zone. It owns the cell profiles of every cell in the zone
// and the portable profiles of every portable currently in the zone, and is
// updated on each handoff. Base stations cache their cell profile and the
// portable profiles of portables in their cell: during a handoff the old
// base station sends one update message to the server and passes the cached
// portable profile to the next cell; when a portable turns static, its
// profile is refreshed from the server. The cache traffic is tracked so the
// signalling cost can be reported.
//
// Profiles live in dense vectors indexed by PortableId/CellId value: both id
// spaces are assigned sequentially from zero, so the lookup that the
// predictor performs on every handoff is one indexed load (no hashing, no
// tree walk), and ascending-id iteration for serialization needs no sort.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mobility/manager.h"
#include "profiles/booking.h"
#include "profiles/profile_source.h"
#include "profiles/cell_profile.h"
#include "profiles/portable_profile.h"

namespace imrm::profiles {

struct CacheTraffic {
  std::uint64_t handoff_updates = 0;    // BS -> server, one per handoff
  std::uint64_t profile_transfers = 0;  // BS -> BS cached-profile forwarding
  std::uint64_t refreshes = 0;          // server -> BS on static transition
};

class ProfileServer final : public ProfileSource {
 public:
  struct Config {
    std::size_t portable_window = 16;  // N_pP
    std::size_t cell_window = 128;     // N_pC
  };

  explicit ProfileServer(net::ZoneId zone) : zone_(zone) {}
  ProfileServer(net::ZoneId zone, Config config) : zone_(zone), config_(config) {}

  /// Records one handoff: the portable moved from `event.from` to
  /// `event.to`, having previously been in `event.prev_of_from`. Updates the
  /// portable profile (keyed by the pre-move state) and the cell profile of
  /// the cell being left.
  void record_handoff(const mobility::HandoffEvent& event);

  /// Convenience overload.
  void record_handoff(net::PortableId portable, CellId prev, CellId from, CellId to);

  [[nodiscard]] const PortableProfile* portable_profile(net::PortableId id) const override;
  [[nodiscard]] const CellProfile* cell_profile(CellId id) const override;
  [[nodiscard]] PortableProfile& portable_profile_mut(net::PortableId id);
  [[nodiscard]] CellProfile& cell_profile_mut(CellId id);

  /// Booking calendar for a meeting-room cell.
  [[nodiscard]] BookingCalendar& calendar(CellId id);
  [[nodiscard]] const BookingCalendar* calendar_if(CellId id) const;

  /// Models the base station refreshing a portable profile once the
  /// portable turns static (counts the message; data is shared state here).
  void refresh_on_static(net::PortableId id);

  /// Zone migration support: removes and returns the portable's profile so
  /// the next zone's server can adopt it. Returns nullopt if unknown.
  std::optional<PortableProfile> extract_portable(net::PortableId id);
  void adopt_portable(PortableProfile profile);

  /// Change counters: bumped by every mutable access to the portable's or
  /// cell's profile (record_handoff, the *_mut accessors, adopt_portable,
  /// extract_portable) and by restore_state. They only ever grow, so a
  /// reader that caches something derived from a profile can tell whether
  /// it is stale by comparing one number. Not checkpointed: a restore bumps
  /// every counter instead, so nothing cached before it looks current.
  [[nodiscard]] std::uint64_t portable_revision(net::PortableId id) const {
    return id.value() < portable_revisions_.size() ? portable_revisions_[id.value()] : 0;
  }
  [[nodiscard]] std::uint64_t cell_revision(CellId id) const {
    return id.value() < cell_revisions_.size() ? cell_revisions_[id.value()] : 0;
  }
  /// Grows with every bump above and with every restore: unchanged means
  /// no profile changed.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// The latest record_handoff: its portable, the cell it left and the
  /// revision() its two bumps (that portable's profile, that cell's) left.
  /// A reader that last saw revision() - 2 and finds `revision` still
  /// current knows the whole change.
  struct HandoffMark {
    net::PortableId portable = net::PortableId::invalid();
    CellId from = CellId::invalid();
    std::uint64_t revision = 0;
  };
  [[nodiscard]] const HandoffMark& last_handoff() const { return last_handoff_; }

  [[nodiscard]] const CacheTraffic& traffic() const { return traffic_; }
  [[nodiscard]] net::ZoneId zone() const { return zone_; }

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  // Serializes portable/cell profile histories and the cache-traffic
  // counters in ascending-id order (the dense layout's natural iteration),
  // matching the sorted order the pre-migration format used. Booking
  // calendars are NOT saved: they are configuration (booked by the harness
  // constructor), not soft state.
  void save_state(sim::CheckpointWriter& w) const;
  void restore_state(sim::CheckpointReader& r);

 private:
  void bump(std::vector<std::uint64_t>& revisions, std::size_t i);

  net::ZoneId zone_;
  Config config_{};
  // Dense id-indexed slots; disengaged = not (or no longer) in this zone.
  std::vector<std::optional<PortableProfile>> portables_;
  std::vector<std::optional<CellProfile>> cells_;
  std::vector<std::optional<BookingCalendar>> calendars_;
  std::vector<std::uint64_t> portable_revisions_;
  std::vector<std::uint64_t> cell_revisions_;
  std::uint64_t revision_ = 0;
  HandoffMark last_handoff_;
  CacheTraffic traffic_;
};

}  // namespace imrm::profiles
