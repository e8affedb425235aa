// Tests for portable/cell profiles, the zone profile server, and the
// booking calendar (Table 1 / Section 3.4.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "mobility/floorplan.h"
#include "profiles/booking.h"
#include "profiles/cell_profile.h"
#include "profiles/portable_profile.h"
#include "profiles/profile_server.h"

namespace imrm::profiles {
namespace {

using net::PortableId;
using sim::Duration;
using sim::SimTime;

constexpr CellId kA{0}, kB{1}, kC{2}, kD{3};

TEST(PortableProfile, PredictsMajorityNext) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kB);
  EXPECT_EQ(profile.predict(kC, kD), kA);
}

TEST(PortableProfile, UnknownStateYieldsNothing) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  EXPECT_FALSE(profile.predict(kD, kC).has_value());
  EXPECT_FALSE(profile.predict(kA, kB).has_value());
}

TEST(PortableProfile, WindowEvictsOldObservations) {
  PortableProfile profile(PortableId{1}, /*window=*/4);
  for (int i = 0; i < 4; ++i) profile.record(kC, kD, kA);
  // Four newer observations push the old majority out entirely.
  for (int i = 0; i < 4; ++i) profile.record(kC, kD, kB);
  EXPECT_EQ(profile.observations(kC, kD), 4u);
  EXPECT_EQ(profile.predict(kC, kD), kB);
}

TEST(PortableProfile, TieBreaksTowardRecency) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kB);
  EXPECT_EQ(profile.predict(kC, kD), kB);  // most recent wins the 1-1 tie
}

TEST(CellProfile, DistributionPerPreviousCell) {
  CellProfile profile(kD);
  profile.record(kC, kA);
  profile.record(kC, kA);
  profile.record(kC, kB);
  profile.record(kA, kC);  // different previous cell

  const auto dist = profile.distribution(kC);
  ASSERT_EQ(dist.size(), 2u);
  double pa = 0.0, pb = 0.0;
  for (const auto& share : dist) {
    if (share.neighbor == kA) pa = share.probability;
    if (share.neighbor == kB) pb = share.probability;
  }
  EXPECT_NEAR(pa, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pb, 1.0 / 3.0, 1e-12);
}

TEST(CellProfile, AggregateSpansAllPrevious) {
  CellProfile profile(kD);
  profile.record(kC, kA);
  profile.record(kA, kB);
  const auto agg = profile.aggregate_distribution();
  ASSERT_EQ(agg.size(), 2u);
  for (const auto& share : agg) EXPECT_NEAR(share.probability, 0.5, 1e-12);
  EXPECT_EQ(profile.total_observations(), 2u);
}

TEST(CellProfile, PredictPicksMostLikely) {
  CellProfile profile(kD);
  for (int i = 0; i < 9; ++i) profile.record(kC, kA);
  profile.record(kC, kB);
  EXPECT_EQ(profile.predict(kC), kA);
  EXPECT_FALSE(profile.predict(kB).has_value());
}

TEST(CellProfile, WindowBounded) {
  CellProfile profile(kD, /*window=*/8);
  for (int i = 0; i < 20; ++i) profile.record(kC, kA);
  EXPECT_EQ(profile.observations(kC), 8u);
}

// ISSUE 8 satellite: the per-state windows are fixed-capacity rings, so
// sustained handoff churn must not grow a profile past its warm footprint.
TEST(PortableProfile, ChurnPinsMemoryFootprint) {
  constexpr std::uint32_t kCells = 8;
  PortableProfile profile(PortableId{1}, /*window=*/16);
  auto churn = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      const CellId prev{std::uint32_t(i * 7 % kCells)};
      const CellId cur{std::uint32_t(i * 13 % kCells)};
      const CellId next{std::uint32_t(i * 31 % kCells)};
      profile.record(prev, cur, next);
    }
  };
  // Warm up far enough to see every (previous, current) state.
  churn(0, 2000);
  const std::size_t warm_bytes = profile.memory_bytes();
  ASSERT_GT(warm_bytes, 0u);
  // 20k handoffs of further churn: byte-for-byte no growth, not just "small".
  churn(2000, 20000);
  EXPECT_EQ(profile.memory_bytes(), warm_bytes);
  EXPECT_LT(warm_bytes, 64u * 1024u);
}

TEST(CellProfile, ChurnPinsMemoryFootprint) {
  constexpr std::uint32_t kCells = 8;
  CellProfile profile(kD, /*window=*/32);
  auto churn = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      profile.record(CellId{std::uint32_t(i * 7 % kCells)},
                     CellId{std::uint32_t(i * 31 % kCells)});
    }
  };
  churn(0, 2000);
  const std::size_t warm_bytes = profile.memory_bytes();
  ASSERT_GT(warm_bytes, 0u);
  churn(2000, 20000);
  EXPECT_EQ(profile.memory_bytes(), warm_bytes);
  // Tallies stay consistent with the bounded windows.
  EXPECT_EQ(profile.total_observations(), 8u * 32u);
  double sum = 0.0;
  for (const auto& share : profile.aggregate_distribution()) {
    sum += share.probability;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// The ring must serialize oldest-first, i.e. exactly the byte stream the
// vector-backed window produced: a churned profile survives a checkpoint
// round trip with identical bytes and predictions.
TEST(PortableProfile, ChurnedCheckpointRoundTrip) {
  PortableProfile profile(PortableId{4}, /*window=*/4);
  for (int i = 0; i < 100; ++i) {
    profile.record(CellId{std::uint32_t(i % 3)}, CellId{std::uint32_t(i % 5)},
                   CellId{std::uint32_t(i % 7)});
  }
  sim::CheckpointWriter w;
  profile.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  const PortableProfile restored = PortableProfile::restore_state(r);

  sim::CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
  for (std::uint32_t prev = 0; prev < 3; ++prev) {
    for (std::uint32_t cur = 0; cur < 5; ++cur) {
      EXPECT_EQ(restored.predict(CellId{prev}, CellId{cur}),
                profile.predict(CellId{prev}, CellId{cur}));
    }
  }
}

TEST(CellProfile, ChurnedCheckpointRoundTrip) {
  CellProfile profile(kA, /*window=*/4);
  for (int i = 0; i < 100; ++i) {
    profile.record(CellId{std::uint32_t(i % 3)}, CellId{std::uint32_t(i % 7)});
  }
  sim::CheckpointWriter w;
  profile.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  const CellProfile restored = CellProfile::restore_state(r);

  sim::CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
  EXPECT_EQ(restored.total_observations(), profile.total_observations());
  for (std::uint32_t prev = 0; prev < 3; ++prev) {
    EXPECT_EQ(restored.predict(CellId{prev}), profile.predict(CellId{prev}));
  }
}

// ---- slab oracle ------------------------------------------------------------
//
// The reference the slab replaced: every state's window as its own vector
// (push_back, erase the front past capacity) and a vote that copies and
// sorts the window, then scans the runs twice.
class ReferencePortableProfile {
 public:
  ReferencePortableProfile(PortableId id, std::size_t window) : id_(id), window_(window) {}

  void record(CellId previous, CellId current, CellId next) {
    std::vector<CellId>& window = history_[{previous, current}];
    if (window_ == 0) return;
    window.push_back(next);
    if (window.size() > window_) window.erase(window.begin());
  }

  [[nodiscard]] std::optional<CellId> predict(CellId previous, CellId current) const {
    const auto it = history_.find({previous, current});
    if (it == history_.end() || it->second.empty()) return std::nullopt;
    std::vector<CellId> sorted = it->second;
    std::sort(sorted.begin(), sorted.end());
    CellId best = it->second.back();
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      if (sorted[i] == best) best_count = j - i;
      i = j;
    }
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      if (j - i > best_count) {
        best = sorted[i];
        best_count = j - i;
      }
      i = j;
    }
    return best;
  }

  /// The checkpoint encoding: id, window, then every state in ascending
  /// (previous, current) order with its window oldest first.
  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    sim::CheckpointWriter w;
    w.u32(id_.value());
    w.u64(window_);
    w.u64(history_.size());
    for (const auto& [state, window] : history_) {
      w.u32(state.first.value());
      w.u32(state.second.value());
      w.u64(window.size());
      for (const CellId cell : window) w.u32(cell.value());
    }
    return w.take();
  }

  [[nodiscard]] const auto& history() const { return history_; }

 private:
  PortableId id_;
  std::size_t window_;
  std::map<std::pair<CellId, CellId>, std::vector<CellId>> history_;
};

std::vector<std::uint8_t> checkpoint_bytes(const PortableProfile& profile) {
  sim::CheckpointWriter w;
  profile.save_state(w);
  return w.take();
}

// Random churn over few states and few next cells, so windows wrap many
// times and ties (with and without the newest value) come up constantly.
TEST(PortableProfile, SlabMatchesCopySortVoteReference) {
  for (const std::size_t window : {0u, 1u, 2u, 16u, 33u}) {
    std::mt19937_64 rng(1000 + window);
    PortableProfile profile(PortableId{7}, window);
    ReferencePortableProfile reference(PortableId{7}, window);
    for (int step = 0; step < 3000; ++step) {
      const CellId previous{std::uint32_t(rng() % 3)};
      const CellId current{std::uint32_t(rng() % 4)};
      const CellId next{std::uint32_t(rng() % 5)};
      profile.record(previous, current, next);
      reference.record(previous, current, next);
      ASSERT_EQ(profile.predict(previous, current), reference.predict(previous, current))
          << "window " << window << " step " << step;
    }
    for (const auto& [state, cells] : reference.history()) {
      EXPECT_EQ(profile.predict(state.first, state.second),
                reference.predict(state.first, state.second));
      EXPECT_EQ(profile.observations(state.first, state.second), cells.size());
    }
    EXPECT_EQ(checkpoint_bytes(profile), reference.encode()) << "window " << window;
  }
}

TEST(PortableProfile, VoteTieRules) {
  // A tie for the top count that includes the newest: the newest wins, even
  // against a smaller id.
  PortableProfile newest_ties(PortableId{1}, 16);
  for (const CellId next : {kA, kC, kA, kC}) newest_ties.record(kB, kD, next);
  EXPECT_EQ(newest_ties.predict(kB, kD), kC);
  // A tie for the top count without the newest: the smallest id wins.
  PortableProfile others_tie(PortableId{1}, 16);
  for (const CellId next : {kC, kB, kC, kB, kD}) others_tie.record(kA, kD, next);
  EXPECT_EQ(others_tie.predict(kA, kD), kB);
  // After a wrap the window holds only the newest observations.
  PortableProfile wrapped(PortableId{1}, 2);
  for (const CellId next : {kA, kA, kA, kC, kB}) wrapped.record(kA, kD, next);
  EXPECT_EQ(wrapped.predict(kA, kD), kB);
}

TEST(PortableProfile, ZeroWindowRecordsStateWithoutObservations) {
  PortableProfile profile(PortableId{2}, 0);
  profile.record(kA, kB, kC);
  profile.record(kA, kB, kD);
  EXPECT_EQ(profile.observations(kA, kB), 0u);
  EXPECT_FALSE(profile.predict(kA, kB).has_value());
  ReferencePortableProfile reference(PortableId{2}, 0);
  reference.record(kA, kB, kC);
  EXPECT_EQ(checkpoint_bytes(profile), reference.encode());  // one state, 0 observations
}

TEST(PortableProfile, RestoreRefusesAnImplausibleWindow) {
  sim::CheckpointWriter w;
  w.u32(1);
  w.u64(PortableProfile::kMaxRestoredWindow + 1);
  w.u64(0);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  EXPECT_THROW((void)PortableProfile::restore_state(r), sim::CheckpointError);
}

TEST(CellProfile, FillIntoFormsMatchReturningForms) {
  std::mt19937_64 rng(77);
  CellProfile profile(kD, /*window=*/8);
  // The buffers start with stale content and are reused across calls.
  std::vector<CellProfile::NeighborShare> buffer{{kA, 0.25}, {kB, 0.75}};
  std::vector<CellProfile::NeighborShare> aggregate = buffer;
  const auto same = [](const std::vector<CellProfile::NeighborShare>& a,
                       const std::vector<CellProfile::NeighborShare>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
      return x.neighbor == y.neighbor && x.probability == y.probability;
    });
  };
  for (int step = 0; step < 500; ++step) {
    profile.record(CellId{std::uint32_t(rng() % 4)}, CellId{std::uint32_t(rng() % 6)});
    for (std::uint32_t previous = 0; previous < 5; ++previous) {  // 4 is never observed
      profile.distribution(CellId{previous}, buffer);
      ASSERT_TRUE(same(buffer, profile.distribution(CellId{previous})));
    }
    profile.aggregate_distribution(aggregate);
    ASSERT_TRUE(same(aggregate, profile.aggregate_distribution()));
  }
}

TEST(ProfileServer, RecordUpdatesBothProfiles) {
  ProfileServer server(net::ZoneId{0});
  server.record_handoff(PortableId{1}, kC, kD, kA);
  ASSERT_NE(server.portable_profile(PortableId{1}), nullptr);
  EXPECT_EQ(server.portable_profile(PortableId{1})->predict(kC, kD), kA);
  ASSERT_NE(server.cell_profile(kD), nullptr);
  EXPECT_EQ(server.cell_profile(kD)->predict(kC), kA);
}

TEST(ProfileServer, UnknownEntitiesReturnNull) {
  ProfileServer server(net::ZoneId{0});
  EXPECT_EQ(server.portable_profile(PortableId{9}), nullptr);
  EXPECT_EQ(server.cell_profile(kD), nullptr);
}

TEST(ProfileServer, TracksCacheTraffic) {
  ProfileServer server(net::ZoneId{0});
  server.record_handoff(PortableId{1}, kC, kD, kA);
  server.record_handoff(PortableId{1}, kD, kA, kD);
  server.refresh_on_static(PortableId{1});
  EXPECT_EQ(server.traffic().handoff_updates, 2u);
  EXPECT_EQ(server.traffic().profile_transfers, 2u);
  EXPECT_EQ(server.traffic().refreshes, 1u);
}

TEST(ProfileServer, HandoffEventOverload) {
  ProfileServer server(net::ZoneId{0});
  mobility::HandoffEvent event;
  event.portable = PortableId{3};
  event.prev_of_from = kC;
  event.from = kD;
  event.to = kB;
  server.record_handoff(event);
  EXPECT_EQ(server.portable_profile(PortableId{3})->predict(kC, kD), kB);
}

TEST(ProfileServer, ConfigurableWindows) {
  ProfileServer server(net::ZoneId{0}, ProfileServer::Config{2, 4});
  for (int i = 0; i < 10; ++i) server.record_handoff(PortableId{1}, kC, kD, kA);
  EXPECT_EQ(server.portable_profile(PortableId{1})->observations(kC, kD), 2u);
  EXPECT_EQ(server.cell_profile(kD)->observations(kC), 4u);
}

TEST(BookingCalendar, ActiveAndNextQueries) {
  BookingCalendar calendar;
  calendar.book({SimTime::minutes(60), SimTime::minutes(110), 35});
  calendar.book({SimTime::minutes(120), SimTime::minutes(170), 55});

  EXPECT_FALSE(calendar.active_at(SimTime::minutes(50)).has_value());
  ASSERT_TRUE(calendar.active_at(SimTime::minutes(70)).has_value());
  EXPECT_EQ(calendar.active_at(SimTime::minutes(70))->attendees, 35u);
  EXPECT_FALSE(calendar.active_at(SimTime::minutes(115)).has_value());

  ASSERT_TRUE(calendar.next_after(SimTime::minutes(115)).has_value());
  EXPECT_EQ(calendar.next_after(SimTime::minutes(115))->attendees, 55u);
  EXPECT_FALSE(calendar.next_after(SimTime::minutes(180)).has_value());
}

TEST(BookingCalendar, KeepsMeetingsSortedByStart) {
  BookingCalendar calendar;
  calendar.book({SimTime::minutes(120), SimTime::minutes(170), 2});
  calendar.book({SimTime::minutes(60), SimTime::minutes(110), 1});
  ASSERT_EQ(calendar.size(), 2u);
  EXPECT_EQ(calendar.meetings()[0].attendees, 1u);
  EXPECT_EQ(calendar.meetings()[1].attendees, 2u);
}

TEST(BookingCalendar, MeetingValidity) {
  EXPECT_TRUE((Meeting{SimTime::minutes(0), SimTime::minutes(10), 5}.valid()));
  EXPECT_FALSE((Meeting{SimTime::minutes(10), SimTime::minutes(10), 5}.valid()));
  EXPECT_FALSE((Meeting{SimTime::minutes(0), SimTime::minutes(10), 0}.valid()));
}

}  // namespace
}  // namespace imrm::profiles
