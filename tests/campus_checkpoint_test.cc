// Campus-day checkpoint/restore (ISSUE 4 tentpole): freezing the day at a
// barrier and resuming must be indistinguishable from never having stopped —
// identical CampusDayResult and byte-identical metrics JSON, through every
// policy, with and without signaling faults, at any barrier time.
#include <cstdint>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/campus_day.h"
#include "fault/fault_model.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "sim/time.h"

namespace imrm::experiments {
namespace {

std::string metrics_json(const obs::Registry& registry) {
  std::ostringstream os;
  registry.snapshot().write_json(os);
  return os.str();
}

CampusDayConfig small_config(CampusPolicy policy) {
  CampusDayConfig config;
  config.policy = policy;
  config.attendees = 12;
  config.squatters = 4;
  config.seed = 5;
  return config;
}

void expect_same_result(const CampusDayResult& a, const CampusDayResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.attendee_drops, b.attendee_drops);
  EXPECT_EQ(a.squatter_blocks, b.squatter_blocks);
  EXPECT_EQ(a.squatter_admits, b.squatter_admits);
  EXPECT_EQ(a.other_drops, b.other_drops);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.room_peak_allocated, b.room_peak_allocated);
}

/// Cold run vs checkpoint-at-T + resume, both with live registries; the
/// restored day must match in results AND in metrics JSON bytes.
void check_round_trip(CampusDayConfig config, sim::SimTime at) {
  obs::Registry cold_registry;
  CampusDayConfig cold = config;
  cold.metrics = &cold_registry;
  const CampusDayResult cold_result = run_campus_day(cold);

  CampusDayConfig warm = config;
  obs::Registry ckpt_registry;
  warm.metrics = &ckpt_registry;
  const sim::Checkpoint ckpt = checkpoint_campus_day(warm, at);

  obs::Registry resume_registry;
  warm.metrics = &resume_registry;
  const CampusDayResult resumed = resume_campus_day(warm, ckpt);

  expect_same_result(resumed, cold_result);
  EXPECT_EQ(metrics_json(resume_registry), metrics_json(cold_registry));
}

TEST(CampusCheckpoint, ResumeMatchesUninterruptedRunEveryPolicy) {
  for (const CampusPolicy policy :
       {CampusPolicy::kNone, CampusPolicy::kStatic, CampusPolicy::kBruteForce,
        CampusPolicy::kAggregate, CampusPolicy::kDispatcher}) {
    SCOPED_TRACE(to_string(policy));
    check_round_trip(small_config(policy), sim::SimTime::minutes(95));
  }
}

TEST(CampusCheckpoint, EveryPolicyResumesAtEveryTwentyMinutes) {
  // A resumed policy starts with no cache, so its first refresh rebuilds
  // every cell; the uninterrupted day has been refreshing incrementally.
  // Both must agree at any barrier, for every policy.
  for (const CampusPolicy policy :
       {CampusPolicy::kNone, CampusPolicy::kStatic, CampusPolicy::kBruteForce,
        CampusPolicy::kAggregate, CampusPolicy::kDispatcher}) {
    for (double minutes = 10.0; minutes <= 170.0; minutes += 20.0) {
      SCOPED_TRACE(to_string(policy) + " at minute " + std::to_string(int(minutes)));
      check_round_trip(small_config(policy), sim::SimTime::minutes(minutes));
    }
  }
}

TEST(CampusCheckpoint, BarrierTimeSweep) {
  // Before the meeting, at its very start, mid-meeting, and after the last
  // event (the whole day already ran in phase 1).
  const CampusDayConfig config = small_config(CampusPolicy::kDispatcher);
  for (const double minutes : {0.0, 30.0, 90.0, 120.0, 1000.0}) {
    SCOPED_TRACE(minutes);
    check_round_trip(config, sim::SimTime::minutes(minutes));
  }
}

TEST(CampusCheckpoint, ResumeMatchesUnderSignalingFaults) {
  CampusDayConfig config = small_config(CampusPolicy::kDispatcher);
  config.faults.model = fault::LinkFaultModel::gilbert_elliott(0.2, 0.9, 4.0);
  config.faults.max_attempts = 2;
  check_round_trip(config, sim::SimTime::minutes(100));
}

TEST(CampusCheckpoint, ImageSurvivesSerializationToBytes) {
  const CampusDayConfig config = small_config(CampusPolicy::kDispatcher);
  const CampusDayResult cold = run_campus_day(config);

  const sim::Checkpoint ckpt = checkpoint_campus_day(config, sim::SimTime::minutes(95));
  const sim::Checkpoint reloaded = sim::Checkpoint::deserialize(ckpt.serialize());
  const CampusDayResult resumed = resume_campus_day(config, reloaded);
  expect_same_result(resumed, cold);
}

TEST(CampusCheckpoint, ConfigFingerprintMismatchThrows) {
  const CampusDayConfig config = small_config(CampusPolicy::kDispatcher);
  const sim::Checkpoint ckpt = checkpoint_campus_day(config, sim::SimTime::minutes(95));

  CampusDayConfig other = config;
  other.seed = 6;
  EXPECT_THROW((void)resume_campus_day(other, ckpt), sim::CheckpointError);

  other = config;
  other.attendees += 1;
  EXPECT_THROW((void)resume_campus_day(other, ckpt), sim::CheckpointError);

  other = config;
  other.policy = CampusPolicy::kAggregate;
  EXPECT_THROW((void)resume_campus_day(other, ckpt), sim::CheckpointError);
}

TEST(CampusCheckpoint, ResumeFromForeignCheckpointThrows) {
  const CampusDayConfig config = small_config(CampusPolicy::kDispatcher);
  EXPECT_THROW((void)resume_campus_day(config, sim::Checkpoint{}), sim::CheckpointError);
}

// ---- strict restore of the pending-event table --------------------------
//
// The table closes the experiment.campus section: next_serial (u64), the
// live count (u64), then one record per live event: serial u64, at f64,
// kind u8, portable u32, cell u32, bandwidth f64, attendee u8. Each test
// below flips one byte of a real serialized checkpoint and expects resume
// to refuse it with a CheckpointError naming the defect.

constexpr std::size_t kRecordBytes = 34;
constexpr std::size_t kKindAt = 16, kPortableAt = 17, kCellAt = 21;

std::uint64_t read_le(const std::vector<std::uint8_t>& b, std::size_t at, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= std::uint64_t(b[at + std::size_t(i)]) << (8 * i);
  return v;
}

/// A serialized checkpoint and where its pending-event records sit.
struct PendingTable {
  std::vector<std::uint8_t> image;
  std::size_t first = 0;  // offset of record 0 in image
  std::size_t count = 0;

  [[nodiscard]] std::size_t record(std::size_t i) const { return first + i * kRecordBytes; }
  [[nodiscard]] std::uint64_t serial(std::size_t i) const {
    return read_le(image, record(i), 8);
  }
  [[nodiscard]] std::uint8_t kind(std::size_t i) const { return image[record(i) + kKindAt]; }
};

/// [begin, end) of the experiment.campus payload in a serialized image.
std::pair<std::size_t, std::size_t> campus_section(const std::vector<std::uint8_t>& image) {
  // Container: magic (8), version (4), section count (4), then per section
  // a length-prefixed name and a length-prefixed payload.
  std::size_t pos = 16;
  for (std::uint64_t s = read_le(image, 12, 4); s-- > 0;) {
    const std::size_t name_len = std::size_t(read_le(image, pos, 8));
    const std::string name(image.begin() + std::ptrdiff_t(pos + 8),
                           image.begin() + std::ptrdiff_t(pos + 8 + name_len));
    pos += 8 + name_len;
    const std::size_t len = std::size_t(read_le(image, pos, 8));
    pos += 8;
    if (name == "experiment.campus") return {pos, pos + len};
    pos += len;
  }
  ADD_FAILURE() << "no experiment.campus section in the checkpoint";
  return {0, 0};
}

PendingTable pending_table(const sim::Checkpoint& ckpt) {
  PendingTable t;
  t.image = ckpt.serialize();
  const std::size_t end = campus_section(t.image).second;
  // Walk back from the section end to the live count that describes exactly
  // the records after it: ascending serials below next_serial, known kinds.
  for (std::size_t n = 1; end >= 16 + n * kRecordBytes; ++n) {
    t.first = end - n * kRecordBytes;
    t.count = n;
    const std::uint64_t next_serial = read_le(t.image, t.first - 16, 8);
    bool fits = read_le(t.image, t.first - 8, 8) == n;
    for (std::size_t i = 0; fits && i < n; ++i) {
      fits = t.serial(i) < next_serial && (i == 0 || t.serial(i - 1) < t.serial(i)) &&
             t.kind(i) <= 5;
    }
    if (fits) return t;
  }
  ADD_FAILURE() << "no pending-event table found in the checkpoint";
  t.count = 0;
  return t;
}

/// Index of the first pending record of `kind`.
std::size_t first_of_kind(const PendingTable& t, std::uint8_t kind) {
  for (std::size_t i = 0; i < t.count; ++i) {
    if (t.kind(i) == kind) return i;
  }
  ADD_FAILURE() << "checkpoint has no pending event of kind " << int(kind);
  return 0;
}

class CampusCorruptCheckpoint : public ::testing::Test {
 protected:
  static constexpr std::uint8_t kHandoff = 1, kRefresh = 4;

  CampusCorruptCheckpoint()
      : config_(small_config(CampusPolicy::kDispatcher)),
        table_(pending_table(checkpoint_campus_day(config_, sim::SimTime::minutes(95)))) {}

  /// Resumes from a copy of the image with byte `at` set to `value`; the
  /// restore must throw a CheckpointError whose message contains `why`.
  void expect_rejected(std::size_t at, std::uint8_t value, const std::string& why) const {
    std::vector<std::uint8_t> image = table_.image;
    image[at] = value;
    try {
      (void)resume_campus_day(config_, sim::Checkpoint::deserialize(image));
      ADD_FAILURE() << "resume accepted a checkpoint with " << why;
    } catch (const sim::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
  }

  /// A record whose serial shares all but its low byte with its
  /// predecessor's, so one byte can make the pair collide or descend.
  [[nodiscard]] std::size_t low_byte_neighbor() const {
    for (std::size_t i = 1; i < table_.count; ++i) {
      if ((table_.serial(i - 1) >> 8) == (table_.serial(i) >> 8) &&
          (table_.serial(i - 1) & 0xff) > 0) {
        return i;
      }
    }
    ADD_FAILURE() << "no neighboring serials share their upper bytes";
    return 1;
  }

  CampusDayConfig config_;
  PendingTable table_;
};

TEST_F(CampusCorruptCheckpoint, UntouchedImageResumes) {
  ASSERT_GE(table_.count, 2u);
  const CampusDayResult resumed =
      resume_campus_day(config_, sim::Checkpoint::deserialize(table_.image));
  expect_same_result(resumed, run_campus_day(config_));
}

TEST_F(CampusCorruptCheckpoint, UnknownEventKindThrows) {
  expect_rejected(table_.record(table_.count - 1) + kKindAt, 6, "unknown pending event kind");
}

TEST_F(CampusCorruptCheckpoint, SerialBeyondNextSerialThrows) {
  // The serial's top byte: the record now claims a serial past the table.
  expect_rejected(table_.record(table_.count - 1) + 7, 0x01, "serial beyond next_serial");
}

TEST_F(CampusCorruptCheckpoint, DuplicateOrDescendingSerialThrows) {
  const std::size_t i = low_byte_neighbor();
  const auto previous_low = std::uint8_t(table_.serial(i - 1) & 0xff);
  expect_rejected(table_.record(i), previous_low, "serials not strictly ascending");
  expect_rejected(table_.record(i), std::uint8_t(previous_low - 1),
                  "serials not strictly ascending");
}

// The demand table follows the config fingerprint (58 bytes), the rng
// state (length-prefixed text) and the probe flag: a u64 count, then per
// connected portable a u32 id and an f64 b_min, ascending id.
constexpr std::size_t kFingerprintBytes = 58, kDemandEntryBytes = 12;

TEST_F(CampusCorruptCheckpoint, MalformedDemandTableThrows) {
  const std::size_t rng_at = campus_section(table_.image).first + kFingerprintBytes;
  const std::size_t count_at = rng_at + 8 + std::size_t(read_le(table_.image, rng_at, 8)) + 1;
  const std::size_t count = std::size_t(read_le(table_.image, count_at, 8));
  ASSERT_GE(count, 2u);
  const std::size_t first = count_at + 8, last = first + (count - 1) * kDemandEntryBytes;
  // Ids are small: a repeated low byte repeats the id.
  expect_rejected(first + kDemandEntryBytes, table_.image[first],
                  "demand entries not strictly ascending");
  expect_rejected(first + 4 + 7, 0xc0, "demand entry is not a positive bandwidth");
  expect_rejected(last + 3, 0x40, "demand entry names an unknown portable");
}

TEST_F(CampusCorruptCheckpoint, UnknownPortableOrCellThrows) {
  const std::size_t handoff = table_.record(first_of_kind(table_, kHandoff));
  expect_rejected(handoff + kPortableAt + 3, 0x40, "unknown portable or cell");
  expect_rejected(handoff + kCellAt + 3, 0x40, "unknown portable or cell");
  // A periodic tick names no portable; a stray id there is corruption too.
  const std::size_t refresh = table_.record(first_of_kind(table_, kRefresh));
  expect_rejected(refresh + kPortableAt + 3, 0x00, "unknown portable or cell");
}

}  // namespace
}  // namespace imrm::experiments
