// Cross-version golden for the campus day. campus_checkpoint_test.cc checks
// that one build resumes a day exactly where it froze it; this test pins the
// day itself across builds: every policy's outcome counters, the full
// metrics snapshot and the bytes of a mid-day checkpoint must stay exactly
// where they were, so a speed-up of the mobility index, the policy
// environment or the pending-event table cannot quietly change a result.
// tests/golden/campus_day_golden.json holds the reference text; regenerate
// it by running this test with IMRM_REGEN_GOLDEN=1 in the environment, and
// only when a change of outcome is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/campus_day.h"
#include "fault/fault_model.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"

namespace imrm::experiments {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// One day: its outcome counters and metrics snapshot from an uninterrupted
/// run, plus the FNV-1a hash of a metered checkpoint taken mid-meeting.
void day_entry(std::ostream& os, const char* name, CampusDayConfig config) {
  obs::Registry registry;
  config.metrics = &registry;
  const CampusDayResult r = run_campus_day(config);

  obs::Registry frozen;
  config.metrics = &frozen;
  const sim::Checkpoint ckpt = checkpoint_campus_day(config, sim::SimTime::minutes(95));

  os << "  {\"day\": \"" << name << "\", \"policy\": \"" << r.policy
     << "\", \"attendee_drops\": " << r.attendee_drops
     << ", \"squatter_blocks\": " << r.squatter_blocks
     << ", \"squatter_admits\": " << r.squatter_admits
     << ", \"other_drops\": " << r.other_drops << ", \"handoffs\": " << r.handoffs
     << ", \"room_peak_allocated\": " << number(r.room_peak_allocated)
     << ",\n   \"checkpoint_fnv1a\": \"" << hex(fnv1a(ckpt.serialize()))
     << "\",\n   \"metrics\": ";
  registry.snapshot().write_json(os);
  os << "}";
}

std::string golden_text() {
  static constexpr CampusPolicy kPolicies[] = {
      CampusPolicy::kNone, CampusPolicy::kStatic, CampusPolicy::kBruteForce,
      CampusPolicy::kAggregate, CampusPolicy::kDispatcher};
  static constexpr const char* kPolicyTags[] = {"none", "static", "brute-force",
                                                "aggregate", "dispatcher"};
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    for (const std::uint64_t seed : {5ull, 11ull, 23ull}) {
      for (const std::size_t attendees :
           {std::size_t(20), std::size_t(40), std::size_t(60)}) {
        CampusDayConfig config;
        config.policy = kPolicies[p];
        config.seed = seed;
        config.attendees = attendees;
        const std::string name = std::string(kPolicyTags[p]) + "-seed" +
                                 std::to_string(seed) + "-n" + std::to_string(attendees);
        if (!first) os << ",\n";
        first = false;
        day_entry(os, name.c_str(), config);
      }
    }
  }
  // Signaling faults draw from a forked probe stream: pin that path too.
  CampusDayConfig faulty;
  faulty.policy = CampusPolicy::kDispatcher;
  faulty.seed = 7;
  faulty.faults.model = fault::LinkFaultModel::gilbert_elliott(0.2, 0.9, 4.0);
  faulty.faults.max_attempts = 2;
  os << ",\n";
  day_entry(os, "dispatcher-seed7-n40-faults", faulty);
  // The historical benchmark day (`scenario_cli campus --attendees 20
  // --squatters 6 --seed 5`), clean and with --faults 0.2.
  CampusDayConfig pinned;
  pinned.attendees = 20;
  pinned.squatters = 6;
  pinned.seed = 5;
  os << ",\n";
  day_entry(os, "dispatcher-seed5-n20-sq6", pinned);
  pinned.faults.model = fault::LinkFaultModel::bernoulli_loss(0.2);
  pinned.faults.max_attempts = 3;
  os << ",\n";
  day_entry(os, "dispatcher-seed5-n20-sq6-faults0.2", pinned);
  os << "\n]\n";
  return os.str();
}

TEST(CampusDayGolden, MatchesCheckedInBytes) {
  const std::string text = golden_text();
  const std::string path = std::string(IMRM_GOLDEN_DIR) + "/campus_day_golden.json";
  if (std::getenv("IMRM_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(path);
    ASSERT_TRUE(regen.is_open());
    regen << text;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(text, expected.str());
}

}  // namespace
}  // namespace imrm::experiments
