// Cross-version golden for the sharded grid campus. Where
// sharded_scale_test.cc checks that one build gives the same bytes for every
// (shards, batch) pair, this test pins those bytes across builds: any change
// to the runner's exchange or the grid's cell tick must leave every
// decision, every window and every boundary message exactly where it was. tests/golden/grid_golden.json holds the reference text;
// regenerate it by running this test with IMRM_REGEN_GOLDEN=1 in the
// environment, and only when a change of outcome is intended.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "experiments/campus_scale.h"
#include "obs/metrics.h"

namespace imrm::experiments {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One grid point: the sharded engine on one worker, adaptive batching.
void grid_entry(std::ostream& os, const char* name, std::size_t cells,
                std::size_t portables, double duration_s, double tick_s,
                std::uint64_t seed) {
  obs::Registry registry;
  CampusScaleConfig config;
  config.cells = cells;
  config.portables = portables;
  config.duration = sim::Duration::seconds(duration_s);
  config.tick = sim::Duration::seconds(tick_s);
  config.seed = seed;
  config.shards = 1;
  config.batch = 0;
  config.metrics = &registry;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  os << "  {\"point\": \"" << name << "\", \"outcome_hash\": \"" << hex(r.outcome_hash)
     << "\", \"windows\": " << r.windows
     << ", \"boundary_messages\": " << r.boundary_messages << ",\n   \"metrics\": ";
  registry.snapshot().write_json(os);
  os << "}";
}

std::string golden_text() {
  std::ostringstream os;
  os << "[\n";
  grid_entry(os, "grid-100x10000-seed1", 100, 10000, 3600.0, 5.0, 1);
  os << ",\n";
  grid_entry(os, "grid-100x10000-seed7", 100, 10000, 3600.0, 5.0, 7);
  os << ",\n";
  grid_entry(os, "grid-100x10000-seed42", 100, 10000, 3600.0, 5.0, 42);
  os << ",\n";
  grid_entry(os, "grid-100x10000-tick0.7-900s-seed3", 100, 10000, 900.0, 0.7, 3);
  // The historical benchmark points: the grid curve over {10,100,1000}
  // cells x {1k,10k,100k} portables for one day at a 5 s tick, seed 5. The
  // 100x10000 point is also perfbench's pinned grid workload.
  for (const std::size_t cells : {std::size_t(10), std::size_t(100), std::size_t(1000)}) {
    for (const std::size_t portables :
         {std::size_t(1000), std::size_t(10000), std::size_t(100000)}) {
      const std::string name =
          "grid-" + std::to_string(cells) + "x" + std::to_string(portables) + "-seed5";
      os << ",\n";
      grid_entry(os, name.c_str(), cells, portables, 3600.0, 5.0, 5);
    }
  }
  os << "\n]\n";
  return os.str();
}

TEST(GridGolden, MatchesCheckedInBytes) {
  const std::string text = golden_text();
  const std::string path = std::string(IMRM_GOLDEN_DIR) + "/grid_golden.json";
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
