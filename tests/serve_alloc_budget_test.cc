// Heap-allocation budgets of the admission service's set-up and steady
// state.
//
// This binary replaces the global operator new/delete with a pair that
// counts every allocation. It counts the allocations of constructing the
// service, ring and driver against kSetUpBudget. It then warms one virtual
// drive of the default request mix (LoadDriver::run_virtual over
// RingTransport, the perfbench `serve` drive) and asserts that a second
// drive on the same service, ring and driver stays within kBudgetPerRequest
// heap allocations per request. Frame buffers, queue slots, connection
// storage, multicast trees and admission scratch are all recycled once warm
// (DESIGN.md, "Serve frame buffers"); a change that reintroduces a
// per-request allocation shows up here as a count, not as a timing wobble.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "serve/load_driver.h"
#include "serve/ring_transport.h"
#include "serve/service.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace imrm::serve {
namespace {

// Measured at 0.028 per request; the bound leaves room for about 3x that.
constexpr double kBudgetPerRequest = 0.1;
// Measured at 51; the bound fails a topology that allocates per node again
// (121).
constexpr std::uint64_t kSetUpBudget = 60;

TEST(ServeAllocBudget, ColdSetUpStaysWithinBudget) {
  const ServiceConfig service_config;
  DriveConfig drive_config;
  drive_config.cells = std::uint32_t(service_config.cells);
  sim::Simulator simulator;

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    AdmissionService service(service_config, simulator);
    RingTransport ring;
    LoadDriver driver(drive_config);
  }
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  std::printf("cold set-up: %llu heap allocations\n",
              static_cast<unsigned long long>(allocations));
  EXPECT_LE(allocations, kSetUpBudget);
}

TEST(ServeAllocBudget, SteadyStateDriveStaysWithinBudget) {
  const ServiceConfig service_config;  // the pinned 16-cell service
  DriveConfig drive_config;            // the default request mix
  drive_config.rate = 2500.0;          // half the virtual saturation rate
  drive_config.duration_s = 2.5;
  drive_config.seed = 1502;
  drive_config.cells = std::uint32_t(service_config.cells);

  sim::Simulator simulator;
  AdmissionService service(service_config, simulator);
  RingTransport ring;
  LoadDriver driver(drive_config);

  const DriveStats warm = driver.run_virtual(simulator, ring, service);
  ASSERT_GT(warm.sent, 0u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const DriveStats steady = driver.run_virtual(simulator, ring, service);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_GE(steady.sent, 5000u);
  EXPECT_EQ(steady.shed + steady.errors + steady.unanswered, 0u);
  EXPECT_EQ(ring.dropped_replies(), 0u);
  const double per_request = double(allocations) / double(steady.sent);
  std::printf("steady drive: %llu heap allocations over %llu requests (%.3f per request)\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(steady.sent), per_request);
  EXPECT_LE(per_request, kBudgetPerRequest)
      << allocations << " heap allocations over " << steady.sent << " requests ("
      << per_request << " per request, budget " << kBudgetPerRequest << ")";
}

}  // namespace
}  // namespace imrm::serve
