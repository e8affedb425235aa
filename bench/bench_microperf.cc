// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// event queue throughput, Table 2 admission, one admission-service request,
// water-filling, advertised-rate recomputation, the distributed protocol
// end-to-end, the binomial convolution of the probabilistic model, a full
// classroom run and one campus day per reservation policy.
#include <benchmark/benchmark.h>

#include <chrono>
#include <random>
#include <vector>

#include "experiments/campus_day.h"
#include "experiments/classroom.h"
#include "maxmin/advertised_rate.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "maxmin/protocol.h"
#include "maxmin/waterfill.h"
#include "qos/admission.h"
#include "qos/packet_sim.h"
#include "reservation/probabilistic.h"
#include "serve/codec.h"
#include "serve/ring_transport.h"
#include "serve/service.h"
#include "sim/replication.h"
#include "sim/sharded_runner.h"
#include "sim/simulator.h"

using namespace imrm;

namespace {

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  const int n = int(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < n; ++i) {
      simulator.at(sim::SimTime::seconds(double(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndRun)->Arg(1000)->Arg(10000);

void BM_EventQueueScheduleCancelChurn(benchmark::State& state) {
  // Half of all scheduled events are cancelled before firing — the pattern
  // of timeout timers. Exercises true in-heap deletion and slot recycling.
  const int n = int(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    std::vector<sim::EventId> pending;
    pending.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
      pending.push_back(
          simulator.at(sim::SimTime::seconds(double(i % 97) + 1.0), [] {}));
      if (i % 2 == 1) {
        simulator.cancel(pending[std::size_t(i - 1)]);
      }
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleCancelChurn)->Arg(1000)->Arg(10000);

void BM_EventQueueEqualTimeFanIn(benchmark::State& state) {
  // The grid's pattern: a few pending tick instants with many events each.
  // Every event re-arms one period later, so each of the kInstants pending
  // instants holds n / kInstants events and nearly every pop is followed by
  // another event at the same time.
  const int n = int(state.range(0));
  constexpr int kInstants = 4;
  constexpr double kRounds = 16.0;
  struct Rearm {
    sim::Simulator* simulator;
    void operator()() const {
      const sim::SimTime next = simulator->now() + sim::Duration::seconds(1.0);
      if (next.to_seconds() <= kRounds) simulator->at(next, *this);
    }
  };
  std::int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < n; ++i) {
      simulator.at(sim::SimTime::seconds(double(i % kInstants) / kInstants),
                   Rearm{&simulator});
    }
    const std::uint64_t count = simulator.run();
    benchmark::DoNotOptimize(count);
    fired += std::int64_t(count);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_EventQueueEqualTimeFanIn)->Arg(1000)->Arg(10000);

void BM_ShardedExchange(benchmark::State& state) {
  // The grid's boundary pattern: kSources domains each post kPerSource
  // one-window rows that all reach domain 0 at the same instant, where one
  // drain runs the whole fan-in.
  constexpr std::size_t kSources = 64;
  constexpr int kPerSource = 16;
  const sim::Duration window = sim::Duration::millis(1.0);
  sim::ShardedRunner runner(sim::ShardedRunner::Config{kSources + 1, 1, window});
  std::uint64_t delivered = 0;
  runner.set_row_handler<std::uint64_t>(
      [&delivered](std::size_t, const std::uint64_t& v) { delivered += v; });
  sim::SimTime t = sim::SimTime::zero();
  for (auto _ : state) {
    for (std::size_t src = 1; src <= kSources; ++src) {
      runner.domain(src).at(t, [&runner, src, window] {
        for (int i = 0; i < kPerSource; ++i) {
          runner.post_row(src, 0, window, std::uint64_t(1));
        }
      });
    }
    t = t + window + window;
    runner.run_until(t);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(std::int64_t(delivered));
}
BENCHMARK(BM_ShardedExchange);

void BM_AdmissionPipeline(benchmark::State& state) {
  qos::QosRequest request;
  request.bandwidth = {qos::kbps(256), qos::kbps(1024)};
  request.delay_bound = 0.5;
  request.jitter_bound = 0.4;
  request.loss_bound = 0.02;
  request.traffic = {32000.0, 12000.0};
  const std::vector<qos::LinkSnapshot> route(
      std::size_t(state.range(0)),
      qos::LinkSnapshot{qos::mbps(45), 0.0, qos::mbps(10), 8e6, 0.001});
  const qos::AdmissionPipeline pipeline(qos::Scheduler::kRcsp,
                                        qos::MobilityClass::kStatic);
  qos::AdmissionResult result;  // reused, as NetworkState::admit does
  for (auto _ : state) {
    pipeline.admit(request, route, result, qos::kbps(100));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionPipeline)->Arg(3)->Arg(10);

enum class ServeRequestKind { kAdmit, kHandoff };

// One request through a warmed 16-cell admission service: encode, the ring
// transport, decode, Table 2 admission with multicast branches and advance
// reservations, the reply and its decode. `admit` opens a session and closes
// it again (two requests per iteration, so the service's state does not
// drift); `handoff` moves one session back and forth between two adjacent
// cells (one request per iteration). A zero virtual service cost keeps
// simulated time still, so no portable ever turns static mid-run.
void BM_ServeRequest(benchmark::State& state, ServeRequestKind kind) {
  serve::ServiceConfig config;
  config.virtual_service_cost_us = 0.0;
  sim::Simulator simulator;
  serve::AdmissionService service(config, simulator);
  serve::RingTransport ring;
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
  std::uint64_t id = 0;
  bool ok = true;
  const auto call = [&](const serve::Request& body) {
    serve::encode_request(++id, body, request);
    ring.client().send_request(request);
    service.pump_virtual(ring.server());
    simulator.run();
    while (ring.client().next_reply(reply, std::chrono::microseconds(0))) {
      const serve::ReplyFrame frame = serve::decode_reply(reply);
      ok &= !std::holds_alternative<serve::ErrorReply>(frame.body) &&
            !std::holds_alternative<serve::ShedReply>(frame.body);
    }
  };
  const qos::QosRequest qos{
      {qos::kbps(32.0), qos::kbps(128.0)}, 10.0, 10.0, 0.05, {8000.0, 8000.0}};
  // Background sessions, two per cell, then the benchmarked portable.
  const std::uint32_t cells = std::uint32_t(config.cells);
  for (std::uint32_t p = 0; p < 2 * cells; ++p) {
    call(serve::AdmitRequest{p, p % cells, p % 2 == 1, qos});
  }
  const std::uint32_t portable = 2 * cells;
  if (kind == ServeRequestKind::kHandoff) call(serve::AdmitRequest{portable, 5, false, qos});
  // Warm every recycled buffer and slot before timing.
  std::uint32_t cell = 5;
  const auto one = [&] {
    if (kind == ServeRequestKind::kAdmit) {
      call(serve::AdmitRequest{portable, 5, false, qos});
      call(serve::TeardownRequest{portable});
    } else {
      cell = cell == 5 ? 6 : 5;
      call(serve::HandoffRequest{portable, cell});
    }
  };
  for (int i = 0; i < 1000; ++i) one();
  for (auto _ : state) one();
  if (!ok) state.SkipWithError("a request was refused");
  state.SetItemsProcessed(state.iterations() * (kind == ServeRequestKind::kAdmit ? 2 : 1));
}
BENCHMARK_CAPTURE(BM_ServeRequest, admit, ServeRequestKind::kAdmit);
BENCHMARK_CAPTURE(BM_ServeRequest, handoff, ServeRequestKind::kHandoff);

maxmin::Problem random_problem(int n_links, int n_conns, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> cap(5.0, 50.0);
  maxmin::Problem p;
  for (int i = 0; i < n_links; ++i) p.links.push_back({cap(rng)});
  for (int c = 0; c < n_conns; ++c) {
    std::uniform_int_distribution<int> start_dist(0, n_links - 1);
    const int start = start_dist(rng);
    std::uniform_int_distribution<int> end_dist(start, n_links - 1);
    const int end = end_dist(rng);
    maxmin::ProblemConnection conn;
    for (int li = start; li <= end; ++li) conn.path.push_back(std::size_t(li));
    p.connections.push_back(std::move(conn));
  }
  return p;
}

void BM_Waterfill(benchmark::State& state) {
  const auto problem = random_problem(int(state.range(0)), int(state.range(1)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(maxmin::waterfill(problem));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Waterfill)->Args({10, 50})->Args({50, 500});

void BM_AdvertisedRateRecompute(benchmark::State& state) {
  std::mt19937_64 rng{7};
  std::uniform_real_distribution<double> rate(0.0, 10.0);
  std::vector<double> recorded(std::size_t(state.range(0)));
  for (double& r : recorded) r = rate(rng);
  maxmin::AdvertisedRate ar(100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ar.recompute(recorded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdvertisedRateRecompute)->Arg(8)->Arg(64)->Arg(512);

void BM_DistributedProtocolConverge(benchmark::State& state) {
  const auto problem = random_problem(int(state.range(0)), int(state.range(1)), 13);
  for (auto _ : state) {
    sim::Simulator simulator;
    maxmin::DistributedProtocol protocol(simulator, problem, {});
    protocol.start_all();
    benchmark::DoNotOptimize(protocol.run_to_quiescence());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistributedProtocolConverge)->Args({5, 20})->Args({10, 60});

void BM_BinomialConvolution(benchmark::State& state) {
  reservation::ProbabilisticReservation::Config config;
  config.capacity_units = int(state.range(0));
  config.window = 0.05;
  config.p_qos = 0.01;
  config.handoff_prob = 0.7;
  const reservation::ProbabilisticReservation model(config, {{1, 0.2}, {4, 0.25}});
  const std::vector<int> here{int(state.range(0)) / 2, 2};
  const std::vector<int> neighbor{int(state.range(0)) / 2, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.nonblocking_probability(here, neighbor));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialConvolution)->Arg(40)->Arg(200);

void BM_PacketScheduler(benchmark::State& state) {
  // Throughput of the Virtual Clock link: packets scheduled + served/sec.
  const int n_flows = int(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    qos::ScheduledLink link(simulator, qos::mbps(100), nullptr);
    for (int f = 1; f <= n_flows; ++f) {
      link.add_flow(qos::FlowId(f), qos::mbps(100.0 / double(n_flows + 1)));
    }
    for (int i = 0; i < 1000; ++i) {
      qos::Packet p;
      p.flow = qos::FlowId(i % n_flows + 1);
      p.size = 8000.0;
      p.created = simulator.now();
      link.enqueue(p);
    }
    simulator.run();
    benchmark::DoNotOptimize(link.packets_served());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PacketScheduler)->Arg(4)->Arg(32);

void BM_ClassroomExperiment(benchmark::State& state) {
  experiments::ClassroomConfig config;
  config.class_size = std::size_t(state.range(0));
  config.meeting = {sim::SimTime::minutes(60), sim::SimTime::minutes(110),
                    std::size_t(state.range(0))};
  config.policy = experiments::PolicyKind::kMeetingRoom;
  config.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_classroom(config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassroomExperiment)->Arg(35)->Arg(55)->Unit(benchmark::kMillisecond);

void BM_CampusDaySweep(benchmark::State& state) {
  // The scale-out path: 16 independently seeded campus days across a thread
  // pool. Arg = thread count; aggregate statistics are identical across
  // thread counts (replication_test asserts this), only wall-clock changes.
  experiments::CampusSweepConfig config;
  config.base.attendees = 20;
  config.base.squatters = 6;
  config.replications = 16;
  config.threads = std::size_t(state.range(0));
  config.base_seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_campus_day_sweep(config));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_CampusDaySweep)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // the work happens on pool threads, not the timing thread

void BM_CampusDayPolicy(benchmark::State& state, experiments::CampusPolicy policy) {
  // One default-sized campus day (40 attendees, 10 squatters, seed 5) under
  // one reservation policy; items are the day's fired events, counted once
  // by a metered day, so the timed days run unmetered.
  experiments::CampusDayConfig config;
  config.policy = policy;
  obs::Registry registry;
  config.metrics = &registry;
  benchmark::DoNotOptimize(experiments::run_campus_day(config));
  const obs::CounterSample* fired = registry.snapshot().counter("sim.events_fired");
  const std::int64_t events = fired != nullptr ? std::int64_t(fired->value) : 0;
  config.metrics = nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_campus_day(config));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK_CAPTURE(BM_CampusDayPolicy, none, experiments::CampusPolicy::kNone)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CampusDayPolicy, static, experiments::CampusPolicy::kStatic)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CampusDayPolicy, brute-force, experiments::CampusPolicy::kBruteForce)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CampusDayPolicy, aggregate, experiments::CampusPolicy::kAggregate)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CampusDayPolicy, dispatcher, experiments::CampusPolicy::kDispatcher)
    ->Unit(benchmark::kMicrosecond);

void BM_MetricsHotPath(benchmark::State& state) {
  // One counter bump + one gauge set + one histogram record per iteration,
  // through cached instrument pointers — the per-event cost every
  // instrumented module pays once its bind_metrics() has run.
  obs::Registry registry;
  obs::Counter& counter = registry.counter("events");
  obs::Gauge& gauge = registry.gauge("depth");
  obs::Histogram& histogram =
      registry.histogram("lat", obs::HistogramSpec::log2(0.001, 1000.0, 4));
  double v = 0.0;
  for (auto _ : state) {
    counter.add();
    gauge.set(v);
    histogram.record(v);
    v = v < 900.0 ? v + 0.37 : 0.0;
  }
  benchmark::DoNotOptimize(registry.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHotPath);

void BM_TracerInstant(benchmark::State& state) {
  // Arg 0: tracer disabled (the always-paid guard branch). Arg 1: enabled
  // (ring-buffer append). With IMRM_TRACING=OFF both compile to the guard.
  obs::Tracer tracer(1 << 16);
  tracer.set_enabled(state.range(0) != 0);
  const obs::NameId name = tracer.intern("e", "bench");
  double t = 0.0;
  for (auto _ : state) {
    tracer.instant(sim::SimTime::seconds(t), name, 1, t);
    t += 1e-3;
  }
  benchmark::DoNotOptimize(tracer.records().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerInstant)->Arg(0)->Arg(1);

void BM_ProfilerScope(benchmark::State& state) {
  // Arg 0: profiler runtime-disabled (the guard branch every instrumented
  // call site pays). Arg 1: enabled — two steady_clock reads plus the frame
  // push/pop and phase accounting. With IMRM_PROFILING=OFF both args
  // measure the compiled-out stub.
  obs::Profiler profiler;
  profiler.set_enabled(state.range(0) != 0);
  const obs::PhaseId phase = profiler.intern("bench.scope");
  for (auto _ : state) {
    obs::Profiler::Scope scope(&profiler, phase);
    benchmark::DoNotOptimize(phase);
  }
  benchmark::DoNotOptimize(profiler.snapshot().phases.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerScope)->Arg(0)->Arg(1);

void BM_CampusDayTraced(benchmark::State& state) {
  // Overhead guardrail: one campus day untraced (arg 0) vs with an enabled
  // tracer + bound metrics registry (arg 1). The gap is the full
  // observability cost on a real workload; the issue budget is <5%.
  const bool observed = state.range(0) != 0;
  experiments::CampusDayConfig config;
  config.attendees = 20;
  config.squatters = 6;
  config.seed = 5;
  for (auto _ : state) {
    obs::Registry registry;
    obs::Tracer tracer;
    tracer.set_enabled(true);
    config.metrics = observed ? &registry : nullptr;
    config.tracer = observed ? &tracer : nullptr;
    benchmark::DoNotOptimize(experiments::run_campus_day(config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampusDayTraced)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
