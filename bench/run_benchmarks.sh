#!/usr/bin/env bash
# Runs the microbenchmark suite plus instrumented scenario_cli campus runs
# (clean and with admission-signaling faults) and writes a machine-readable
# perf trajectory file (default BENCH_10.json at the repo root) so later PRs
# have a baseline to beat. Schema:
# { "_meta": { "host_cpus": <int>, "git_commit": <str>,
#     "build": { "type": <str>, "IMRM_PROFILING": <str>,
#                "IMRM_TRACING": <str> }, "generated_utc": <str> },
#   "<benchmark name>": { "items_per_second": <double|null>,
#   "real_time_ns": <double> }, ...,
#   "scenario_cli/campus": { "events_per_second": <double>,
#     "handoff_wall_us_p50": <double|null>,
#     "handoff_wall_us_p99": <double|null> },
#   "scenario_cli/campus_faulted": { "events_per_second": <double>,
#     "faulted_vs_clean_ratio": <double> },
#   "scenario_cli/faults_sweep_fork": { "cold_wall_seconds": <double>,
#     "forked_wall_seconds": <double>, "fork_speedup": <double> },
#   "scenario_cli/campus_sharded": { "host_cpus": <int>,
#     "events_fired": <int>,
#     "events_per_second": { "1": <double>, "2": ..., "4": ..., "8": ... },
#     "speedup_4x": <double>, "profiled_vs_clean_ratio": <double>,
#     "profile": { "1": { "barriers": <int>, "windows": <int>,
#                         "shards": [lanes...] },
#                  "2": ..., "4": ... } },
#   "scenario_cli/campus_scale_sharded": { "host_cpus": <int>,
#     "events_fired": <int>, "windows": <int>, "boundary_messages": <int>,
#     "events_per_second": { "1": <double>, "2": ..., "4": ..., "8": ... },
#     "profile": { "barriers": <int>, "windows": <int>,
#       "realized_batch": <double>, "batch_windows": {histogram},
#       "shards": [lanes...] } },
#   "scenario_cli/service": { "virtual": { <deterministic drive counters +
#     virtual-time latency percentiles — gated exact> },
#     "saturation_rps": <double>, "overload": { "offered_rps": <double>,
#       "sustained_rps": <double>, "latency_p99_us": <double>,
#       "shed_fraction": <double> } },
#   "scenario_cli/campus_adapt": { "events_per_second": <double>,
#     "renegotiations_triggered": <int>, "renegotiations_accepted": <int>,
#     "windows_breached": <int>, "granted_prefault_bps": <double>,
#     "granted_min_bps": <double>, "granted_final_bps": <double>,
#     "offered_bits": <double>, "nonconforming_bits": <double> } }.
# The faulted/clean ratio tracks the overhead of the fault-injection path: a
# ratio far below 1.0 means the fault plumbing leaked onto the clean hot
# path. fork_speedup is the win from checkpoint forking: an 8-variant faults
# sweep on a slow-converging campus topology, cold (every replication replays
# the 60s warm phase) vs forked from one shared warm checkpoint. Expected
# well above 2x; the byte-identity of the two sweeps' metrics is asserted by
# tests/fault_checkpoint_test.cc, here we only time them.
#
# campus_sharded (ISSUE 5) runs the same sharded campus at 1/2/4/8 worker
# shards and records events/s per shard count plus host_cpus. speedup_4x is
# an HONEST measurement on the current host: the conservative-window rounds
# barrier-synchronize every window, so on a single-CPU box extra shards only
# add handoff overhead and the speedup sits below 1.0 — read it together
# with host_cpus before comparing across machines. The byte-identity of the
# per-shard metrics is asserted here too (the cheap end-to-end determinism
# check; the thorough one is ctest -L shard).
#
# campus_scale sweeps the grid campus over {10,100,1000} cells x
# {1k,10k,100k} portables on one worker and records events/s and
# bytes-per-portable per point.
#
# campus_scale_sharded (ISSUE 10) runs the grid campus through the
# window-batched ShardedRunner (one domain per cell) at the pinned 100x10k
# point, K in {1,2,4,8}, adaptive batching. The per-K metrics are asserted
# byte-identical here (cheap end-to-end check; the thorough matrix is
# ctest -L shard), `windows` and `boundary_messages` are exact-gated by
# bench_compare, and a profiled K=2 repeat records the honest barrier
# count: `profile.barriers` vs `profile.windows` is the realized batch
# factor this machine achieved — BENCH_7 paid one coordinator dispatch per
# window (80109 on the corridor day); the burst protocol is the fix, and
# the acceptance criterion is counted in dispatches, not wall speedup,
# because on a single-CPU host extra shards cannot speed anything up.
#
# Profiling (ISSUE 7): the sharded runs are repeated with --profile 1 at
# K=1/2/4 and the per-shard busy/barrier_wait/idle fractions plus barrier
# count land in campus_sharded.profile (wall-clock attribution — recorded
# for trend reading, never gated by bench_compare). Two invariants are
# asserted here: the profiled runs' metrics JSON is byte-identical to the
# clean runs' (profiling must never perturb simulation results), and the
# profiled throughput stays above a documented floor of clean (best-of-3
# each side, so one scheduler hiccup on a shared box doesn't fail the
# budget). The floor is 0.78, not the scope-level 5% budget, because this
# workload is the profiler's worst case by construction — and window
# batching (ISSUE 10) made it worse in relative terms by making the clean
# run faster: the condvar round trip that used to dominate each window
# (~6 us) is now paid once per burst, so the mandatory per-window clock
# reads (~30 ns each — two serializer stamps plus two per worker for the
# busy lanes) went from ~3-5% of a condvar-priced window to a structural
# ~15% of an atomic-barrier-priced one (~0.83x measured at BENCH_10 on
# this host). That cost is the measurement itself, not a leak; profiling
# a ~1.2-events-per-window corridor is the one workload where per-window
# attribution cannot amortize. A floor of 0.78 still catches what the
# gate is for — an accidental allocation, lock, or log call sneaking onto
# the per-round record path (any of which costs far more than a clock
# read per window) — without flapping on clock-read cost. The 5%
# discipline itself is enforced where it can be measured stably:
# BM_ProfilerScope pins the per-scope cost (disabled ~0.7 ns — one
# predicted branch — enabled ~2 clock reads), and on any workload whose
# windows do real work the per-round cost amortizes to well under 1%.
#
# Comparability across BENCH files (ISSUE 6 S1): earlier trajectories mixed
# campus configs (e.g. 20 vs 40 attendees), so the events/s series looked
# like a regression that was actually a workload change. Every scenario_cli/*
# entry now carries `host_cpus` and the `config` fingerprint echoed by the
# CLI; the measured workloads below are PINNED — change them only together
# with a schema note, never silently. After writing the trajectory, this
# script runs tools/bench_compare.py against the previous baseline
# (BENCH_9.json unless BENCH_BASELINE overrides it) and fails on any
# regression beyond the documented noise thresholds.
#
# Closed adaptation loop (ISSUE 9): one quiet campus day with the loop on —
# four adaptive streams, a Gilbert–Elliott fault window mid-day — pinned
# flags, no wall pacing anywhere in the loop, so every number except
# events/s is deterministic and gated bit-exact by bench_compare. The entry
# records the renegotiation counts, the granted-rate trajectory
# (prefault / under-fault minimum / final), and the shaper conformance
# split; this script additionally asserts the conservation identity and
# that the final grant recovered the pre-fault fixed point exactly.
#
# Service mode (ISSUE 8): three drive runs against the in-process admission
# service. The `virtual` entry is the deterministic co-simulation (ring
# transport, virtual pacing, pinned flags) — its counters and virtual-time
# latency percentiles must reproduce bit-exactly, so bench_compare gates
# them as `exact`. The wall side first probes saturation (open-loop at an
# unreachable offered rate; sustained_rps is then the service's real
# capacity on this host) and then drives at 1.5x that measured saturation,
# recording sustained req/s, accepted-latency p99, and the shed fraction —
# the overload numbers the run-report SLO story is judged by.
#
# Usage: bench/run_benchmarks.sh [output.json]
# Env:   BUILD_DIR       build directory relative to the repo root (default: build)
#        BENCH_ARGS      extra flags for bench_microperf (e.g. --benchmark_filter=...)
#        BENCH_BASELINE  baseline trajectory for the regression gate
#                        (default: BENCH_9.json; skipped when absent)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-build}
out=${1:-"$repo_root/BENCH_10.json"}

# The pinned measured workloads (S1). BENCH_4/BENCH_5 measured the campus
# day at these flags; keep them bit-for-bit stable across bench revisions.
campus_flags=(--attendees 20 --squatters 6 --seed 5)
scale_flags=(--duration 3600 --tick 5 --seed 5)
shard_flags=(--cells 32 --portables 32 --hours 4 --seed 11)
adapt_flags=(--adapt-loop 1 --attendees 0 --squatters 0 --seed 5)

cmake --build "$repo_root/$build_dir" --target bench_microperf scenario_cli -j >/dev/null

# Provenance header (_meta): which machine, commit, and build produced these
# numbers. bench_compare refuses cross-host comparisons on host_cpus.
cache="$repo_root/$build_dir/CMakeCache.txt"
export BENCH_GIT_COMMIT=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")
export BENCH_PROFILING=$(sed -n 's/^IMRM_PROFILING:[^=]*=//p' "$cache")
export BENCH_TRACING=$(sed -n 's/^IMRM_TRACING:[^=]*=//p' "$cache")
export BENCH_STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

raw=$(mktemp)
report=$(mktemp)
faulted_report=$(mktemp)
sweep_cold=$(mktemp)
sweep_forked=$(mktemp)
shard_dir=$(mktemp -d)
trap 'rm -rf "$shard_dir"; rm -f "$raw" "$report" "$faulted_report" "$sweep_cold" "$sweep_forked"' EXIT
"$repo_root/$build_dir/bench/bench_microperf" \
  --benchmark_format=json ${BENCH_ARGS:-} >"$raw"

# One instrumented campus day: the run report carries sim throughput and the
# wall-clock handoff latency histogram (mobility.handoff_wall_us).
"$repo_root/$build_dir/examples/scenario_cli" campus \
  "${campus_flags[@]}" --metrics-json "$report" >/dev/null

# The same day with a lossy admission-control plane: every admit probe rides
# an UnreliableCall (20% per-direction drop, 3 tries). Throughput relative to
# the clean run is the cost of the fault path.
"$repo_root/$build_dir/examples/scenario_cli" campus \
  "${campus_flags[@]}" --faults 0.2 \
  --metrics-json "$faulted_report" >/dev/null

# Warm-checkpoint forking (ISSUE 4): the same 8-variant faults sweep, cold
# vs forked from one shared warm image. The campus problem below takes tens
# of simulated seconds to converge, so replaying the warm phase per
# replication dominates the cold sweep; single-threaded so the timing
# measures work, not scheduling.
sweep_flags=(faults --topology campus --cells 12 --conns 48
             --faults-start 60 --stop 0.5 --drop 0.2 --flaps 2 --crashes 1
             --replications 8 --threads 1 --seed 3)
"$repo_root/$build_dir/examples/scenario_cli" "${sweep_flags[@]}" \
  --metrics-json "$sweep_cold" >/dev/null
"$repo_root/$build_dir/examples/scenario_cli" "${sweep_flags[@]}" --fork 1 \
  --metrics-json "$sweep_forked" >/dev/null

# Sharded campus scaling (ISSUE 5): the same corridor at 1/2/4/8 shards,
# timed clean (no profiler) so the events/s series stays comparable to
# earlier BENCH files.
for k in 1 2 4 8; do
  "$repo_root/$build_dir/examples/scenario_cli" campus --shards "$k" \
    "${shard_flags[@]}" --metrics-json "$shard_dir/shards$k.json" >/dev/null
done

# Profiled repeats (ISSUE 7): wall-clock attribution at K=1/2/4, plus the
# best-of-3 overhead measurement at K=2 (two extra runs per side; the first
# clean/profiled K=2 runs above and below count as sample 1).
for k in 1 2 4; do
  "$repo_root/$build_dir/examples/scenario_cli" campus --shards "$k" \
    "${shard_flags[@]}" --profile 1 \
    --metrics-json "$shard_dir/shards${k}_prof.json" >/dev/null
done
for i in 2 3; do
  "$repo_root/$build_dir/examples/scenario_cli" campus --shards 2 \
    "${shard_flags[@]}" --metrics-json "$shard_dir/shards2_clean$i.json" >/dev/null
  "$repo_root/$build_dir/examples/scenario_cli" campus --shards 2 \
    "${shard_flags[@]}" --profile 1 \
    --metrics-json "$shard_dir/shards2_prof$i.json" >/dev/null
done

# Campus-at-scale curve (ISSUE 6): events/s and bytes/portable over the
# 3x3 grid, on the sharded engine's default single worker.
for c in 10 100 1000; do
  for p in 1000 10000 100000; do
    "$repo_root/$build_dir/examples/scenario_cli" campus-scale \
      --cells "$c" --portables "$p" "${scale_flags[@]}" \
      --metrics-json "$shard_dir/scale_${c}x${p}.json" >/dev/null
  done
done

# Sharded grid campus (ISSUE 10): the pinned 100x10k point through the
# window-batched runner at K=1/2/4/8 (adaptive batching), clean, plus a
# profiled K=2 repeat for the barrier count and batch-size histogram.
for k in 1 2 4 8; do
  "$repo_root/$build_dir/examples/scenario_cli" campus-scale \
    --cells 100 --portables 10000 "${scale_flags[@]}" --shards "$k" \
    --metrics-json "$shard_dir/scale_sharded$k.json" >/dev/null
done
"$repo_root/$build_dir/examples/scenario_cli" campus-scale \
  --cells 100 --portables 10000 "${scale_flags[@]}" --shards 2 --profile 1 \
  --metrics-json "$shard_dir/scale_sharded_prof.json" >/dev/null

# Closed adaptation loop (ISSUE 9): the pinned quiet campus day with the
# loop on; everything but events/s in the resulting entry is deterministic.
"$repo_root/$build_dir/examples/scenario_cli" campus \
  "${adapt_flags[@]}" --metrics-json "$shard_dir/campus_adapt.json" >/dev/null

# Service mode (ISSUE 8). Deterministic virtual run first: pinned flags,
# past-saturation so the shed path is exercised; every number in it is gated
# bit-exact by bench_compare.
service_flags=(--portables 64 --cells 16 --seed 11)
"$repo_root/$build_dir/examples/scenario_cli" drive \
  --transport ring --pacing virtual --rate 7500 --duration 5 \
  "${service_flags[@]}" --queue-cap 16 \
  --metrics-json "$shard_dir/service_virtual.json" >/dev/null

# Wall saturation probe: offer far more than the service can take; the
# governor sheds the surplus and sustained_rps converges on real capacity.
"$repo_root/$build_dir/examples/scenario_cli" drive \
  --transport ring --pacing wall --rate 200000 --duration 2 \
  "${service_flags[@]}" --queue-cap 64 \
  --metrics-json "$shard_dir/service_probe.json" >/dev/null

# 1.5x the measured saturation: the overload point the ISSUE names.
overload_rate=$(python3 -c "import json; print(1.5 * json.load(open(
    '$shard_dir/service_probe.json'))['service']['sustained_rps'])")
"$repo_root/$build_dir/examples/scenario_cli" drive \
  --transport ring --pacing wall --rate "$overload_rate" --duration 3 \
  "${service_flags[@]}" --queue-cap 64 \
  --metrics-json "$shard_dir/service_overload.json" >/dev/null

python3 - "$raw" "$report" "$faulted_report" "$sweep_cold" "$sweep_forked" "$shard_dir" "$out" <<'PYEOF'
import json
import os
import sys

NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

with open(sys.argv[1]) as f:
    raw = json.load(f)

trajectory = {
    "_meta": {
        "host_cpus": os.cpu_count(),
        "git_commit": os.environ.get("BENCH_GIT_COMMIT", "unknown"),
        "build": {
            "type": os.environ.get("BENCH_BUILD_TYPE", ""),
            "IMRM_PROFILING": os.environ.get("BENCH_PROFILING", ""),
            "IMRM_TRACING": os.environ.get("BENCH_TRACING", ""),
        },
        "generated_utc": os.environ.get("BENCH_STAMP", ""),
    },
}
for bench in raw["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    scale = NS_PER[bench.get("time_unit", "ns")]
    trajectory[bench["name"]] = {
        "items_per_second": bench.get("items_per_second"),
        "real_time_ns": bench["real_time"] * scale,
    }

def entry(report, **fields):
    """Every scenario_cli/* entry carries the host size and the exact config
    the CLI echoed (S1): trajectories across BENCH files are only comparable
    when both match."""
    out = {"host_cpus": os.cpu_count(), "config": report["config"]}
    out.update(fields)
    return out

with open(sys.argv[2]) as f:
    report = json.load(f)
handoff = report["metrics"]["histograms"].get("mobility.handoff_wall_us", {})
trajectory["scenario_cli/campus"] = entry(
    report,
    events_per_second=report["events_per_second"],
    handoff_wall_us_p50=handoff.get("p50"),
    handoff_wall_us_p99=handoff.get("p99"),
)

with open(sys.argv[3]) as f:
    faulted = json.load(f)
trajectory["scenario_cli/campus_faulted"] = entry(
    faulted,
    events_per_second=faulted["events_per_second"],
    faulted_vs_clean_ratio=(
        faulted["events_per_second"] / report["events_per_second"]),
)

with open(sys.argv[4]) as f:
    sweep_cold = json.load(f)
with open(sys.argv[5]) as f:
    sweep_forked = json.load(f)
if sweep_cold["metrics"] != sweep_forked["metrics"]:
    sys.exit("faults sweep: forked metrics differ from cold metrics")
trajectory["scenario_cli/faults_sweep_fork"] = entry(
    sweep_cold,
    cold_wall_seconds=sweep_cold["wall_seconds"],
    forked_wall_seconds=sweep_forked["wall_seconds"],
    fork_speedup=sweep_cold["wall_seconds"] / sweep_forked["wall_seconds"],
)

shard_dir = sys.argv[6]
sharded = {}
shard_metrics = {}
for k in (1, 2, 4, 8):
    with open(f"{shard_dir}/shards{k}.json") as f:
        shard_report = json.load(f)
    sharded[str(k)] = shard_report["events_per_second"]
    shard_metrics[k] = shard_report["metrics"]
    events_fired = shard_report["events_fired"]
for k in (2, 4, 8):
    if shard_metrics[k] != shard_metrics[1]:
        sys.exit(f"sharded campus: metrics at shards={k} differ from shards=1")

# Profiled repeats (ISSUE 7). Two invariants plus the attribution payload:
#  * metrics byte-identity — profiling only reads clocks, never schedules;
#  * throughput floor — best-of-3 profiled >= 0.78x best-of-3 clean (see
#    the header comment for why the floor sits below the 5% scope budget
#    on this barrier-bound worst-case workload, and why batching lowered
#    it: cheaper windows make fixed clock reads a larger fraction).
profile_block = {}
prof_eps = {}
for k in (1, 2, 4):
    with open(f"{shard_dir}/shards{k}_prof.json") as f:
        prof_report = json.load(f)
    if prof_report["metrics"] != shard_metrics[k]:
        sys.exit(f"sharded campus: profiled metrics at shards={k} differ "
                 "from clean metrics — profiling perturbed the simulation")
    prof_eps[k] = prof_report["events_per_second"]
    p = prof_report["profile"]
    profile_block[str(k)] = {
        "barriers": p["barriers"],
        "windows": p["windows"],
        "boundary_messages": p["boundary_messages"],
        "shards": [
            {key: lane[key] for key in ("busy_frac", "barrier_wait_frac",
                                        "idle_frac", "straggler_windows")}
            for lane in p["shards"]
        ],
    }
clean_best = max([sharded["2"]] + [
    json.load(open(f"{shard_dir}/shards2_clean{i}.json"))["events_per_second"]
    for i in (2, 3)])
prof_best = max([prof_eps[2]] + [
    json.load(open(f"{shard_dir}/shards2_prof{i}.json"))["events_per_second"]
    for i in (2, 3)])
overhead_ratio = prof_best / clean_best
if overhead_ratio < 0.78:
    sys.exit(f"profiling overhead floor blown: best profiled throughput is "
             f"{overhead_ratio:.3f}x of best clean (floor 0.78) — something "
             "heavier than clock reads landed on the per-round record path")

trajectory["scenario_cli/campus_sharded"] = entry(
    shard_report,
    events_fired=events_fired,
    events_per_second=sharded,
    speedup_4x=sharded["4"] / sharded["1"],
    profiled_vs_clean_ratio=overhead_ratio,
    profile=profile_block,
)

# Campus-at-scale curve: 3x3 grid of events/s and bytes/portable.
grid = {}
scale_config = None
for c in (10, 100, 1000):
    for p in (1000, 10000, 100000):
        with open(f"{shard_dir}/scale_{c}x{p}.json") as f:
            scale_report = json.load(f)
        gauges = scale_report["metrics"]["gauges"]
        grid[f"{c}x{p}"] = {
            "events_per_second": scale_report["events_per_second"],
            "events_fired": scale_report["events_fired"],
            "bytes_per_portable": gauges["scale.bytes_per_portable"]["value"],
        }
        scale_config = scale_report["config"]
trajectory["scenario_cli/campus_scale"] = {
    "host_cpus": os.cpu_count(),
    "config": scale_config,
    "grid": grid,
}

# Sharded grid campus (ISSUE 10): byte-identical per-K metrics (asserted),
# exact-gated windows/boundary totals, and the realized batch factor from
# the profiled repeat — barriers vs windows is the number the window
# batching exists to shrink (ISSUE 5 behavior was barriers == windows).
scale_sharded_eps = {}
scale_sharded_metrics = {}
for k in (1, 2, 4, 8):
    with open(f"{shard_dir}/scale_sharded{k}.json") as f:
        ss_report = json.load(f)
    scale_sharded_eps[str(k)] = ss_report["events_per_second"]
    scale_sharded_metrics[k] = ss_report["metrics"]
for k in (2, 4, 8):
    if scale_sharded_metrics[k] != scale_sharded_metrics[1]:
        sys.exit(f"sharded scale campus: metrics at shards={k} differ from "
                 "shards=1")
with open(f"{shard_dir}/scale_sharded_prof.json") as f:
    ss_prof = json.load(f)
if ss_prof["metrics"] != scale_sharded_metrics[2]:
    sys.exit("sharded scale campus: profiled metrics differ from clean — "
             "profiling perturbed the simulation")
ss_counters = ss_report["metrics"]["counters"]
sp = ss_prof["profile"]
trajectory["scenario_cli/campus_scale_sharded"] = {
    "host_cpus": os.cpu_count(),
    "config": ss_report["config"],
    "events_fired": ss_report["events_fired"],
    "events_per_second": scale_sharded_eps,
    "windows": ss_counters["shard.windows"],
    "boundary_messages": ss_counters["shard.boundary_messages"],
    "profile": {
        "barriers": sp["barriers"],
        "windows": sp["windows"],
        "realized_batch": sp["windows"] / sp["barriers"],
        "batch_windows": sp["batch_windows"],
        "shards": [
            {key: lane[key] for key in ("busy_frac", "barrier_wait_frac",
                                        "idle_frac", "straggler_windows")}
            for lane in sp["shards"]
        ],
    },
}

# Closed adaptation loop (ISSUE 9). Deterministic end to end: gate-worthy
# counters come straight from the report's adaptation block, and the two
# loop invariants — shaper conservation and bit-exact recovery of the
# pre-fault grant — are asserted here before the entry is written.
with open(f"{shard_dir}/campus_adapt.json") as f:
    adapt = json.load(f)
ab = adapt["adaptation"]
if ab["offered_bits"] != ab["bg_bits"] + ab["wc_bits"] + ab["nonconforming_bits"]:
    sys.exit("campus adapt: shaper conservation broken — offered_bits != "
             "bg + wc + nonconforming")
if ab["granted_final_bps"] != ab["granted_prefault_bps"]:
    sys.exit("campus adapt: the loop did not recover the pre-fault grant "
             f"({ab['granted_final_bps']:g} != {ab['granted_prefault_bps']:g})")
trajectory["scenario_cli/campus_adapt"] = entry(
    adapt,
    events_per_second=adapt["events_per_second"],
    renegotiations_triggered=ab["renegotiations_triggered"],
    renegotiations_accepted=ab["renegotiations_accepted"],
    windows_breached=ab["windows_breached"],
    granted_prefault_bps=ab["granted_prefault_bps"],
    granted_min_bps=ab["granted_min_bps"],
    granted_final_bps=ab["granted_final_bps"],
    offered_bits=ab["offered_bits"],
    nonconforming_bits=ab["nonconforming_bits"],
)

# Service mode (ISSUE 8). The virtual entry is deterministic end to end
# (gated exact); the wall entries measure this host's service capacity and
# its behaviour at 1.5x that capacity.
with open(f"{shard_dir}/service_virtual.json") as f:
    virt = json.load(f)
with open(f"{shard_dir}/service_probe.json") as f:
    probe = json.load(f)
with open(f"{shard_dir}/service_overload.json") as f:
    overload = json.load(f)
vs = virt["service"]
if vs["offered"] != vs["processed"] + vs["shed"] + vs["unanswered"]:
    sys.exit("service virtual: offered != processed + shed + unanswered")
if overload["service"]["shed"] == 0:
    sys.exit("service overload: driving at 1.5x saturation never shed — "
             "the governor did not engage")
trajectory["scenario_cli/service"] = entry(
    virt,
    virtual={key: vs[key] for key in (
        "offered", "processed", "shed", "errors", "admit_accepted",
        "admit_rejected", "handoffs", "latency_p50_us", "latency_p99_us")},
    saturation_rps=probe["service"]["sustained_rps"],
    overload={key: overload["service"][key] for key in (
        "offered_rps", "sustained_rps", "latency_p99_us", "shed_fraction")},
)

with open(sys.argv[7], "w") as f:
    json.dump(trajectory, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {sys.argv[7]} ({len(trajectory) - 1} entries)")
PYEOF

# Regression gate: the new trajectory must not regress past the previous
# baseline beyond the noise thresholds documented in bench_compare.py.
baseline=${BENCH_BASELINE:-"$repo_root/BENCH_9.json"}
if [[ -f "$baseline" && "$baseline" != "$out" ]]; then
  python3 "$repo_root/tools/bench_compare.py" "$baseline" "$out"
else
  echo "bench_compare: no baseline at $baseline — gate skipped"
fi
