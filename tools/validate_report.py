#!/usr/bin/env python3
"""Validate imrm run reports and Chrome traces (stdlib only).

A run report is the JSON written by ``scenario_cli --metrics-json`` (schema
version 5, produced by obs::RunReport::write_json); a trace is the Chrome
trace_event JSON written by ``--trace-out`` (loadable in Perfetto / about
chrome://tracing). This script is the machine-checkable contract for both
formats and runs under ctest (see examples/CMakeLists.txt).

Schema v5 delta (ISSUE 10): the profile's sharded section reflects
window-batched barriers — ``barriers`` now counts coordinator dispatches
(full-stop barriers with a condvar round trip), with new ``windows``
(lockstep windows executed, >= barriers), ``profiled_wall_ns`` (the wall
covered by dispatch accounting; every lane's busy + barrier_wait + idle
sums to it) and a ``batch_windows`` histogram of realized burst sizes.
Everything else is unchanged from v4.

Schema v4 delta (ISSUE 9): an optional top-level ``adaptation`` object
carries closed-adaptation-loop accounting — renegotiation counts, window
verdict tallies, the dual token-bucket shaper's conformance conservation
(offered == bg + wc + nonconforming, in bits), air-hop packet conservation,
and the grant trajectory across the fault window. The block is present
exactly for ``campus --adapt-loop`` runs; everything else is unchanged
from v3.

Schema v3 delta (ISSUE 8): an optional top-level ``service`` object carries
admission-control service-mode accounting — offered/processed/shed/errors
conservation, offered and sustained request rates, latency percentiles, and
the SLO verdict. The block is present exactly for ``serve``/``drive`` runs;
everything else is unchanged from v2.

Schema v2 delta (ISSUE 7): an optional top-level ``profile`` object carries
wall-clock attribution — interned phase totals plus, for sharded runs,
per-shard busy/barrier_wait/idle lanes and window histograms. The block is
present exactly when the run was profiled (``--profile 1``); everything
else is unchanged from v1.

Usage:
  tools/validate_report.py report.json [trace.json]
  tools/validate_report.py --run path/to/scenario_cli [command args...]

With --run, the given scenario_cli binary is invoked with --metrics-json and
--trace-out pointing at a temp directory, then both outputs are validated.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA_VERSION = 5
TRACE_PHASES = {"i", "X", "C", "M"}


class ValidationError(Exception):
    pass


def _expect(cond, message):
    if not cond:
        raise ValidationError(message)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _expected_buckets(spec):
    if spec["scale"] == "linear":
        return spec["divisions"]
    octaves = math.ceil(round(math.log2(spec["hi"] / spec["lo"]), 9))
    return octaves * spec["divisions"]


def validate_histogram(name, h):
    where = f"histogram {name!r}"
    for key in ("scale", "lo", "hi", "divisions", "count", "underflow",
                "overflow", "sum", "min", "max", "p50", "p90", "p99",
                "buckets"):
        _expect(key in h, f"{where}: missing key {key!r}")
    _expect(h["scale"] in ("linear", "log2"),
            f"{where}: bad scale {h['scale']!r}")
    _expect(_is_number(h["lo"]) and _is_number(h["hi"]) and h["lo"] < h["hi"],
            f"{where}: bounds must satisfy lo < hi")
    _expect(_is_count(h["divisions"]) and h["divisions"] > 0,
            f"{where}: divisions must be a positive integer")
    for key in ("count", "underflow", "overflow"):
        _expect(_is_count(h[key]), f"{where}: {key} must be a non-negative int")
    for key in ("sum", "min", "max", "p50", "p90", "p99"):
        _expect(_is_number(h[key]), f"{where}: {key} must be a number")
    _expect(isinstance(h["buckets"], list) and all(_is_count(b) for b in h["buckets"]),
            f"{where}: buckets must be a list of non-negative ints")
    _expect(len(h["buckets"]) == _expected_buckets(h),
            f"{where}: expected {_expected_buckets(h)} buckets, "
            f"got {len(h['buckets'])}")
    total = sum(h["buckets"]) + h["underflow"] + h["overflow"]
    _expect(total == h["count"],
            f"{where}: buckets+underflow+overflow = {total} != count {h['count']}")
    if h["count"] > 0:
        _expect(h["min"] <= h["max"], f"{where}: min > max")


def validate_metrics(metrics):
    _expect(isinstance(metrics, dict), "metrics must be an object")
    for section in ("counters", "gauges", "histograms"):
        _expect(isinstance(metrics.get(section), dict),
                f"metrics.{section} must be an object")
    for name, value in metrics["counters"].items():
        _expect(_is_count(value), f"counter {name!r} must be a non-negative int")
    for name, g in metrics["gauges"].items():
        _expect(isinstance(g, dict) and _is_number(g.get("value"))
                and _is_number(g.get("max")),
                f"gauge {name!r} must be {{value, max}}")
    for name, h in metrics["histograms"].items():
        validate_histogram(name, h)


def _validate_profile_histogram(name, h):
    where = f"profile.{name}"
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99"):
        _expect(key in h, f"{where}: missing key {key!r}")
    _expect(_is_count(h["count"]), f"{where}: count must be a non-negative int")
    for key in ("sum", "min", "max", "p50", "p90", "p99"):
        _expect(_is_number(h[key]), f"{where}: {key} must be a number")


def validate_profile(profile):
    """The schema-v2 `profile` block: wall-clock phases, optional shard lanes."""
    _expect(isinstance(profile, dict), "profile must be an object")
    _expect(profile.get("clock") == "steady", "profile.clock must be 'steady'")
    phases = profile.get("phases")
    _expect(isinstance(phases, dict), "profile.phases must be an object")
    for name, p in phases.items():
        where = f"profile phase {name!r}"
        _expect(isinstance(p, dict), f"{where} must be an object")
        for key in ("calls", "total_ns", "self_ns", "min_ns", "max_ns"):
            _expect(_is_count(p.get(key)),
                    f"{where}: {key} must be a non-negative int")
        _expect(p["calls"] > 0, f"{where}: zero-call phases must be omitted")
        _expect(p["self_ns"] <= p["total_ns"], f"{where}: self_ns > total_ns")
    if "shards" not in profile:
        return
    for key in ("barriers", "windows", "profiled_wall_ns",
                "boundary_messages", "boundary_bytes"):
        _expect(_is_count(profile.get(key)),
                f"profile.{key} must be a non-negative int")
    _expect(profile["windows"] >= profile["barriers"],
            "profile: windows cannot be fewer than dispatches (barriers)")
    shards = profile["shards"]
    _expect(isinstance(shards, list) and shards,
            "profile.shards must be a non-empty list")
    for i, lane in enumerate(shards):
        where = f"profile.shards[{i}]"
        _expect(isinstance(lane, dict), f"{where} must be an object")
        for key in ("busy_ns", "barrier_wait_ns", "idle_ns", "straggler_windows"):
            _expect(_is_count(lane.get(key)),
                    f"{where}: {key} must be a non-negative int")
        fracs = [lane.get(k) for k in ("busy_frac", "barrier_wait_frac",
                                       "idle_frac")]
        _expect(all(_is_number(f) and 0.0 <= f <= 1.0 for f in fracs),
                f"{where}: lane fractions must be numbers in [0, 1]")
        _expect(abs(sum(fracs) - 1.0) < 1e-6 or sum(fracs) == 0.0,
                f"{where}: lane fractions must sum to 1 (or all be 0)")
    _expect(sum(l["straggler_windows"] for l in shards) == profile["barriers"],
            "profile: straggler_windows must sum to the barrier count")
    # Each lane names the contiguous domain block it executes; the blocks
    # tile [0, domains) in lane order.
    next_begin = 0
    for i, lane in enumerate(shards):
        where = f"profile.shards[{i}]"
        span = lane.get("domains")
        _expect(isinstance(span, list) and len(span) == 2
                and all(_is_count(d) for d in span),
                f"{where}: domains must be a [begin, end) pair of counts")
        _expect(span[0] == next_begin and span[1] > span[0],
                f"{where}: domain blocks must tile the domains in lane order")
        next_begin = span[1]
        for key in ("rows_delivered", "busiest_domain", "busiest_domain_rows"):
            _expect(_is_count(lane.get(key)),
                    f"{where}: {key} must be a non-negative int")
        _expect(span[0] <= lane["busiest_domain"] < span[1],
                f"{where}: busiest_domain lies outside the lane's domains")
        _expect(lane["busiest_domain_rows"] <= lane["rows_delivered"],
                f"{where}: busiest_domain_rows exceeds rows_delivered")
    for lane_i, lane in enumerate(shards):
        lane_wall = lane["busy_ns"] + lane["barrier_wait_ns"] + lane["idle_ns"]
        _expect(lane_wall == profile["profiled_wall_ns"],
                f"profile.shards[{lane_i}]: busy+barrier_wait+idle = "
                f"{lane_wall} != profiled_wall_ns "
                f"{profile['profiled_wall_ns']}")
    for key in ("window_ns", "messages_per_barrier", "batch_windows"):
        _expect(isinstance(profile.get(key), dict),
                f"profile.{key} must be an object")
        _validate_profile_histogram(key, profile[key])


SERVICE_COUNTS = ("offered", "processed", "shed", "errors", "admit_accepted",
                  "admit_rejected", "teardowns", "handoffs", "handoff_drops",
                  "probes", "unanswered", "peak_queue_depth")
SERVICE_NUMBERS = ("duration_seconds", "offered_rps", "sustained_rps",
                   "shed_fraction", "latency_p50_us", "latency_p90_us",
                   "latency_p99_us", "slo_p99_us")


def validate_service(service):
    """The schema-v3 `service` block: service-mode accounting + SLO verdict."""
    _expect(isinstance(service, dict), "service must be an object")
    _expect(service.get("transport") in ("ring", "socket"),
            f"service.transport must be 'ring' or 'socket', "
            f"got {service.get('transport')!r}")
    _expect(service.get("pacing") in ("virtual", "wall"),
            f"service.pacing must be 'virtual' or 'wall', "
            f"got {service.get('pacing')!r}")
    for key in SERVICE_COUNTS:
        _expect(_is_count(service.get(key)),
                f"service.{key} must be a non-negative int")
    for key in SERVICE_NUMBERS:
        _expect(_is_number(service.get(key)) and service[key] >= 0,
                f"service.{key} must be a non-negative number")
    _expect(isinstance(service.get("slo_met"), bool),
            "service.slo_met must be a boolean")
    _expect(service["offered"] ==
            service["processed"] + service["shed"] + service["unanswered"],
            "service: offered must equal processed + shed + unanswered")
    _expect(service["errors"] <= service["processed"],
            "service: errors cannot exceed processed")
    _expect(0.0 <= service["shed_fraction"] <= 1.0,
            "service.shed_fraction must be in [0, 1]")
    _expect(service["slo_met"] ==
            (service["latency_p99_us"] <= service["slo_p99_us"]),
            "service.slo_met must match latency_p99_us <= slo_p99_us")


ADAPTATION_COUNTS = ("flows", "renegotiations_triggered",
                     "renegotiations_accepted", "windows_breached",
                     "windows_clean", "windows_insufficient", "offered_bits",
                     "bg_bits", "wc_bits", "nonconforming_bits",
                     "hop_offered_packets", "hop_delivered_packets",
                     "hop_dropped_packets")
ADAPTATION_NUMBERS = ("granted_bps", "enforced_bps", "granted_prefault_bps",
                      "granted_min_bps", "granted_final_bps")


def validate_adaptation(adaptation):
    """The schema-v4 `adaptation` block: closed-loop renegotiation accounting."""
    _expect(isinstance(adaptation, dict), "adaptation must be an object")
    for key in ADAPTATION_COUNTS:
        _expect(_is_count(adaptation.get(key)),
                f"adaptation.{key} must be a non-negative int")
    for key in ADAPTATION_NUMBERS:
        _expect(_is_number(adaptation.get(key)) and adaptation[key] >= 0,
                f"adaptation.{key} must be a non-negative number")
    _expect(adaptation["flows"] > 0, "adaptation.flows must be positive")
    _expect(adaptation["offered_bits"] ==
            adaptation["bg_bits"] + adaptation["wc_bits"]
            + adaptation["nonconforming_bits"],
            "adaptation: offered_bits must equal bg + wc + nonconforming bits")
    _expect(adaptation["hop_offered_packets"] ==
            adaptation["hop_delivered_packets"]
            + adaptation["hop_dropped_packets"],
            "adaptation: hop offered must equal delivered + dropped")
    _expect(adaptation["renegotiations_accepted"] <=
            adaptation["renegotiations_triggered"],
            "adaptation: accepted renegotiations cannot exceed triggered")


def validate_report(report):
    _expect(isinstance(report, dict), "report must be a JSON object")
    _expect(report.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}")
    for key in ("tool", "scenario"):
        _expect(isinstance(report.get(key), str) and report[key],
                f"{key} must be a non-empty string")
    _expect(isinstance(report.get("config"), dict)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in report["config"].items()),
            "config must be an object of string -> string")
    for key in ("wall_seconds", "sim_time_seconds", "events_per_second"):
        _expect(_is_number(report.get(key)) and report[key] >= 0,
                f"{key} must be a non-negative number")
    _expect(_is_count(report.get("events_fired")),
            "events_fired must be a non-negative int")
    if "profile" in report:
        validate_profile(report["profile"])
    if "service" in report:
        validate_service(report["service"])
    if "adaptation" in report:
        validate_adaptation(report["adaptation"])
    validate_metrics(report.get("metrics"))


def validate_trace(trace):
    _expect(isinstance(trace, dict), "trace must be a JSON object")
    _expect(trace.get("displayTimeUnit") == "ms",
            "trace.displayTimeUnit must be 'ms'")
    events = trace.get("traceEvents")
    _expect(isinstance(events, list), "traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        _expect(isinstance(event, dict), f"{where} must be an object")
        _expect(event.get("ph") in TRACE_PHASES,
                f"{where}: bad phase {event.get('ph')!r}")
        _expect(isinstance(event.get("name"), str) and event["name"],
                f"{where}: name must be a non-empty string")
        _expect(_is_count(event.get("pid")), f"{where}: pid must be an int")
        if event["ph"] == "M":
            continue
        _expect(_is_count(event.get("tid")), f"{where}: tid must be an int")
        _expect(_is_number(event.get("ts")) and event["ts"] >= 0,
                f"{where}: ts must be a non-negative number (microseconds)")
        if event["ph"] == "X":
            _expect(_is_number(event.get("dur")) and event["dur"] >= 0,
                    f"{where}: complete event needs a non-negative dur")


def validate_files(report_path, trace_path=None):
    with open(report_path) as f:
        validate_report(json.load(f))
    print(f"ok: {report_path} is a valid v{SCHEMA_VERSION} run report")
    if trace_path is not None:
        with open(trace_path) as f:
            validate_trace(json.load(f))
        print(f"ok: {trace_path} is a well-formed Chrome trace")


def run_and_validate(argv):
    _expect(len(argv) >= 1, "--run needs the scenario_cli path")
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        trace_path = Path(tmp) / "trace.json"
        cmd = [argv[0], *argv[1:],
               "--metrics-json", str(report_path),
               "--trace-out", str(trace_path)]
        result = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        _expect(result.returncode == 0,
                f"{' '.join(cmd)} exited with {result.returncode}")
        _expect(report_path.exists(), "scenario_cli wrote no report")
        _expect(trace_path.exists(), "scenario_cli wrote no --trace-out file")
        validate_files(report_path, trace_path)


def main():
    args = sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if args else 2
    try:
        if args[0] == "--run":
            run_and_validate(args[1:])
        else:
            validate_files(args[0], args[1] if len(args) > 1 else None)
    except ValidationError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
