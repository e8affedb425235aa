#!/usr/bin/env python3
"""End-to-end contract for scenario_cli serve / drive.

Four checks, each against the schema-v3 `service` report block:

  1. determinism — two `drive --transport ring --pacing virtual` runs at the
     same seed must produce byte-identical `service` and `metrics` objects
     (the in-process ring plus virtual pacing is the reproducible path);
  2. trace arrivals — a recorded trace drives exactly its own events, and a
     malformed trace is rejected up front with exit 2 naming the bad line;
  3. socket — a real `serve` process driven by a separate `drive --transport
     socket` process; the driver's --shutdown 1 must terminate the server,
     and both sides' reports must validate;
  4. decision golden — each run in GOLDEN_RUNS must reproduce the `service`
     and `metrics` objects stored at its place in
     tests/golden/serve_drive_golden.json byte for byte, so a change that
     alters any admission, handoff or latency outcome of the service path
     fails here rather than only against a twin run of itself. Every run
     must account for each offered request (offered = processed + shed +
     unanswered), and the 7500 req/s run, past the service's virtual
     capacity, must shed.

A change meant to move decisions replaces the golden with golden_text()'s
output for the new binary.

Usage: check_serve_cli.py <path-to-scenario_cli>
"""
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
VALIDATE = TOOLS / "validate_report.py"
GOLDEN = TOOLS.parent / "tests" / "golden" / "serve_drive_golden.json"
# A half-load drive, and an overloaded one whose bounded queue makes the
# governor shed deterministically.
OVERLOAD_ARGS = ["drive", "--transport", "ring", "--pacing", "virtual", "--rate", "7500",
                 "--duration", "5", "--portables", "64", "--cells", "16", "--seed", "11",
                 "--queue-cap", "16"]
GOLDEN_RUNS = [["drive", "--rate", "2500", "--seed", "7"], OVERLOAD_ARGS]


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(cli, args, **kwargs):
    proc = subprocess.run([cli] + args, capture_output=True, text=True,
                          timeout=300, **kwargs)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    return proc


def validate(report_path):
    proc = subprocess.run([sys.executable, str(VALIDATE), str(report_path)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"validate_report.py rejected {report_path}:\n"
             f"{proc.stdout}{proc.stderr}")


def check_determinism(cli, tmp):
    reports = []
    for i in range(2):
        path = tmp / f"det{i}.json"
        run(cli, ["drive", "--transport", "ring", "--pacing", "virtual",
                  "--rate", "2000", "--duration", "3", "--seed", "9",
                  "--portables", "32", "--cells", "8", "--queue-cap", "16",
                  "--metrics-json", str(path)])
        validate(path)
        reports.append(json.loads(path.read_text()))
    for field in ("service", "metrics"):
        if reports[0][field] != reports[1][field]:
            fail(f"virtual-pacing runs disagree on {field!r}")
    service = reports[0]["service"]
    if service["transport"] != "ring" or service["pacing"] != "virtual":
        fail(f"unexpected transport/pacing echo: {service}")
    if service["offered"] == 0 or service["admit_accepted"] == 0:
        fail(f"degenerate drive run: {service}")
    print("OK: in-process virtual drive is deterministic "
          f"(offered={service['offered']} shed={service['shed']})")


def check_trace(cli, tmp):
    trace = tmp / "arrivals.trace"
    trace.write_text(
        "# three-portable warmup\n"
        "0.00 admit 0 0\n"
        "0.01 admit 1 1\n"
        "0.02 handoff 0 1\n"
        "0.03 probe\n"
        "0.04 teardown 1\n")
    report = tmp / "trace.json"
    run(cli, ["drive", "--transport", "ring", "--pacing", "virtual",
              "--arrivals", "trace", "--trace-in", str(trace),
              "--cells", "8", "--metrics-json", str(report)])
    validate(report)
    service = json.loads(report.read_text())["service"]
    if service["offered"] != 5:
        fail(f"trace offered {service['offered']} events, expected 5")
    if service["errors"] != 0:
        fail(f"trace drive hit {service['errors']} service errors")

    bad = tmp / "bad.trace"
    bad.write_text("0.0 admit 0 0\n0.1 frobnicate 1\n")
    proc = subprocess.run(
        [cli, "drive", "--arrivals", "trace", "--trace-in", str(bad)],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"malformed trace exited {proc.returncode}, expected 2")
    if f"{bad}:2" not in proc.stderr:
        fail(f"malformed-trace diagnostic does not name line 2: {proc.stderr!r}")
    print("OK: trace arrivals replay exactly; malformed traces exit 2")


def check_socket(cli, tmp):
    sock = tmp / "imrm.sock"
    serve_report = tmp / "serve.json"
    drive_report = tmp / "drive.json"
    server = subprocess.Popen(
        [cli, "serve", "--socket", str(sock), "--cells", "8",
         "--queue-cap", "64", "--deadline", "60",
         "--metrics-json", str(serve_report)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # The "serving on" line is flushed before the accept loop starts.
        line = server.stdout.readline()
        if "serving on" not in line:
            fail(f"serve did not announce itself: {line!r}")
        for _ in range(100):
            if sock.exists():
                break
            time.sleep(0.05)
        run(cli, ["drive", "--transport", "socket", "--socket", str(sock),
                  "--rate", "500", "--duration", "2", "--seed", "3",
                  "--portables", "16", "--cells", "8", "--shutdown", "1",
                  "--metrics-json", str(drive_report)])
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("serve did not exit after the driver's Shutdown request")
        if server.returncode != 0:
            fail(f"serve exited {server.returncode}: {server.stderr.read()}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    validate(serve_report)
    validate(drive_report)
    served = json.loads(serve_report.read_text())["service"]
    drove = json.loads(drive_report.read_text())["service"]
    if served["transport"] != "socket" or served["pacing"] != "wall":
        fail(f"serve report transport/pacing wrong: {served}")
    if served["offered"] == 0:
        fail("serve processed nothing")
    # The driver sent everything the server saw (shutdown frame included).
    if drove["offered"] != served["offered"]:
        fail(f"driver sent {drove['offered']} but server saw "
             f"{served['offered']}")
    print(f"OK: socket serve/drive round trip "
          f"(offered={served['offered']} errors={served['errors']})")


def golden_text(cli, tmp):
    """A list of the `service` and `metrics` objects of each golden drive, in
    GOLDEN_RUNS order, each serialized canonically (sorted keys, shortest
    round-trip floats)."""
    points = []
    for args in GOLDEN_RUNS:
        path = tmp / "golden_drive.json"
        run(cli, args + ["--metrics-json", str(path)])
        validate(path)
        report = json.loads(path.read_text())
        pinned = {field: report[field] for field in ("service", "metrics")}
        points.append(json.dumps(pinned, indent=1, sort_keys=True))
    return "[\n" + ",\n".join(points) + "\n]\n"


def check_golden(cli, tmp):
    actual = golden_text(cli, tmp)
    got = dict(zip(map(" ".join, GOLDEN_RUNS), json.loads(actual)))
    for run_line, point in got.items():
        service = point["service"]
        if service["offered"] != (service["processed"] + service["shed"] +
                                  service["unanswered"]):
            fail(f"`{run_line}`: offered != processed + shed + unanswered")
    if got[" ".join(OVERLOAD_ARGS)]["service"]["shed"] == 0:
        fail(f"`{' '.join(OVERLOAD_ARGS)}` shed nothing: the governor did not engage")
    expected = GOLDEN.read_text()
    if actual != expected:
        diff = []
        for run_line, point in zip(got, json.loads(expected)):
            for field, values in point.items():
                have = got[run_line][field]
                diff += [f"{run_line}: {field}.{key}" for key in sorted(set(values) | set(have))
                         if values.get(key) != have.get(key)]
        fail(f"the golden drives no longer match {GOLDEN.name}; "
             f"differing entries: {diff}")
    print(f"OK: {len(GOLDEN_RUNS)} service drives match {GOLDEN.name} byte for byte")


def main():
    if len(sys.argv) != 2:
        print("usage: check_serve_cli.py <scenario_cli>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        check_golden(cli, tmp)
        check_determinism(cli, tmp)
        check_trace(cli, tmp)
        check_socket(cli, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
