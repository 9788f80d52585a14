#!/usr/bin/env python3
"""Smoke test of bench_e2e (ctest bench_e2e_smoke).

    smoke.py BENCH_E2E_BINARY BENCHMARK.json

Runs every workload of BENCHMARK.json on reduced inputs (--smoke: table1's
pcr rows, 2 scale assays, the 2 smallest ILP instances, 40 served jobs),
untraced and traced.  Fails unless every run passes its correctness checks
and prints exactly the metrics BENCHMARK.json declares, with their units,
in the result line and in the flowsynth-bench-v1 file it writes.
"""
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_spec(spec):
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("BENCHMARK.json needs 2 to 8 workloads")
    for workload in spec["workloads"]:
        if not NAME.match(workload["name"]) or len(workload["why"]) > 200:
            fail(f"bad workload entry {workload['name']}")
    for metric in spec["end_to_end"]:
        if not NAME.match(metric["name"]) or not 0 <= metric["bound"] <= 0.25:
            fail(f"bad end-to-end metric {metric['name']}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        fail("BENCHMARK.json must declare setup_s")
    for metric in spec["per_layer"]:
        if not NAME.match(metric["name"]):
            fail(f"bad per-layer metric {metric['name']}")


def check_run(binary, spec, workload, trace):
    label = f"{workload} --trace {trace}"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", "2015", "--seconds", "0.1",
             "--trace", str(trace), "--smoke", "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:])
            fail(f"{label}: exit {done.returncode}")
        envelope = json.loads(out.read_text())
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in declared]:
        fail(f"{label}: metrics differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            fail(f"{label}: {metric['name']} = {got}")
        if not trace and got["value"] <= 0:
            fail(f"{label}: end-to-end metric {metric['name']} is not positive")
    if envelope.get("format") != "flowsynth-bench-v1" or not envelope["instances"]:
        fail(f"{label}: bad flowsynth-bench-v1 file")
    for key in ("nproc", "compiler", "build_type", "cpu"):
        if key not in envelope["config"]:
            fail(f"{label}: host descriptor lacks {key}")
    summary = envelope["instances"][-1]
    if summary.get("correct") is not True or any(m["name"] not in summary for m in declared):
        fail(f"{label}: bad summary row")
    print(f"ok {label}: {result['attempted']} operations")


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    check_spec(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(binary, spec, workload["name"], trace)


if __name__ == "__main__":
    main()
