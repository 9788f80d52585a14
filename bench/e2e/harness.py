#!/usr/bin/env python3
"""Repeated runs of the end-to-end benchmark (see README.md).

  harness.py spread  [--checkout DIR] [--runs 10] [--first-seed 1] [--workloads ...]
      Runs every workload --runs times, each with another seed, and prints
      each end-to-end metric's median, quartiles and spread (Q3 - Q1) / median
      against a third of its bound in BENCHMARK.json.

  harness.py compare --parent DIR --change DIR [--pairs 10] [--workloads ...]
      Alternating parent/change pairs (the side that runs first alternates),
      same seed within a pair.  Per workload and metric: both sides' medians
      and quartiles, the change's win share, and a verdict against the bound.

  harness.py record [--checkout DIR] [--seed 2015]
      Runs every workload once untraced and once traced and writes
      results/BENCH_e2e.json and results/BENCH_e2e_layers.json.

DIR is the root of a checkout holding BENCHMARK.json; the default is the
checkout this script lives in.  Raw results go to --save FILE as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_ROOT = HERE.parent.parent


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(root, spec, workload, seed, trace, extra=()):
    """One benchmark run from `root`; returns the parsed result line."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    spec = load_spec(args.checkout)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    ok = True
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(args.checkout, spec, workload, seed, 0)
            runs.append(result["metrics"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        raw[workload] = runs
        print(f"{workload}: {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound/3':>8}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, q2, q3 = quartiles([run[name]["value"] for run in runs])
            share = (q3 - q1) / q2 if q2 else float("inf")
            limit = metric["bound"] / 3
            flag = "" if name == "setup_s" or share <= limit else "  <-- too wide"
            ok = ok and not flag
            print(f"{'':{len(workload) + 2}}{name:<12} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.4f} {limit:>8.4f}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


def compare(args):
    spec = load_spec(args.change)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                sides[side].append(run_once(root, spec, workload, seed, 0)["metrics"])
        raw[workload] = sides
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            parent = [run[name]["value"] for run in sides["parent"]]
            change = [run[name]["value"] for run in sides["change"]]
            p1, p2, p3 = quartiles(parent)
            c1, c2, c3 = quartiles(change)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            improvement = (p2 - c2) if lower else (c2 - p2)
            all_better = max(change) < min(parent) if lower else min(change) > max(parent)
            if improvement > (p3 - p1) and wins >= 0.9 * len(parent):
                verdict = "gain"
            elif -improvement > bound * p2:
                verdict = "REGRESSION"
            elif (p3 - p1) > bound * p2 and not all_better:
                verdict = "unresolved (parent spread wider than bound)"
            else:
                verdict = "no regression"
            print(f"  {name:<12} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} "
                  f"[{c1:.6g}, {c3:.6g}]  wins {wins}/{len(parent)}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 0


def write_envelope(path, envelope):
    """The flowsynth-bench-v1 layout of bench/bench_json.hpp: one instance per line."""
    rows = ",\n".join("    " + json.dumps(row) for row in envelope["instances"])
    path.write_text("{\n"
                    f'  "format": {json.dumps(envelope["format"])},\n'
                    f'  "bench": {json.dumps(envelope["bench"])},\n'
                    f'  "config": {json.dumps(envelope["config"])},\n'
                    f'  "instances": [\n{rows}\n  ]\n}}\n')


def record(args):
    spec = load_spec(args.checkout)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    for trace, name in ((0, "BENCH_e2e.json"), (1, "BENCH_e2e_layers.json")):
        merged = None
        for workload in (w["name"] for w in spec["workloads"]):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "bench.json"
                run_once(args.checkout, spec, workload, args.seed, trace, ["--out", str(out)])
                envelope = json.loads(out.read_text())
            config = envelope["config"]
            if merged is None:
                merged = {"format": envelope["format"], "bench": envelope["bench"],
                          "config": {k: v for k, v in config.items()
                                     if k not in ("workload", "seed")},
                          "instances": []}
                merged["config"]["seeds"] = {}
            merged["config"]["seeds"][workload] = config["seed"]
            merged["instances"].extend(envelope["instances"])
        write_envelope(results / name, merged)
        print(f"wrote {results / name}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--checkout", default=str(DEFAULT_ROOT))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--save")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--save")
    p.set_defaults(func=compare)
    p = sub.add_parser("record")
    p.add_argument("--checkout", default=str(DEFAULT_ROOT))
    p.add_argument("--seed", type=int, default=2015)
    p.set_defaults(func=record)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
