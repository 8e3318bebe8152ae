#!/usr/bin/env python3
"""Record the benchmark's reference digests and trajectory points.

    python3 perfbench/record.py digests
    python3 perfbench/record.py trajectory --runs 10 --traced-runs 3

``digests`` writes perfbench/reference/<workload>.json for desk and paper:
per-path output energies and sums of the reference input, plus the node,
sample and feature counts, as the current program computes them.  Run it only
on a commit whose outputs are trusted; every benchmark run compares against it.

``trajectory`` runs perfbench/run.py once per seed (FIRST_SEED on) and
workload, one process at a time, for run_seconds of BENCHMARK.json, then writes the median and quartiles of every metric to
perfbench/trajectory/<commit>.json and prints each end-to-end metric's spread
(quartile distance over median) next to its bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 101


def record_digests() -> None:
    import run

    run.pin_environment()
    run.import_package()
    from workloads import CASCADE_SPECS, MODES, CascadeWorkload, expected_sizes, tree_digest

    for name, spec in CASCADE_SPECS.items():
        w = CascadeWorkload(name, spec, 1, check_reference=False)
        w.prepare(0, HERE)
        w.setup()
        s = w.spec
        modes = {}
        for mode in MODES:
            tree = w.tree(w.reference_input, mode)
            modes[mode] = dict(
                expected_sizes(s.n, s.J, s.L, s.depth, s.policy, mode, s.subsample),
                paths=tree_digest(tree),
            )
        payload = {
            "workload": name,
            "spec": vars(s),
            "commit": run.git_commit(),
            "columns": ["path", "energy", "sum_real", "sum_imag"],
            "modes": modes,
        }
        out = HERE / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, env


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread (quartile distance over median) of one metric."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def record_trajectory(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    point = {"environment": None, "run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        entry = {"seeds": [], "failed": 0, "attempted": 0, "end_to_end": {}, "per_layer": {}}
        for trace, runs, key in ((0, args.runs, "end_to_end"), (1, args.traced_runs, "per_layer")):
            values: dict[str, list[float]] = {}
            units = {}
            for k in range(runs):
                seed = FIRST_SEED + k
                start = time.perf_counter()
                result, env = run_once(workload, seed, seconds, trace)
                wall = time.perf_counter() - start
                point["environment"] = point["environment"] or env
                entry["seeds"].append(seed)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"] + (not result["correct"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print(f"{workload} trace={trace} seed={seed} wall={wall:.1f}s "
                      f"correct={result['correct']} "
                      + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items() if trace == 0),
                      flush=True)
            entry[key] = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        point["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name, 0.0)
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{workload:12s} {name:18s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} bound {bound} {flag}", flush=True)
    commit = (point["environment"] or {}).get("git_commit", "unknown")[:7]
    out = HERE / "trajectory" / f"{commit}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digests", help="write the desk and paper reference digests")
    p = sub.add_parser("trajectory", help="median and quartiles of every metric over seeds")
    p.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    p.add_argument("--traced-runs", type=int, default=3, help="traced runs per workload")
    args = parser.parse_args()
    if args.command == "digests":
        record_digests()
    else:
        record_trajectory(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
