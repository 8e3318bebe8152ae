#!/usr/bin/env python3
"""Benchmark of the scatmaxp cascades, certification suites and scatter CLI.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/`` of that
checkout and nowhere else.  Workloads: desk, paper, certify, scatter_cli (see
perfbench/README.md for why each exists).  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Spans and an
environment record go to ``.bench_build/perfbench/``.  ``--smoke`` runs every
workload at a small size, traced and untraced, and fails if a metric named in
BENCHMARK.json or its unit is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups per untraced run: about SETUP_BUDGET_S worth of them, within
# [SETUP_MIN_REPEATS, SETUP_MAX_REPEATS]; setup_s is their median
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 9, 3.0


def pin_environment() -> None:
    """One thread for every numeric library, and no scatmaxp worker threads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SCATMAXP_THREADS", None)


def import_package() -> None:
    """Import scatmaxp from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scatmaxp

    where = Path(scatmaxp.__file__).resolve().parent
    if where != src / "scatmaxp":
        raise ImportError(f"scatmaxp was imported from {where}, not from {src}")


def import_seconds() -> float:
    """Time of ``import scatmaxp`` in a fresh process."""
    probe = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
             "import scatmaxp; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workload: str, trace: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": np.fft.fftn.__module__
        + (" (pocketfft_umath)" if hasattr(np.fft, "_pocketfft_umath") else ""),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("SCATMAXP_THREADS",)},
    }


@dataclass
class Window:
    """Closed-loop units measured in one run."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)

    def add(self, r) -> None:
        self.times.append(r.seconds)
        self.attempted += r.attempted
        self.failed += r.failed
        for key, value in r.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


def measure(workload, seconds: float, tracer=None,
            between=None) -> tuple[Window, Window | None]:
    """Run whole units until ``seconds`` have passed (at least one unit).

    With a tracer every unit runs twice on the same input, untraced and then
    traced, so machine speed drifts hit both windows alike.  ``between(done)``,
    if given, runs after each unit but the last with the share of the window
    done; the window is extended by the time it takes.
    """
    import tracing

    plain = Window()
    traced = Window() if tracer is not None else None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        plain.add(workload.run_unit(i))
        if tracer is not None:
            tracer.unit = i
            with tracing.installed(tracer):
                traced.add(workload.run_unit(i, tracer))
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            return plain, traced
        if between is not None:
            between(1.0 - (deadline - now) / seconds)
            deadline += time.perf_counter() - now


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 small: bool = False) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result line, environment)."""
    # numpy reads the thread variables when it loads, so these import after pinning
    import tracing
    from workloads import make_workload

    workload = make_workload(name, small)
    env = environment(seed, name, trace)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    attempted = failed = 0
    try:
        workload.prepare(seed, workdir)
        tracer = tracing.Tracer()
        setups = []

        def set_up() -> None:
            """One set-up; untraced, its time includes a fresh-process import."""
            nonlocal attempted, failed
            import_s = 0.0 if trace else import_seconds()
            # a traced run traces set-up too, so filters built there count as seen
            with tracing.installed(tracer) if trace else contextlib.nullcontext():
                s, a, f = workload.setup()
            setups.append(import_s + s)
            attempted += a
            failed += f

        set_up()
        if trace:
            tracer.spans.clear()  # keeps the filters set-up built as seen
            plain, traced = measure(workload, seconds, tracer)
        else:
            # set-ups spread over the window, so a slow spell of the machine
            # hits few of them
            repeats = min(max(int(SETUP_BUDGET_S / setups[0]), SETUP_MIN_REPEATS),
                          SETUP_MAX_REPEATS)

            def between(done: float) -> None:
                if len(setups) < repeats and done >= len(setups) / repeats:
                    set_up()

            plain, traced = measure(workload, seconds, None, between)
            while len(setups) < repeats:
                set_up()
        # untimed: outputs must still match the reference after the window
        a, f = workload.recheck()
        attempted += a
        failed += f
        if not trace:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "throughput_per_s": (
                    workload.items_per_unit / statistics.median(plain.times), "1/s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            metrics = tracing.layer_metrics(tracer, len(traced.times), sum(traced.times),
                                            workload.paired_modes, traced.counters)
            metrics["trace.unit_s"] = (statistics.median(traced.times), "s")
            ratios = [t / p for t, p in zip(traced.times, plain.times)]
            metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
            tracer.dump(str(SCRATCH / f"spans-{name}-seed{seed}.jsonl"))
        for window in filter(None, (plain, traced)):
            attempted += window.attempted
            failed += window.failed
            env.setdefault("units", []).append(len(window.times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["admissibility_warnings_captured"] = workload.flags
    env["setups_s"] = setups
    (SCRATCH / f"env-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(env, indent=2) + "\n")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, env


def smoke() -> int:
    """Every workload at a small size, untraced and traced, against BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(name, 1, 1.0, trace, small=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            missing = [m for m, unit in want.items() if got.get(m, {}).get("unit") != unit]
            extra = sorted(set(got) - set(want))
            status = "ok"
            if missing or extra or not result["correct"]:
                status = f"FAILED missing={missing} unregistered={extra} correct={result['correct']}"
                problems.append(f"{name} trace={trace}")
            print(f"smoke {name:12s} trace={trace} {len(got)} metrics, "
                  f"{result['attempted']} ops: {status}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small-size self-check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    pin_environment()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import scatmaxp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    try:
        result, env = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(env), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
