"""Spans around the public entry points of each scatmaxp layer, installed from outside.

A traced run patches module attributes (``scattering.convolve``,
``pooling.min_admissible_factor``, ``FilterBank.realize``, ``numpy.fft.fftn``
and so on) with wrappers that record one span per call, and restores the
originals afterwards.  No line of the package changes, and an untraced run
executes none of this code.

Spans are kept in memory (name, start, end, parent, tree id, unit id) and
written out as JSON lines when the run ends.  A span's self time is its
duration minus the durations of its child spans; the program is single
threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import weakref
from math import comb, prod

import numpy as np

MODES = ("plain", "maxp", "naivep")
MAX_DEPTH = 3
VERIFY_SUITES = ("contraction", "commutation", "energy", "decay", "equivariance")
# complex128 in and out of every transform; computed from shapes, not measured
FFT_BYTES_PER_POINT = 32


class Span:
    __slots__ = ("name", "start", "end", "parent", "tree", "unit", "attrs", "child_s")

    def __init__(self, name, start, parent, tree, unit, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tree = tree
        self.unit = unit
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.unit: int | None = None
        self.trees = 0
        self.last_threshold: float | None = None
        self.seen_filters = weakref.WeakValueDictionary()

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        tree = parent.tree if parent is not None else None
        if name == "scattering.tree":
            self.trees += 1
            tree = self.trees
        span = Span(name, time.perf_counter(), parent, tree, self.unit, attrs)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        s = self.open(name, attrs)
        try:
            yield s
        finally:
            self.close(s)

    def dump(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "tree": s.tree, "unit": s.unit, "attrs": s.attrs,
                }) + "\n")


def _wrap(tracer: Tracer, fn, name, pre=None, post=None):
    """Wrap fn in a span; pre(args, kwargs) -> (name, attrs); post(span, args, kwargs, result)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name, attrs = pre(args, kwargs) if pre else (name, None)
        span = tracer.open(span_name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if post:
            post(span, args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, position, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[position] if len(args) > position else default


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the layer entry points with span-recording wrappers; restore on exit."""
    from scatmaxp import cli, filterbank, pooling, scattering, verify

    def fft_pre(kind):
        return lambda args, kwargs: (kind, {"points": int(np.size(args[0]))})

    def convolve_pre(args, kwargs):
        method = _arg(args, kwargs, 2, "method", "fft")
        return ("grid.direct" if method == "direct" else "grid.convolve"), None

    def tree_pre(args, kwargs):
        bank = _arg(args, kwargs, 1, "bank")
        return "scattering.tree", {
            "mode": _arg(args, kwargs, 2, "mode", "plain"),
            "J": bank.J, "L": bank.L,
            "depth": _arg(args, kwargs, 3, "max_depth", 2),
            "policy": _arg(args, kwargs, 4, "policy", "full"),
        }

    def tree_post(span, args, kwargs, tree):
        nodes = tree.nodes.values()
        outputs = tree.outputs.values()
        span.attrs.update(
            nodes=len(tree.nodes),
            propagated_samples=sum(prod(g.shape) for g in nodes),
            output_coefficients=sum(prod(g.shape) for g in outputs),
            bytes_held=sum(g.values.nbytes for g in nodes) + sum(g.values.nbytes for g in outputs),
        )

    def realize_post(span, args, kwargs, result):
        phi = result[1]
        hit = tracer.seen_filters.get(id(phi)) is phi
        if not hit:
            tracer.seen_filters[id(phi)] = phi
        span.attrs = {"hit": hit}

    def build_post(span, args, kwargs, bank):
        # the bank arrives with its own grid realized; a later realize of it is a hit
        tracer.seen_filters[id(bank.phi_hat)] = bank.phi_hat

    def admissibility_post(span, args, kwargs, threshold):
        tracer.last_threshold = threshold

    def pool_pre(args, kwargs):
        tracer.last_threshold = None
        return "pooling.max_pool", None

    def pool_post(span, args, kwargs, result):
        S = float(_arg(args, kwargs, 2, "S"))
        threshold = tracer.last_threshold
        span.attrs = {
            "samples_in": prod(args[0].shape),
            "samples_out": prod(result.shape),
            "flagged": threshold is not None and S <= threshold,
        }

    def write_post(span, args, kwargs, result):
        span.attrs = {"bytes": os.path.getsize(args[1])}

    targets = [
        (np.fft, "fftn", None, fft_pre("grid.fft.forward"), None),
        (np.fft, "ifftn", None, fft_pre("grid.fft.inverse"), None),
        (scattering, "convolve", None, convolve_pre, None),
        (scattering, "propagate_one", "scattering.propagate", None, None),
        (scattering, "window", "scattering.window", None, None),
        (scattering, "max_pool", None, pool_pre, pool_post),
        (scattering, "strided_block_max", "scattering.naivep.blockmax", None, None),
        (scattering, "subsample_signal", "scattering.subsample", None, None),
        (pooling, "min_admissible_factor", "pooling.admissibility", None, admissibility_post),
        (verify, "min_admissible_factor", "pooling.admissibility", None, admissibility_post),
        (verify, "max_pool", None, pool_pre, pool_post),
        (filterbank.FilterBank, "realize", "filterbank.realize", None, realize_post),
        (filterbank, "build_morlet_bank", "filterbank.build", None, build_post),
        (verify, "build_morlet_bank", "filterbank.build", None, build_post),
        (cli, "build_morlet_bank", "filterbank.build", None, build_post),
        (scattering, "compute_tree", None, tree_pre, tree_post),
        (verify, "compute_tree", None, tree_pre, tree_post),
        (cli, "compute_tree", None, tree_pre, tree_post),
        (cli, "read_pgm", "grid.read_pgm", None, None),
        (cli, "write_sgrid", "grid.write_sgrid", None, write_post),
    ]
    saved = []
    try:
        for owner, attr, name, pre, post in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, pre, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced measurement window
# ---------------------------------------------------------------------------

def paths_per_depth(J: int, L: int, depth: int, policy: str) -> list[int]:
    """Closed-form path counts per depth, written independently of the package."""
    if policy == "frequency_decreasing":
        return [comb(J, m) * L ** m for m in range(depth + 1)]
    return [(J * L) ** m for m in range(depth + 1)]


def _depth_of(k: int, counts: list[int], first: int) -> int:
    """Depth of the k-th call when calls run breadth-first from depth ``first``."""
    for m in range(first, len(counts)):
        if k < counts[m]:
            return m
        k -= counts[m]
    return len(counts) - 1


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (the median below 20)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def layer_metrics(tracer: Tracer, units: int, wall_s: float, paired_modes: bool,
                  counters: dict) -> dict:
    """Aggregate spans, and the workload's own counters, into per-layer numbers.

    Counts are per unit of work.  Seconds (``.s``, ``.self_s``) are per unit
    and are reported only for spans every workload enters; spans that some
    workload never enters are reported as ``.share``, the fraction of the
    traced measurement time spent inside them, so no time reads a constant 0.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    points = {"grid.fft.forward": 0, "grid.fft.inverse": 0}
    realize_misses = 0
    realize_miss_s = 0.0
    pool = {"samples_in": 0, "samples_out": 0, "flagged": 0}
    write_bytes = 0
    trees: dict[int, Span] = {}
    tree_fft_s: dict[int, float] = {}
    depth_s = {mode: [0.0] * (MAX_DEPTH + 1) for mode in MODES}
    depth_calls: dict[tuple[int, str], int] = {}
    top_level_s = 0.0

    for s in tracer.spans:
        d = s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        incl[s.name] = incl.get(s.name, 0.0) + d
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        if s.parent is None:
            top_level_s += d
        if s.name in points:
            points[s.name] += s.attrs["points"]
            if s.tree is not None:
                tree_fft_s[s.tree] = tree_fft_s.get(s.tree, 0.0) + d
        elif s.name == "filterbank.realize" and not s.attrs["hit"]:
            realize_misses += 1
            realize_miss_s += d
        elif s.name == "pooling.max_pool":
            for key in pool:
                pool[key] += int(s.attrs[key])
        elif s.name == "grid.write_sgrid":
            write_bytes += s.attrs["bytes"]
        elif s.name == "scattering.tree":
            trees[s.tree] = s
        parent = s.parent
        if parent is not None and parent.name == "scattering.tree" and s.name in (
            "scattering.propagate", "pooling.max_pool", "scattering.window"
        ):
            key = (parent.tree, s.name)
            k = depth_calls.get(key, 0)
            depth_calls[key] = k + 1
            a = parent.attrs
            counts = paths_per_depth(a["J"], a["L"], a["depth"], a["policy"])
            m = _depth_of(k, counts, 0 if s.name == "scattering.window" else 1)
            depth_s[parent.attrs["mode"]][min(m, MAX_DEPTH)] += d

    n = max(units, 1)
    wall = wall_s if wall_s > 0 else 1.0

    def per_unit(x):
        return x / n

    def share(x):
        return x / wall

    fft_s = incl.get("grid.fft.forward", 0.0) + incl.get("grid.fft.inverse", 0.0)
    realize_calls = calls.get("filterbank.realize", 0)
    metrics = {
        "filterbank.build.calls": (per_unit(calls.get("filterbank.build", 0)), "count"),
        "filterbank.build.share": (share(incl.get("filterbank.build", 0.0)), "frac"),
        "filterbank.realize.calls": (per_unit(realize_calls), "count"),
        "filterbank.realize.misses": (per_unit(realize_misses), "count"),
        "filterbank.realize.hit_ratio": (
            (realize_calls - realize_misses) / realize_calls if realize_calls else 0.0, "frac"),
        "filterbank.realize.miss_share": (share(realize_miss_s), "frac"),
        "filterbank.realize.s": (per_unit(incl.get("filterbank.realize", 0.0)), "s"),
        "grid.fft.forward_calls": (per_unit(calls.get("grid.fft.forward", 0)), "count"),
        "grid.fft.inverse_calls": (per_unit(calls.get("grid.fft.inverse", 0)), "count"),
        "grid.fft.points": (per_unit(sum(points.values())), "count"),
        "grid.fft.bytes_computed": (per_unit(FFT_BYTES_PER_POINT * sum(points.values())), "B"),
        "grid.fft.s": (per_unit(fft_s), "s"),
        "grid.fft.share": (share(fft_s), "frac"),
        "grid.convolve.calls": (per_unit(calls.get("grid.convolve", 0)), "count"),
        "grid.convolve.self_s": (per_unit(self_s.get("grid.convolve", 0.0)), "s"),
        "grid.direct.calls": (per_unit(calls.get("grid.direct", 0)), "count"),
        "grid.direct.share": (share(self_s.get("grid.direct", 0.0)), "frac"),
        "grid.read_pgm.share": (share(incl.get("grid.read_pgm", 0.0)), "frac"),
        "grid.write_sgrid.calls": (per_unit(calls.get("grid.write_sgrid", 0)), "count"),
        "grid.write_sgrid.bytes": (per_unit(write_bytes), "B"),
        "grid.write_sgrid.share": (share(incl.get("grid.write_sgrid", 0.0)), "frac"),
        "pooling.max_pool.calls": (per_unit(calls.get("pooling.max_pool", 0)), "count"),
        "pooling.max_pool.self_s": (per_unit(self_s.get("pooling.max_pool", 0.0)), "s"),
        "pooling.admissibility.s": (per_unit(incl.get("pooling.admissibility", 0.0)), "s"),
        "pooling.admissibility_flags": (per_unit(pool["flagged"]), "count"),
        "pooling.samples_in": (per_unit(pool["samples_in"]), "count"),
        "pooling.samples_out": (per_unit(pool["samples_out"]), "count"),
        "scattering.propagate.self_s": (per_unit(self_s.get("scattering.propagate", 0.0)), "s"),
        "scattering.window.self_s": (per_unit(self_s.get("scattering.window", 0.0)), "s"),
        "scattering.tree.self_s": (per_unit(self_s.get("scattering.tree", 0.0)), "s"),
        "scattering.naivep.blockmax.share": (
            share(incl.get("scattering.naivep.blockmax", 0.0)), "frac"),
        "scattering.subsample.share": (share(incl.get("scattering.subsample", 0.0)), "frac"),
        "trace.spans": (per_unit(len(tracer.spans)), "count"),
        "trace.unattributed_share": (max(0.0, 1.0 - top_level_s / wall), "frac"),
    }

    p50 = {}
    samples = {}
    for mode in MODES:
        mine = [t for t in trees.values() if t.attrs["mode"] == mode]
        durations = [t.duration for t in mine]
        mode_s = sum(durations)
        pct = tail_percentile(len(durations))
        p50[mode] = percentile(durations, 50.0)
        tail = percentile(durations, pct)

        def mean(key):
            return sum(t.attrs[key] for t in mine) / len(mine) if mine else 0.0

        samples[mode] = mean("propagated_samples")
        prefix = f"scattering.{mode}"
        metrics.update({
            f"{prefix}.trees": (per_unit(len(mine)), "count"),
            f"{prefix}.tree_samples": (len(mine), "count"),
            f"{prefix}.signals_per_s": (1.0 / p50[mode] if mine else 0.0, "1/s"),
            f"{prefix}.tail_signals_per_s": (1.0 / tail if mine else 0.0, "1/s"),
            f"{prefix}.tail_pct": (pct, "pct"),
            f"{prefix}.share": (share(mode_s), "frac"),
            f"{prefix}.fft_share": (
                sum(tree_fft_s.get(t.tree, 0.0) for t in mine) / mode_s if mode_s else 0.0,
                "frac"),
            f"{prefix}.nodes": (mean("nodes"), "count"),
            f"{prefix}.propagated_samples": (samples[mode], "count"),
            f"{prefix}.output_coefficients": (mean("output_coefficients"), "count"),
            f"{prefix}.bytes_held": (mean("bytes_held"), "B"),
        })
        for m in range(MAX_DEPTH + 1):
            metrics[f"{prefix}.depth{m}.share"] = (share(depth_s[mode][m]), "frac")

    both = paired_modes and p50["plain"] > 0 and p50["maxp"] > 0
    metrics["scattering.maxp_plain.time_ratio"] = (p50["maxp"] / p50["plain"] if both else 0.0, "frac")
    metrics["scattering.maxp_plain.samples_ratio"] = (
        samples["maxp"] / samples["plain"] if both else 0.0, "frac")

    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.share"] = (share(incl.get(f"verify.{suite}", 0.0)), "frac")
        for key in ("cases", "skipped"):
            name = f"verify.{suite}.{key}"
            metrics[name] = (per_unit(counters.get(name, 0)), "count")
    metrics["cli.scatter.share"] = (share(incl.get("cli.scatter", 0.0)), "frac")
    images = calls.get("cli.scatter", 0)

    def per_image(x):
        return x / images if images else 0.0

    metrics["cli.bank_builds_per_image"] = (per_image(calls.get("filterbank.build", 0)), "count")
    metrics["cli.export.bytes_per_image"] = (per_image(counters.get("export_bytes", 0)), "B")
    metrics["cli.export.files_per_image"] = (per_image(counters.get("export_files", 0)), "count")
    return metrics
