"""The four benchmark workloads: desk, paper, certify and scatter_cli.

Each is a closed loop with one client.  Inputs come from the seed and are made
before any timing starts; the program only ever sees those inputs.  A unit of
work is what one loop iteration does:

- desk, paper: one signal through the plain, maxp and naivep cascades
  (the mode order rotates per signal);
- certify: one pass of the five certification suites at a fixed trial budget;
- scatter_cli: two images, one per input shape, each through ``scatmaxp
  scatter`` in-process (PGM in, SGRID coefficient maps and manifest out).

``setup()`` returns the seconds one set-up took (bank builds and one warm-up
operation per mode); ``run_unit()`` returns the timed seconds of one unit and
how many operations it attempted and failed, checks excluded from the time;
``recheck()``, run untimed after the measurement window, returns the operations
attempted and failed by a last check of the outputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import warnings
from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import numpy as np

from scatmaxp import cli, filterbank, scattering, verify
from scatmaxp.grid import SignalGrid, unit_plate
from scatmaxp.pooling import AdmissibilityWarning

from tracing import MODES, VERIFY_SUITES, paths_per_depth

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# reference inputs come from this fixed seed; run seeds only vary the measured inputs
REFERENCE_SEED = 20210106
# tighter than the 1e-8 relative goldens of the test suite
DIGEST_RTOL = 1e-9
POOL = scattering.PoolConfig(2, 2.0, "warn")


@dataclass
class UnitResult:
    seconds: float
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)


def expected_sizes(n: int, J: int, L: int, depth: int, policy: str, mode: str,
                   subsample: bool) -> dict:
    """Node count, propagated samples and feature count of one square-input tree."""
    paths = paths_per_depth(J, L, depth, policy)
    if mode == "maxp":
        # S = 2 per layer: depth-m nodes hold (n / 2^m)^2 samples, outputs likewise
        samples = sum(p * (n // 2 ** m) ** 2 for m, p in enumerate(paths))
        return {"nodes": sum(paths), "propagated_samples": samples, "features": samples}
    side = n // 2 ** J if subsample else n
    if mode == "naivep":
        side //= 3
    return {
        "nodes": sum(paths),
        "propagated_samples": sum(paths) * n * n,
        "features": sum(paths) * side * side,
    }


def tree_digest(tree) -> list[list]:
    """Per-path output energy and sum, in sorted path order."""
    rows = []
    for p in sorted(tree.outputs):
        v = tree.outputs[p].values
        rows.append([
            "/".join(f"{lam.j}.{lam.r}" for lam in p),
            float(np.vdot(v, v).real),
            float(v.real.sum()),
            float(v.imag.sum()),
        ])
    return rows


def digest_mismatches(rows: list[list], reference: list[list]) -> int:
    """Rows that differ from the reference beyond DIGEST_RTOL.

    Energies are relative to the reference energy E; sums relative to the
    largest of |reference real sum|, |reference imaginary sum| and sqrt(E).
    """
    if len(rows) != len(reference):
        return max(len(rows), len(reference))
    bad = 0
    for (path, energy, re, im), (ref_path, ref_energy, ref_re, ref_im) in zip(rows, reference):
        scale = max(abs(ref_energy), 1e-300)
        sum_scale = max(abs(ref_re), abs(ref_im), np.sqrt(scale))
        if (
            path != ref_path
            or abs(energy - ref_energy) > DIGEST_RTOL * scale
            or abs(re - ref_re) > DIGEST_RTOL * sum_scale
            or abs(im - ref_im) > DIGEST_RTOL * sum_scale
        ):
            bad += 1
    return bad


def _count_flags(caught) -> int:
    return sum(issubclass(w.category, AdmissibilityWarning) for w in caught)


@contextlib.contextmanager
def _captured_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AdmissibilityWarning)
        yield caught


# ---------------------------------------------------------------------------
# desk and paper: the three cascades, interleaved per signal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeSpec:
    n: int
    J: int
    L: int
    depth: int
    policy: str
    subsample: bool  # output_subsample for plain and naivep


class CascadeWorkload:
    paired_modes = True
    items_per_unit = 1

    def __init__(self, name: str, spec: CascadeSpec, pool_size: int, check_reference: bool):
        self.name = name
        self.spec = spec
        self.pool_size = pool_size
        self.reference = None
        if check_reference:
            self.reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
        self.expected = {
            mode: expected_sizes(spec.n, spec.J, spec.L, spec.depth, spec.policy, mode,
                                 spec.subsample)
            for mode in MODES
        }
        self.bank = None
        self.flags = 0

    def signal(self, rng: np.random.Generator) -> SignalGrid:
        shape = (self.spec.n, self.spec.n)
        return SignalGrid(unit_plate(shape, centered=True), rng.random(shape))

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = [self.signal(rng) for _ in range(self.pool_size)]
        self.reference_input = self.signal(np.random.default_rng(REFERENCE_SEED))

    def tree(self, f: SignalGrid, mode: str):
        s = self.spec
        return scattering.compute_tree(
            f, self.bank, mode, s.depth, s.policy, POOL,
            output_subsample=s.subsample and mode != "maxp",
        )

    def _tree_ok(self, tree, mode: str) -> bool:
        want = self.expected[mode]
        return (
            len(tree.nodes) == want["nodes"]
            and sum(prod(g.shape) for g in tree.nodes.values()) == want["propagated_samples"]
            and sum(prod(g.shape) for g in tree.outputs.values()) == want["features"]
            and all(np.isfinite(g.values).all() for g in tree.outputs.values())
        )

    def setup(self) -> tuple[float, int, int]:
        s = self.spec
        start = time.perf_counter()
        self.bank = filterbank.build_morlet_bank(s.J, s.L, (s.n, s.n))
        build_s = time.perf_counter() - start
        seconds, attempted, failed = self._reference_trees()
        return build_s + seconds, attempted, failed

    def recheck(self) -> tuple[int, int]:
        """The reference input through every mode again, against the digests."""
        _, attempted, failed = self._reference_trees()
        return attempted, failed

    def _reference_trees(self) -> tuple[float, int, int]:
        """Reference input through every mode; timed seconds, attempted, failed."""
        seconds = 0.0
        failed = 0
        for mode in MODES:
            with _captured_warnings():
                start = time.perf_counter()
                tree = self.tree(self.reference_input, mode)
                seconds += time.perf_counter() - start
            failed += not self._tree_ok(tree, mode)
            if self.reference is not None:
                reference = self.reference["modes"][mode]["paths"]
                failed += bool(digest_mismatches(tree_digest(tree), reference))
            del tree
        return seconds, len(MODES), failed

    def run_unit(self, i: int, tracer=None) -> UnitResult:
        f = self.inputs[i % len(self.inputs)]
        k = i % len(MODES)
        seconds = 0.0
        failed = 0
        samples = {}
        for mode in MODES[k:] + MODES[:k]:
            with _captured_warnings() as caught:
                start = time.perf_counter()
                tree = self.tree(f, mode)
                seconds += time.perf_counter() - start
            self.flags += _count_flags(caught)
            failed += not self._tree_ok(tree, mode)
            samples[mode] = sum(prod(g.shape) for g in tree.nodes.values())
            del tree
        # the bench subcommand's gate: maxp propagates strictly fewer samples than plain
        if self.spec.depth > 0 and not samples["maxp"] < samples["plain"]:
            failed += 1
        return UnitResult(seconds, len(MODES), failed)


# ---------------------------------------------------------------------------
# certify: the five suites at a fixed trial budget
# ---------------------------------------------------------------------------

class CertifyWorkload:
    name = "certify"
    paired_modes = False
    items_per_unit = 1

    def __init__(self, trials: dict, pool_size: int = 16):
        self.trials = trials
        self.pool_size = pool_size
        self.flags = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seeds = [int(x) for x in rng.integers(0, 2 ** 31, size=self.pool_size)]

    def _pass(self, seed: int, tracer) -> tuple[float, int, dict]:
        suites = verify.default_suites(verify.VerifyConfig(seed=seed), self.trials)
        seconds = 0.0
        failed = 0
        counters = {}
        for name in VERIFY_SUITES:
            span = tracer.span(f"verify.{name}") if tracer else contextlib.nullcontext()
            report = None
            with _captured_warnings() as caught, span:
                start = time.perf_counter()
                try:
                    report = suites[name]()
                except ValueError:
                    pass
                seconds += time.perf_counter() - start
            self.flags += _count_flags(caught)
            if report is None or report.verdict != "pass":
                failed += 1
                continue
            counters[f"verify.{name}.cases"] = len(report.cases)
            counters[f"verify.{name}.skipped"] = report.n_skip
        return seconds, failed, counters

    def setup(self) -> tuple[float, int, int]:
        start = time.perf_counter()
        _, failed, _ = self._pass(REFERENCE_SEED, None)
        return time.perf_counter() - start, len(VERIFY_SUITES), failed

    def recheck(self) -> tuple[int, int]:
        """Nothing to add: every unit's verdicts are checked in full."""
        return 0, 0

    def run_unit(self, i: int, tracer=None) -> UnitResult:
        seconds, failed, counters = self._pass(self.seeds[i % len(self.seeds)], tracer)
        return UnitResult(seconds, len(VERIFY_SUITES), failed, counters)


# ---------------------------------------------------------------------------
# scatter_cli: the scatter subcommand over PGM files of two shapes
# ---------------------------------------------------------------------------

class ScatterCliWorkload:
    name = "scatter_cli"
    paired_modes = False
    depth, policy = 2, "frequency_decreasing"

    def __init__(self, shapes: tuple[int, ...], pool_size: int, J: int = 3, L: int = 8):
        self.shapes = shapes
        self.items_per_unit = len(shapes)
        self.pool_size = pool_size
        self.J, self.L = J, L
        self.flags = 0

    def _write_pgm(self, path: Path, pixels: np.ndarray) -> None:
        h, w = pixels.shape
        path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())

    def prepare(self, seed: int, workdir: Path) -> None:
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        self.out = workdir / "out"
        rng = np.random.default_rng(seed)
        self.images = []
        for k in range(self.pool_size):
            pair = []
            for n in self.shapes:
                path = inputs / f"img{k:02d}_{n}.pgm"
                self._write_pgm(path, rng.integers(0, 256, (n, n), dtype=np.uint8))
                pair.append((path, n))
            self.images.append(pair)
        n = self.shapes[0]
        self.reference_image = inputs / f"reference_{n}.pgm"
        pixels = np.random.default_rng(REFERENCE_SEED).integers(0, 256, (n, n), dtype=np.uint8)
        self._write_pgm(self.reference_image, pixels)

    def _argv(self, path: Path) -> list[str]:
        return [
            "scatter", str(path), "-J", str(self.J), "-L", str(self.L), "--mode", "maxp",
            "--depth", str(self.depth), "--policy", self.policy, "--out", str(self.out),
        ]

    def _scatter(self, path: Path, n: int, tracer) -> tuple[float, bool, dict]:
        span = tracer.span("cli.scatter") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            start = time.perf_counter()
            code = cli.main(self._argv(path))
            seconds = time.perf_counter() - start
        result_dir = self.out / path.stem
        ok = code == 0
        counters = {"images": 1}
        if ok:
            manifest = json.loads((result_dir / "manifest.json").read_text())
            want = expected_sizes(n, self.J, self.L, self.depth, self.policy, "maxp", False)
            files = list(result_dir.iterdir())
            ok = (
                manifest["feature_summary"]["total_features"] == want["features"]
                and len(manifest["paths"]) == want["nodes"]
                and len(files) == want["nodes"] + 1
            )
            self.flags += manifest["admissibility_flags"]
            counters["export_files"] = len(files)
            counters["export_bytes"] = sum(p.stat().st_size for p in files)
        shutil.rmtree(result_dir, ignore_errors=True)
        return seconds, ok, counters

    def setup(self) -> tuple[float, int, int]:
        start = time.perf_counter()
        _, ok, _ = self._scatter(self.reference_image, self.shapes[0], None)
        return time.perf_counter() - start, 1, int(not ok)

    def recheck(self) -> tuple[int, int]:
        """Nothing to add: every image's exit code and manifest are checked."""
        return 0, 0

    def run_unit(self, i: int, tracer=None) -> UnitResult:
        seconds = 0.0
        failed = 0
        counters: dict = {}
        for path, n in self.images[i % len(self.images)]:
            dt, ok, c = self._scatter(path, n, tracer)
            seconds += dt
            failed += not ok
            for key, value in c.items():
                counters[key] = counters.get(key, 0) + value
        return UnitResult(seconds, len(self.shapes), failed, counters)


# ---------------------------------------------------------------------------

CERTIFY_TRIALS = {"contraction": 100, "commutation": 20, "equivariance": 5, "energy": 2, "decay": 1}
SMOKE_TRIALS = {"contraction": 8, "commutation": 4, "equivariance": 1, "energy": 1, "decay": 1}

WORKLOADS = ("desk", "paper", "certify", "scatter_cli")

CASCADE_SPECS = {
    "desk": CascadeSpec(64, 2, 2, 3, "full", False),
    "paper": CascadeSpec(224, 3, 8, 2, "frequency_decreasing", True),
}
SMOKE_CASCADE_SPECS = {
    "desk": CascadeSpec(32, 2, 2, 2, "full", False),
    "paper": CascadeSpec(64, 3, 4, 2, "frequency_decreasing", True),
}


def make_workload(name: str, small: bool = False):
    """The named workload; ``small`` shrinks every size for the smoke check."""
    if name in CASCADE_SPECS:
        specs = SMOKE_CASCADE_SPECS if small else CASCADE_SPECS
        return CascadeWorkload(name, specs[name], {"desk": 16, "paper": 8}[name],
                               check_reference=not small)
    if name == "certify":
        return CertifyWorkload(SMOKE_TRIALS if small else CERTIFY_TRIALS)
    if name == "scatter_cli":
        if small:
            return ScatterCliWorkload((64, 48), 2, J=3, L=2)
        return ScatterCliWorkload((224, 192), 4)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
