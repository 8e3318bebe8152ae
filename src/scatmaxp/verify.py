"""Executable certification of the cascade's mathematical claims.

Every suite draws deterministic random inputs, measures the claimed quantity
together with its bound, and reports both; a case never collapses to a bare
boolean.  Slack constants: 1e-12 relative for exact identities, a 1.1 factor
for the geometric decay bound, and the measured frame defect (1 + eps_LP, the
worst over the grids the cascade realized filters on) for frame-dependent
inequalities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .filterbank import BankSpec, FilterBank, littlewood_paley_sum, theorem_constant_B
from .filterbank import build_morlet_bank  # not called here; perfbench/tracing.py patches this name
from .grid import (
    SignalGrid,
    l2_diff_on_common_torus,
    l2_norm,
    translate_in_plate,
    translate_with_plate,
    unit_plate,
)
from .pooling import AdmissibilityError, max_pool, min_admissible_factor
from .scattering import PoolConfig, ScatteringTree, compute_tree, propagate_one

EXACT_RTOL = 1e-12
DECAY_SLACK = 1.1
FAMILIES = ("uniform", "spikes")  # the random_signal families the suites alternate
SUITES = ("contraction", "commutation", "energy", "decay", "equivariance")


@dataclass(frozen=True)
class CaseRecord:
    name: str
    summary: str
    measured: float
    bound: float
    status: str  # "pass", "fail" or "skip"


@dataclass
class VerificationReport:
    suite: str
    environment: dict
    cases: list[CaseRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, summary: str, measured: float, bound: float, ok: bool) -> None:
        self.cases.append(CaseRecord(name, summary, float(measured), float(bound),
                                     "pass" if ok else "fail"))

    def skip(self, name: str, summary: str, measured: float, bound: float) -> None:
        self.cases.append(CaseRecord(name, summary, float(measured), float(bound), "skip"))

    @property
    def n_pass(self) -> int:
        return sum(c.status == "pass" for c in self.cases)

    @property
    def n_fail(self) -> int:
        return sum(c.status == "fail" for c in self.cases)

    @property
    def n_skip(self) -> int:
        return sum(c.status == "skip" for c in self.cases)

    @property
    def verdict(self) -> str:
        if self.n_fail:
            return "fail"
        if self.n_pass == 0:
            return "inconclusive"
        return "pass"

    def summary_line(self) -> str:
        return (
            f"[{self.verdict.upper():12s}] {self.suite}: "
            f"{self.n_pass} passed, {self.n_fail} failed, {self.n_skip} skipped"
        )

    def to_csv(self) -> str:
        lines = [f"# suite={self.suite}"]
        lines += [f"# env {k}={v}" for k, v in sorted(self.environment.items())]
        lines.append("case,summary,measured,bound,status")
        for c in self.cases:
            lines.append(f"{c.name},{c.summary},{c.measured:.17g},{c.bound:.17g},{c.status}")
        lines += [f"# note {n}" for n in self.notes]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyConfig:
    """Desk-scale defaults: small bank, centered unit plate, full path policy."""

    seed: int = 0
    grid: tuple[int, ...] = (64, 64)
    bank: BankSpec = BankSpec()
    pool: PoolConfig = PoolConfig()
    max_depth: int = 3
    equivariance_grid: tuple[int, ...] = (32, 32)
    equivariance_depth: int = 2


def random_signal(rng: np.random.Generator, family: str, shape: tuple[int, ...]) -> SignalGrid:
    """The two generator families on the centered unit plate: flat uniform values and sparse spikes."""
    plate = unit_plate(shape, centered=True)
    if family == "uniform":
        values = rng.random(shape)
    elif family == "spikes":
        total = int(np.prod(shape))
        count = int(rng.integers(1, max(2, total // 64)))
        flat = np.zeros(total)
        spots = rng.choice(total, size=count, replace=False)
        flat[spots] = np.maximum(rng.random(count), 1e-3)
        values = flat.reshape(shape)
    else:
        raise ValueError(f"unknown signal family {family!r}")
    return SignalGrid(plate, values)


def _draws(rng: np.random.Generator, count: int, shape: tuple[int, ...], families=FAMILIES):
    """Yield (i, family, signal) for ``count`` inputs, cycling through ``families``."""
    if count < 1:
        raise ValueError(f"need at least one input, got {count}")
    for i in range(count):
        family = families[i % len(families)]
        yield i, family, random_signal(rng, family, shape)


def _certified_tree(f: SignalGrid, bank: FilterBank, config: VerifyConfig) -> ScatteringTree:
    """The cascade suites' full-path maxp tree: admissibility check off unless strict, which still raises."""
    strict = config.pool.admissibility == "strict"
    pool = replace(config.pool, admissibility="strict" if strict else "off")
    return compute_tree(f, bank, mode="maxp", max_depth=config.max_depth, policy="full",
                        pool_cfg=pool)


def _realized_frame_defect(bank: FilterBank, tree: ScatteringTree) -> float:
    """Worst Littlewood-Paley defect over the grids the tree's filters were realized on."""
    defects = []
    for shape in {g.shape for g in tree.nodes.values()}:
        psi, phi = bank.realize(shape)
        defects.append(np.max(np.abs(1.0 - littlewood_paley_sum(psi.values(), phi))))
    return float(max(defects))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_contraction(trials: int, config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Pooling never expands the L2 norm when the pooling factor is admissible."""
    rng = np.random.default_rng(config.seed)
    S = config.pool.factor
    report = VerificationReport("pooling_contraction", dict(
        grid=config.grid, block_samples=config.pool.block_samples, seed=config.seed, trials=trials,
        allowed_factors=(S,)))  # a 1-tuple so report bytes match earlier runs
    for t, family, f in _draws(rng, trials, config.grid):
        try:
            pooled = max_pool(f, config.pool.block_samples, S, "strict")
        except AdmissibilityError:
            report.skip(f"trial{t:04d}", f"{family}:no-admissible-S", min_admissible_factor(f), S)
            continue
        ratio = l2_norm(pooled) / l2_norm(f)
        report.add(f"trial{t:04d}", f"{family}:S={S}", ratio, 1.0 + EXACT_RTOL,
                   ratio <= 1.0 + EXACT_RTOL)
    report.notes.append(f"skipped {report.n_skip} of {trials} trials (inadmissible draws)")
    return report


def check_commutation(trials: int, config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Pooling a moved plate equals moving the pooled plate by c/S.

    Values and grids match bit for bit, origins too when S is a power of two;
    otherwise (o + c)/S and o/S + c/S may differ by EXACT_RTOL output spacings.
    """
    rng = np.random.default_rng(config.seed + 1)
    S = config.pool.factor
    report = VerificationReport("pooling_translation_commutation", dict(
        grid=config.grid, block_samples=config.pool.block_samples, S=S, seed=config.seed, trials=trials))
    origin_tol = 0.0 if math.frexp(S)[0] == 0.5 else EXACT_RTOL  # dividing by 2^k is exact
    size = config.pool.block_samples
    blocks = [n // size for n in config.grid]  # sub-plates per axis
    for t, family, f in _draws(rng, trials, config.grid):
        pooled = max_pool(f, size, S, "off")  # names an untiled grid before c divides by blocks
        ks = [int(rng.integers(-(b // 2), b // 2 + 1)) if t else 0 for b in blocks]  # trial 0: c = 0
        c = tuple(i * (s / b) for i, s, b in zip(ks, f.plate.side_lengths, blocks))
        moved = translate_with_plate(f, c)
        lhs = max_pool(moved, size, S, "off")
        rhs = translate_with_plate(pooled, tuple(x / S for x in c))
        if (lhs.plate.side_lengths, lhs.shape) == (rhs.plate.side_lengths, rhs.shape):
            value_gap = float(np.max(np.abs(lhs.values - rhs.values)))
            origin_gap = max(abs(a - b) / h for a, b, h in
                             zip(lhs.plate.origin, rhs.plate.origin, rhs.plate.spacing))
        else:
            value_gap = origin_gap = math.inf
        report.add(f"trial{t:04d}", f"{family}:blocks={ks}", max(value_gap, origin_gap),
                   origin_tol, value_gap == 0.0 and origin_gap <= origin_tol)
    return report


def check_energy_monotonic(f: SignalGrid, config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Layer energies of the pooled cascade decrease up to the measured frame slack.

    The inequalities assume pooling that contracts, so each depth's worst
    ratio ||P u|| / ||u|| over its pooled nodes is measured, u being the
    node's unpooled wavelet modulus.  A case whose depths did not all contract
    is recorded as skipped, with its measured energy and bound.
    """
    bank = config.bank.build(f.shape)
    tree = _certified_tree(f, bank, config)
    eps = _realized_frame_defect(bank, tree)
    report = VerificationReport(
        "layer_energy_monotonicity",
        dict(config.bank.summary(), grid=config.grid, seed=config.seed, eps_lp=eps,
             max_depth=config.max_depth, S=config.pool.factor),
    )
    ratios = []  # worst ||P u|| / ||u|| per depth, from depth 1
    for m in range(1, config.max_depth + 1):
        worst = 0.0
        # siblings are contiguous, as in compute_tree, so each parent is transformed once
        for parent, children in groupby(tree.paths_at(m), lambda p: p[:-1]):
            g = tree.nodes[parent]
            g_hat = np.fft.fftn(g.values)
            for path in children:
                norm = l2_norm(propagate_one(g, path[-1], bank, f_hat=g_hat))
                worst = max(worst, l2_norm(tree.nodes[path]) / norm if norm > 0.0 else 0.0)
        ratios.append(worst)
    contracted = [r <= 1.0 + EXACT_RTOL for r in ratios]

    def record(name: str, summary: str, measured: float, bound: float, certified: bool) -> None:
        if certified:
            report.add(name, summary, measured, bound, measured <= bound)
        else:
            report.skip(name, summary, measured, bound)

    energies = [tree.layer_energy(m) for m in range(config.max_depth + 1)]
    for m in range(config.max_depth):
        record(f"step_m{m}", f"E_{m + 1} <= (1+eps)E_{m}", energies[m + 1],
               (1.0 + eps) * energies[m], contracted[m])
    for m in range(1, config.max_depth + 1):
        record(f"total_m{m}", f"E_{m} <= (1+eps)^{m} E_0", energies[m],
               (1.0 + eps) ** m * energies[0], all(contracted[:m]))
    report.notes.append("energies " + " ".join(f"E_{m}={e:.17g}" for m, e in enumerate(energies)))
    report.notes.append("worst pool ratios " + " ".join(
        f"r_{m}={r:.17g}" for m, r in enumerate(ratios, 1)))
    expanded = [m for m, ok in enumerate(contracted, 1) if not ok]
    note = f"depths whose pooling expanded a node: {expanded or 'none'}"
    if report.n_skip:
        note += f"; skipped {report.n_skip} of {len(report.cases)} cases"
    report.notes.append(note)
    return report


def check_invariance_decay(
    f: SignalGrid, c: tuple[float, ...], config: VerifyConfig = VerifyConfig()
) -> VerificationReport:
    """Output differences under plate translation decay like |c|^2 B^2 / S^(2m)."""
    bank = config.bank.build(f.shape)
    tree_f = _certified_tree(f, bank, config)  # names an untiled grid before a misaligned shift
    spacing = f.plate.spacing[0]
    S = config.pool.factor
    for x in c:
        shift = x / spacing
        for m in range(config.max_depth + 1):
            if abs(shift - round(shift)) > 1e-9:
                raise ValueError(
                    f"shift component {x} lands between grid cells at depth {m}; "
                    f"use a whole multiple of block_samples S^(max_depth-1) sample spacings"
                )
            if m < config.max_depth and round(shift) % config.pool.block_samples != 0:
                raise ValueError(
                    f"shift component {x} is not sub-plate-aligned at depth {m}"
                )
            shift /= S
    B = theorem_constant_B(bank, spacing=spacing)
    c_norm = math.sqrt(sum(x * x for x in c))
    energy = l2_norm(f) ** 2
    tree_g = _certified_tree(translate_with_plate(f, c), bank, config)
    report = VerificationReport(
        "translation_invariance_decay",
        dict(config.bank.summary(), grid=config.grid, seed=config.seed, B=B, S=S, c=c,
             eps_lp=_realized_frame_defect(bank, tree_f), max_depth=config.max_depth, slack=DECAY_SLACK),
    )
    distances = []
    for m in range(config.max_depth + 1):
        d_m = sum(
            l2_diff_on_common_torus(tree_f.outputs[p], tree_g.outputs[p]) ** 2
            for p in tree_f.paths_at(m)
        )
        distances.append(d_m)
        bound = DECAY_SLACK * c_norm ** 2 * B ** 2 * energy / S ** (2 * m)
        report.add(f"bound_m{m}", f"d_{m} <= 1.1 |c|^2 B^2 S^-2m ||f||^2", d_m, bound,
                   d_m <= bound)
    for m in range(config.max_depth):
        report.add(f"monotone_m{m}", f"d_{m + 1} <= d_{m}", distances[m + 1], distances[m],
                   distances[m + 1] <= distances[m])
    report.notes.append("distances " + " ".join(f"d_{m}={d:.17g}" for m, d in enumerate(distances)))
    return report


def check_shift_equivariance_plain(
    trials: int, config: VerifyConfig = VerifyConfig()
) -> VerificationReport:
    """Plain-cascade nodes and outputs commute with circular shifts, bit for bit.

    Uses the direct (shift-covariant) convolution evaluator; the FFT evaluator
    agrees to rounding but not to the bit, which is recorded as a note.
    """
    rng = np.random.default_rng(config.seed + 2)
    shape = config.equivariance_grid
    depth = config.equivariance_depth
    bank = config.bank.build(shape)
    report = VerificationReport(
        "circular_shift_equivariance",
        dict(config.bank.summary(), grid=shape, seed=config.seed, max_depth=depth,
             conv_method="direct", trials=trials),
    )
    axes = tuple(range(len(shape)))
    for t, family, f in _draws(rng, trials, shape):
        offsets = tuple(int(rng.integers(0, n)) for n in shape) if t else (0,) * len(shape)
        tree_f = compute_tree(f, bank, "plain", depth, "full", conv_method="direct")
        tree_s = compute_tree(translate_in_plate(f, offsets), bank, "plain", depth, "full",
                              conv_method="direct")
        worst = 0.0
        exact = True
        for p in tree_f.nodes:
            for a, b in ((tree_f.nodes[p], tree_s.nodes[p]),
                         (tree_f.outputs[p], tree_s.outputs[p])):
                rolled = np.roll(a.values, offsets, axis=axes)
                if not np.array_equal(rolled, b.values):
                    exact = False
                    worst = max(worst, float(np.max(np.abs(rolled - b.values))))
        report.add(f"trial{t:04d}", f"{family}:c={offsets}", worst, 0.0, exact)

    # recorded diagnostics, no bound asserted: finite-J L_c-invariance of outputs
    f = random_signal(np.random.default_rng(config.seed + 3), "uniform", shape)
    offsets = tuple(n // 4 for n in shape)
    shifted = translate_in_plate(f, offsets)
    for J_diag in (1, 2, 3):
        bank_j = replace(config.bank, J=J_diag).build(shape)
        t_f = compute_tree(f, bank_j, "plain", depth, "full")
        t_s = compute_tree(shifted, bank_j, "plain", depth, "full")
        diff = sum(
            l2_norm(t_f.outputs[p].with_values(t_f.outputs[p].values - t_s.outputs[p].values)) ** 2
            for p in t_f.outputs
        ) / l2_norm(f) ** 2
        report.notes.append(f"L_c output difference at J={J_diag}: {diff:.17g}")
    report.notes.append("fft-evaluator equivariance holds to rounding, not to the bit")
    return report


def default_suites(config: VerifyConfig, trials: dict[str, int]):
    """The standard suite set; returns name -> callable.

    A suite reads its trial (or input) count ``trials[name]`` when it runs, so
    ``trials`` needs an entry only for the suites that are called.
    """

    def per_input(name, seed_offset, families, check):
        rng = np.random.default_rng(config.seed + seed_offset)
        merged = None
        for i, _, f in _draws(rng, trials[name], config.grid, families):
            merged = _merge(merged, check(f), i)
        return merged

    def decay(f):
        # sub-plate-aligned at every pooled depth; whole at the last, as S divides block_samples
        spacing, pool = f.plate.spacing[0], config.pool
        step = spacing * pool.block_samples * pool.factor ** (config.max_depth - 1)
        return check_invariance_decay(f, (step,) + (0.0,) * (f.plate.dim - 1), config)

    return dict(zip(SUITES, (  # in SUITES order
        lambda: check_contraction(trials["contraction"], config),
        lambda: check_commutation(trials["commutation"], config),
        lambda: per_input("energy", 4, FAMILIES, lambda f: check_energy_monotonic(f, config)),
        # uniform images only: the decay bound holds for any input, but the
        # suite's d_{m+1} <= d_m assertion is not a theorem and peaked spike
        # inputs measurably break it at m = 0 -> 1
        lambda: per_input("decay", 5, ("uniform",), decay),
        lambda: check_shift_equivariance_plain(trials["equivariance"], config),
    )))


def _merge(merged: VerificationReport | None, rep: VerificationReport, i: int) -> VerificationReport:
    if merged is None:
        merged = VerificationReport(rep.suite, rep.environment)
    merged.cases.extend(replace(c, name=f"input{i:02d}_{c.name}") for c in rep.cases)
    merged.notes.extend(f"input{i:02d}: {n}" for n in rep.notes)
    return merged
