"""Path enumeration and the three cascades: plain, maxp, and naivep.

A cascade propagates a signal through wavelet-modulus steps along paths of
filter indices and low-pass filters every propagated node.  The maxp variant
inserts continuous max-pooling after every modulus, shrinking the plate by S
per layer; the naivep variant instead block-max-pools the finished outputs
once (stride 3), without per-layer theory.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import groupby
from math import comb, prod

import numpy as np

from .filterbank import FilterBank, FilterIndex
from .grid import Plate, SignalGrid, _direct_circular_convolve, convolve, l2_norm
from .pooling import ADMISSIBILITY_MODES, _block_maxima, _check_factor, max_pool

Path = tuple[FilterIndex, ...]

EMPTY_PATH: Path = ()

PATH_POLICIES = ("full", "frequency_decreasing")

MODES = ("plain", "maxp", "naivep")


@dataclass(frozen=True)
class PoolConfig:
    """Per-layer pooling set-up for the maxp cascade and the pooling suites.

    Sub-plates hold ``block_samples`` samples along every axis; the plate
    shrinks by ``factor`` (S, finite and >= 1); ``admissibility`` is the :func:`max_pool` mode.
    """

    block_samples: int = 2
    factor: float = 2.0
    admissibility: str = "warn"

    def __post_init__(self):
        if self.block_samples < 1:
            raise ValueError(f"block_samples must be >= 1, got {self.block_samples}")
        _check_factor(self.factor)
        if self.admissibility not in ADMISSIBILITY_MODES:
            raise ValueError(f"unknown admissibility mode {self.admissibility!r}")


def enumerate_paths(bank: FilterBank, m: int, policy: str = "full") -> list[Path]:
    """All length-m paths over the bank's index set admitted by the policy.

    "full" yields every combination, (J*L)^m paths.  "frequency_decreasing"
    keeps only strictly increasing scale indices along the path (scales only
    coarsen), the standard cost reduction.  Paths come in sorted order, the
    breadth-first order in which :func:`compute_tree` evaluates them.
    """
    if m < 0:
        raise ValueError(f"path length must be >= 0, got {m}")
    check_policy(policy)
    indices = bank.indices
    paths = [EMPTY_PATH]
    for _ in range(m):
        paths = [
            parent + (lam,)
            for parent in paths
            for lam in indices
            if policy == "full" or not parent or lam.j > parent[-1].j
        ]
    return paths


def check_policy(policy: str) -> None:
    """Reject a path policy that is not one of :data:`PATH_POLICIES`."""
    if policy not in PATH_POLICIES:
        raise ValueError(f"unknown path policy {policy!r}")


def check_mode(mode: str) -> None:
    """Reject a mode that is not one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def count_paths(J: int, L: int, m: int, policy: str = "full") -> int:
    """Closed-form path count matching :func:`enumerate_paths`."""
    check_policy(policy)
    if policy == "full":
        return (J * L) ** m
    return comb(J, m) * L ** m


def propagate_one(
    f: SignalGrid,
    index: FilterIndex,
    bank: FilterBank,
    method: str = "fft",
    f_hat: np.ndarray | None = None,
) -> SignalGrid:
    """One wavelet-modulus step |psi_lambda * f|, stored as float64.

    The fft method filters ``f_hat``, ``fftn(f.values)`` if the caller already
    has it, or else transforms f itself; other methods use :func:`convolve`,
    the direct one with the bank's kept kernel (:meth:`FilterBank.psi_kernels`).
    """
    psi, _ = bank.realize(f.shape)
    if index not in psi:
        raise ValueError(f"filter index {index} is not in the bank")
    if method == "fft":
        work = (np.fft.fftn(f.values) if f_hat is None else f_hat) * psi[index]
        values = np.fft.ifftn(work, out=work)
    else:
        kernel = bank.psi_kernels(f.shape)[index] if method == "direct" else None
        values = convolve(f, psi[index], method=method, kernel_parts=kernel).values
    return SignalGrid._adopt(f.plate, np.abs(values))


def _moduli(nodes: dict[Path, SignalGrid], paths, bank: FilterBank, method: str = "fft"):
    """Yield (path, propagate_one(parent, path[-1])) per path; siblings must be contiguous.

    Under the fft method each parent is transformed once, into its shape's
    spectrum buffer, which no earlier parent still needs.
    """
    spectra: dict[tuple[int, ...], np.ndarray] = {}
    for parent, children in groupby(paths, lambda p: p[:-1]):
        g, f_hat = nodes[parent], None
        if method == "fft":
            f_hat = spectra[g.shape] = np.fft.fftn(g.values, out=spectra.get(g.shape))
        for path in children:
            yield path, propagate_one(g, path[-1], bank, method, f_hat)


def window(f: SignalGrid, bank: FilterBank, method: str = "fft", step: int = 1) -> SignalGrid:
    """Low-pass filtering with phi realized on f's grid at matching physical scale.

    phi_hat is real and symmetric under w -> -w, so a float64 input, or a
    complex one whose imaginary part is all zeros, has a real window, stored
    as float64.  ``step`` keeps every step-th output sample per axis, as
    :func:`subsample_signal` does.

    The fft method, the fast evaluator, makes its windows of real inputs
    without an FFT where phi has circulants (:meth:`FilterBank.phi_circulants`:
    every Morlet bank and a 1-D partition bank, on axes of at most
    :data:`~scatmaxp.filterbank.CIRCULANT_MAX_SAMPLES` samples): one BLAS
    matrix product per axis with every step-th row of phi's circulant,
    ``C_0[::step] @ u @ C_1[::step].T``, or ``C_0[::step] @ u`` in 1-D; only
    a cascade's wavelet steps stay FFTs.  That costs n / step * n
    multiply-adds per line along an axis of n samples, where the FFT pair
    costs order n log n.  Measured per window on a 2-vCPU Xeon with one
    OpenBLAS thread, the products are 3.7x faster at 64^2, 1.3x at 224^2 and
    9.5x at 224^2 with step 8; at step 1 the FFT pair overtakes them from
    240^2 on in 2-D and between 256 and 512 samples in 1-D, which, with the
    n^2 floats a circulant holds, sets the cap.  Other real windows (the 2-D
    partition disc, which does not separate, and longer axes) take the half
    spectrum: rfftn, then the inverse folded onto the step lattice
    (:func:`_folded_irfftn`).  Both agree with the full inverse DFT of the
    filtered spectrum to rounding.

    The direct method sums against the spatial kernels of phi's factors
    (:meth:`FilterBank.phi_kernels`): on a 2-D Morlet bank one pass per
    axis, each shift-exact.  Complex inputs go through :func:`convolve`.
    Direct and complex windows are computed in full and then subsampled.
    """
    plate = f.plate if step == 1 else _subsampled_plate(f.plate, step)
    _, phi = bank.realize(f.shape)  # through realize, which perfbench/tracing.py counts per call
    circulants = bank.phi_circulants(f.shape)
    real = np.isrealobj(f.values) or not f.values.imag.any()
    if method == "fft" and real:
        if not circulants:
            spectrum = np.fft.rfftn(f.values.real, axes=tuple(range(f.plate.dim)))
            spectrum *= phi[..., :spectrum.shape[-1]]
            return SignalGrid._adopt(plate, _folded_irfftn(spectrum, f.shape, step))
        values = circulants[0][::step] @ f.values.real
        if len(circulants) == 2:
            values = values @ circulants[1][::step].T
        return SignalGrid._adopt(plate, values)
    if method == "direct" and real:
        values = f.values.real
        for kernel in bank.phi_kernels(f.shape):
            values = _direct_circular_convolve(values, kernel)
        out = f.with_values(values)
    else:
        out = convolve(f, phi, method=method)
    return out if step == 1 else subsample_signal(out, step)


def _folded_irfftn(spectrum: np.ndarray, shape: tuple[int, ...], step: int) -> np.ndarray:
    """``irfftn(spectrum, s=shape)`` at every step-th sample per axis, as a fresh array.

    Every step-th sample of an inverse DFT of length n is the inverse DFT, at
    length n/step, of the spectrum summed over its step aliases k, k + n/step,
    ... and divided by step.  Every axis but the last is folded so before its
    ifft; the last, a half spectrum, is inverted at full length and sliced.
    At step 1 no axis is folded and this is numpy's own ifft-then-irfft
    sequence, bit for bit.
    """
    for axis, n in enumerate(shape[:-1]):
        if step > 1:
            aliases = spectrum.shape[:axis] + (step, n // step) + spectrum.shape[axis + 1:]
            spectrum = spectrum.reshape(aliases).sum(axis=axis)
            spectrum /= step
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.ascontiguousarray(np.fft.irfft(spectrum, shape[-1], axis=-1)[..., ::step])


@dataclass(frozen=True)
class ScatteringTree:
    """All propagated nodes and windowed outputs of one cascade evaluation."""

    mode: str
    max_depth: int
    policy: str
    nodes: dict[Path, SignalGrid]
    outputs: dict[Path, SignalGrid]

    def paths_at(self, depth: int) -> list[Path]:
        return sorted(p for p in self.nodes if len(p) == depth)

    def layer_energy(self, depth: int) -> float:
        return sum(l2_norm(self.nodes[p]) ** 2 for p in self.paths_at(depth))

    def total_node_samples(self) -> int:
        return sum(prod(g.shape) for g in self.nodes.values())


def compute_tree(
    f: SignalGrid,
    bank: FilterBank,
    mode: str = "plain",
    max_depth: int = 2,
    policy: str = "full",
    pool_cfg: PoolConfig | None = None,
    output_subsample: bool = False,
    conv_method: str = "fft",
) -> ScatteringTree:
    """Breadth-first evaluation of one cascade.

    Modes: "plain" (wavelet-modulus only), "maxp" (pooling after every
    modulus; nodes at depth m live on the plate D/S^m), "naivep" (plain
    cascade, then one truncating 3x3/stride-3 block max on every output).
    ``output_subsample`` keeps every 2^J-th output sample, in every mode; the
    windows of real nodes under the fft method compute only those samples
    (see :func:`window`).
    """
    check_mode(mode)
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if f.shape != bank.grid_shape:
        raise ValueError(f"input shape {f.shape} does not match bank grid {bank.grid_shape}")
    if mode == "maxp" and pool_cfg is None:
        pool_cfg = PoolConfig()

    # depth 0 is the root alone; enumerating it also rejects an unknown policy
    nodes: dict[Path, SignalGrid] = dict.fromkeys(enumerate_paths(bank, 0, policy), f)
    for depth in range(1, max_depth + 1):
        for path, u in _moduli(nodes, enumerate_paths(bank, depth, policy), bank, conv_method):
            if mode == "maxp":
                try:
                    u = max_pool(u, pool_cfg.block_samples, pool_cfg.factor, pool_cfg.admissibility)
                except ValueError as exc:
                    raise ValueError(f"pooling failed at depth {depth}: {exc}") from exc
            nodes[path] = u

    # one window call per node, in node order: perfbench's tracer assigns
    # window depths by call order
    step = 2 ** bank.J if output_subsample else 1
    outputs: dict[Path, SignalGrid] = {}
    for path, g in nodes.items():
        out = window(g, bank, conv_method, step)
        if mode == "naivep":
            out = strided_block_max(out, 3)
        outputs[path] = out
    return ScatteringTree(mode, max_depth, policy, nodes, outputs)


def subsample_signal(f: SignalGrid, factor: int) -> SignalGrid:
    """Keep every factor-th sample per axis (plate extent unchanged)."""
    plate = _subsampled_plate(f.plate, factor)
    return SignalGrid(plate, f.values[(slice(None, None, factor),) * f.plate.dim])


def _subsampled_plate(plate: Plate, factor: int) -> Plate:
    """The plate of every factor-th sample: same extent, n / factor samples per axis."""
    if not (isinstance(factor, numbers.Integral) and factor >= 1):
        raise ValueError(f"subsampling factor must be an integer >= 1, got {factor!r}")
    for n in plate.samples_per_axis:
        if n % factor != 0:
            raise ValueError(f"{n} samples are not divisible by subsampling factor {factor}")
    return Plate(plate.origin, plate.side_lengths,
                 tuple(n // factor for n in plate.samples_per_axis))


def strided_block_max(f: SignalGrid, block: int) -> SignalGrid:
    """Block maximum of |f| with stride = block size, truncating remainder samples.

    The surviving extent is scaled by 1/block, mirroring the plate shrinkage of
    the principled pooling operator.
    """
    n_out = tuple(n // block for n in f.plate.samples_per_axis)
    if any(n == 0 for n in n_out):
        raise ValueError(f"grid {f.shape} is smaller than the pooling block {block}")
    crop = tuple(slice(0, n * block) for n in n_out)
    maxima = _block_maxima(np.abs(f.values[crop]), (block,) * f.plate.dim)
    kept = tuple(
        s * (n * block) / total
        for s, n, total in zip(f.plate.side_lengths, n_out, f.plate.samples_per_axis)
    )
    plate = Plate(
        tuple(o / block for o in f.plate.origin),
        tuple(s / block for s in kept),
        n_out,
    )
    return SignalGrid._adopt(plate, maxima)


# ---------------------------------------------------------------------------
# Architecture arithmetic
# ---------------------------------------------------------------------------

def dense_head_parameters(
    n_features: int, fc_widths: tuple[int, ...], n_classes: int
) -> int:
    """Weights + biases of the fully-connected head fed by n_features inputs."""
    total = 0
    width_in = n_features
    for width in fc_widths:
        total += width_in * width + width
        width_in = width
    total += width_in * n_classes + n_classes
    return total


def feature_summary(
    tree: ScatteringTree,
    fc_widths: tuple[int, ...] = (512, 512, 256, 256),
    n_classes: int = 102,
) -> dict:
    """Per-layer coefficient counts and the dense-head parameter arithmetic."""
    layers = []
    total = 0
    for m in range(tree.max_depth + 1):
        paths = tree.paths_at(m)
        shape = tree.outputs[paths[0]].shape if paths else ()
        coeffs = sum(prod(tree.outputs[p].shape) for p in paths)
        total += coeffs
        layers.append(
            {"depth": m, "paths": len(paths), "resolution": shape, "coefficients": coeffs}
        )
    return {
        "mode": tree.mode,
        "policy": tree.policy,
        "layers": layers,
        "total_features": total,
        "fc_widths": tuple(fc_widths),
        "n_classes": n_classes,
        "dense_head_parameters": dense_head_parameters(total, tuple(fc_widths), n_classes),
    }

