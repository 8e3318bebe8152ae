"""Continuous max-pooling on plates: admissibility and the pooling operator.

The pooling operator replaces |f| on each congruent sub-plate by its largest
sample and maps the plate D to D/S.  The output grid is chosen so every
sub-plate image covers a whole number of output cells, which represents the
piecewise-constant pooled function losslessly.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .grid import Plate, SignalGrid, l2_norm, linf_norm

ADMISSIBILITY_MODES = ("strict", "warn", "off")


class AdmissibilityError(ValueError):
    """Pooling factor at or below the admissibility threshold in strict mode."""


class AdmissibilityWarning(UserWarning):
    pass


def min_admissible_factor(f: SignalGrid) -> float:
    """Admissibility threshold (|D| (||f||_inf / ||f||_2)^2)^(1/d); S above it keeps ||P f|| <= ||f||.

    ||P f||_2^2 <= |D| ||f||_inf^2 / S^d for any partition, so S^d >= |D| ||f||_inf^2 / ||f||_2^2
    suffices.
    """
    norm, peak = l2_norm(f), linf_norm(f)
    if norm == 0.0:
        raise ValueError("admissibility threshold is undefined for the zero signal")
    return float((f.plate.volume * (peak / norm) ** 2) ** (1.0 / f.plate.dim))


def _check_factor(S: float) -> None:
    """Reject a pooling factor that is not a finite number >= 1."""
    if not math.isfinite(S):
        raise ValueError(f"pooling factor must be finite, got {S}")
    if S < 1:
        raise ValueError(f"pooling factor must be >= 1, got {S}")


def max_pool(
    f: SignalGrid,
    block_samples: int | tuple[int, ...],
    S: float,
    admissibility: str = "warn",
) -> SignalGrid:
    """Continuous max-pooling: per-sub-plate maxima of |f| on the shrunken plate D/S.

    Parameters
    ----------
    f : SignalGrid
        Input signal; its plate is split into congruent sub-plates.
    block_samples : int or tuple of int
        Samples per sub-plate along each axis: one int for every axis, or one
        per axis.  Each must divide the axis's sample count n.
    S : float
        Pooling factor, finite and at least 1; the output grid keeps n/S cells per axis,
        so S must divide n and n/S must be a whole number of the sub-plates.
    admissibility : str
        Where a sub-plate maps to more than one output cell, "strict" raises when
        S does not exceed :func:`min_admissible_factor`, "warn" (default) emits
        :class:`AdmissibilityWarning`, "off" skips the check.  One cell per
        sub-plate always contracts (max^2 <= the block's sum of squares), as
        does the zero signal, so neither is checked.
    """
    sizes = (block_samples,) * f.plate.dim if np.isscalar(block_samples) else tuple(block_samples)
    if len(sizes) != f.plate.dim:
        raise ValueError(f"expected {f.plate.dim} sub-plate sizes, got {len(sizes)}")
    if min(sizes) < 1:
        raise ValueError(f"sub-plate sizes must be >= 1, got {sizes}")
    S = float(S)
    _check_factor(S)
    if admissibility not in ADMISSIBILITY_MODES:
        raise ValueError(f"unknown admissibility mode {admissibility!r}")

    out_samples, reps = [], []
    for n, k in zip(f.shape, sizes):
        if n % k != 0:
            raise ValueError(f"{n} samples are not divisible into sub-plates of {k}")
        n_out = n / S
        if abs(n_out - round(n_out)) > 1e-9:
            raise ValueError(f"pooling factor {S} does not divide {n} samples evenly")
        n_out, blocks = round(n_out), n // k
        if n_out % blocks != 0:
            raise ValueError(
                f"sub-plate images would cover {n_out}/{blocks} output cells per axis; "
                f"choose S so blocks map to whole cells"
            )
        out_samples.append(n_out)
        reps.append(n_out // blocks)

    if admissibility != "off" and max(reps) > 1 and np.any(f.values):
        threshold = min_admissible_factor(f)
        if S <= threshold:
            message = (
                f"pooling factor S={S} is not admissible: the measured threshold "
                f"(|D| (||f||_inf / ||f||_2)^2)^(1/d) = {threshold:.6g} requires S > it"
            )
            if admissibility == "strict":
                raise AdmissibilityError(message)
            warnings.warn(message, AdmissibilityWarning, stacklevel=2)

    values = _block_maxima(np.abs(f.values), sizes)
    if max(reps) > 1:  # each sub-plate covers several output cells
        values = np.kron(values, np.ones(reps))
    out_plate = Plate(
        tuple(o / S for o in f.plate.origin),
        tuple(s / S for s in f.plate.side_lengths),
        tuple(out_samples),
    )
    return SignalGrid._adopt(out_plate, values)


def _block_maxima(magnitudes: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Per-block maxima, one axis at a time: the elementwise maximum of k strided slices.

    Along an axis with k = ``sizes[axis]`` samples per block, block i holds
    sample i of each slice x[o::k], o = 0..k-1; axes with k = 1 are left as
    they are.  A maximum rounds nothing and ``np.maximum`` propagates NaN, so
    any reduction order gives the same bits.
    """
    out = magnitudes
    for axis, k in enumerate(sizes):
        if k == 1:
            continue
        lead = (slice(None),) * axis
        reduced = np.maximum(out[lead + (slice(0, None, k),)], out[lead + (slice(1, None, k),)])
        for o in range(2, k):
            np.maximum(reduced, out[lead + (slice(o, None, k),)], out=reduced)
        out = reduced
    return out
