"""Continuous max-pooling on plates: partitioning, admissibility, pooling.

The pooling operator replaces |f| on each congruent sub-plate by its largest
sample and maps the plate D to D/S.  The output grid is chosen so every
sub-plate image covers a whole number of output cells, which represents the
piecewise-constant pooled function losslessly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod

import numpy as np

from .grid import Plate, SignalGrid, l2_norm, linf_norm


class AdmissibilityError(ValueError):
    """Pooling factor at or below the admissibility threshold in strict mode."""


class AdmissibilityWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PlatePartition:
    """Split of a plate into congruent axis-aligned sub-plates, whole samples each."""

    parent: Plate
    blocks_per_axis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks_per_axis", tuple(int(b) for b in self.blocks_per_axis))
        if len(self.blocks_per_axis) != self.parent.dim:
            raise ValueError("blocks_per_axis dimension does not match the plate")
        if any(b < 1 for b in self.blocks_per_axis):
            raise ValueError(f"blocks_per_axis must be >= 1, got {self.blocks_per_axis}")
        for n, b in zip(self.parent.samples_per_axis, self.blocks_per_axis):
            if n % b != 0:
                raise ValueError(f"{n} samples are not divisible into {b} blocks")

    @property
    def n_blocks(self) -> int:
        return prod(self.blocks_per_axis)

    @property
    def samples_per_block(self) -> tuple[int, ...]:
        return tuple(n // b for n, b in zip(self.parent.samples_per_axis, self.blocks_per_axis))

    @property
    def block_side_lengths(self) -> tuple[float, ...]:
        return tuple(s / b for s, b in zip(self.parent.side_lengths, self.blocks_per_axis))

    def sub_plate(self, index: tuple[int, ...]) -> Plate:
        sides = self.block_side_lengths
        origin = tuple(o + i * w for o, i, w in zip(self.parent.origin, index, sides))
        return Plate(origin, sides, self.samples_per_block)


def min_admissible_factor(f: SignalGrid) -> float:
    """Admissibility threshold (|D| (||f||_inf / ||f||_2)^2)^(1/d); S above it keeps ||P f|| <= ||f||.

    ||P f||_2^2 <= |D| ||f||_inf^2 / S^d for any partition, so S^d >= |D| ||f||_inf^2 / ||f||_2^2
    suffices.
    """
    norm, peak = l2_norm(f), linf_norm(f)
    if norm == 0.0:
        raise ValueError("admissibility threshold is undefined for the zero signal")
    return float((f.plate.volume * (peak / norm) ** 2) ** (1.0 / f.plate.dim))


def max_pool(
    f: SignalGrid,
    partition: PlatePartition,
    S: float,
    admissibility: str = "warn",
) -> SignalGrid:
    """Continuous max-pooling: per-sub-plate maxima of |f| on the shrunken plate D/S.

    Parameters
    ----------
    f : SignalGrid
        Input signal; ``partition.parent`` must be its plate.
    partition : PlatePartition
        Sub-plate layout supplying the block maxima.
    S : float
        Pooling factor, at least 1; the output grid keeps samples/S cells per
        axis, so S must divide the sample counts and the block counts must
        divide the result.
    admissibility : str
        Where a sub-plate maps to more than one output cell, "strict" raises when
        S does not exceed :func:`min_admissible_factor`, "warn" (default) emits
        :class:`AdmissibilityWarning`, "off" skips the check.  One cell per
        sub-plate always contracts (max^2 <= the block's sum of squares), as
        does the zero signal, so neither is checked.
    """
    if partition.parent != f.plate:
        raise ValueError("partition was built for a different plate")
    S = float(S)
    if S < 1.0:
        raise ValueError(f"pooling factor must be >= 1, got {S}")
    if admissibility not in ("strict", "warn", "off"):
        raise ValueError(f"unknown admissibility mode {admissibility!r}")

    out_samples = []
    for n, b in zip(f.plate.samples_per_axis, partition.blocks_per_axis):
        n_out = n / S
        if abs(n_out - round(n_out)) > 1e-9:
            raise ValueError(f"pooling factor {S} does not divide {n} samples evenly")
        n_out = int(round(n_out))
        if n_out % b != 0:
            raise ValueError(
                f"sub-plate images would cover {n_out}/{b} output cells per axis; "
                f"choose S so blocks map to whole cells"
            )
        out_samples.append(n_out)
    reps = tuple(n // b for n, b in zip(out_samples, partition.blocks_per_axis))

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

    values = np.kron(_block_maxima(np.abs(f.values), partition.blocks_per_axis), np.ones(reps))
    out_plate = Plate(
        tuple(o / S for o in f.plate.origin),
        tuple(s / S for s in f.plate.side_lengths),
        tuple(out_samples),
    )
    return SignalGrid(out_plate, values)


def _block_maxima(magnitudes: np.ndarray, blocks_per_axis: tuple[int, ...]) -> np.ndarray:
    shape = []
    for n, b in zip(magnitudes.shape, blocks_per_axis):
        shape.extend((b, n // b))
    reduced = magnitudes.reshape(shape)
    return reduced.max(axis=tuple(range(1, 2 * len(blocks_per_axis), 2)))
