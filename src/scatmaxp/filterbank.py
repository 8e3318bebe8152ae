"""Frequency-domain Morlet wavelet banks and their frame diagnostics.

Wavelets are built directly on the discrete frequency lattice of a grid shape
(periodized over aliases), following the usual image-scattering set-up:
dilations sigma_j = sigma0 * 2^j, center frequencies xi_j = xi0 / 2^j, and L
rotations covering half the circle.  By default the wavelet part of the bank
is equalized so that the Littlewood-Paley sum matches 1 - |phi_hat|^2 exactly
on the lattice; the raw un-equalized bank is available via ``equalize=False``
and its (large) frame defect is still measurable with :func:`frame_defect`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

BANK_KINDS = ("morlet", "partition")


class FilterIndex(NamedTuple):
    """Wavelet index lambda = (scale j, rotation r); j = 0 is the finest scale."""

    j: int
    r: int


@dataclass(frozen=True)
class MorletParams:
    sigma0: float = 0.8
    xi0: float = 3.0 * math.pi / 4.0
    slant: float | None = None  # None resolves to 4 / L at build time

    def resolve(self, L: int) -> "MorletParams":
        if self.slant is not None:
            return self
        return MorletParams(self.sigma0, self.xi0, 4.0 / L)


@dataclass(frozen=True)
class FilterBank:
    """Immutable bank of band-pass wavelets psi_hat and one low-pass phi_hat.

    ``psi_hat`` and ``phi_hat`` are the filters realized on ``grid_shape``;
    :meth:`realize` rebuilds the same bank on other grid shapes (needed when
    pooled cascades shrink the grid) at matching physical scale.  Every
    realized filter array, and every psi mapping, is read-only.
    """

    J: int
    L: int
    grid_shape: tuple[int, ...]
    psi_hat: Mapping[FilterIndex, np.ndarray]
    phi_hat: np.ndarray
    morlet_params: MorletParams
    kind: str = "morlet"  # one of BANK_KINDS
    equalized: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.grid_shape)

    @property
    def indices(self) -> list[FilterIndex]:
        return sorted(self.psi_hat)

    def realize(self, shape: tuple[int, ...], spacing_ratio: float = 1.0):
        """Filters rebuilt on ``shape`` at the same physical scale.

        ``spacing_ratio`` is the sample spacing of the target grid divided by
        the spacing the bank was built for (1 for standard strided pooling,
        where the spacing never changes).
        """
        shape = tuple(int(n) for n in shape)
        if len(shape) != self.dim:
            raise ValueError(
                f"no filters available for a {len(shape)}-dimensional grid "
                f"(bank is {self.dim}-dimensional)"
            )
        key = (shape, float(spacing_ratio))
        if key not in self._cache:
            if self.kind == "morlet":
                psi, phi = _build_morlet_filters(
                    self.J, self.L, shape, self.morlet_params, self.equalized, spacing_ratio
                )
            else:
                psi, phi = _build_partition_filters(self.J, self.L, shape, spacing_ratio)
            self._cache[key] = (psi, phi)
        return self._cache[key]


def build_morlet_bank(
    J: int,
    L: int,
    grid_shape: tuple[int, ...],
    params: MorletParams | None = None,
    equalize: bool = True,
) -> FilterBank:
    """Morlet wavelet bank with J*L zero-mean wavelets and a Gaussian low-pass."""
    grid_shape = tuple(int(n) for n in grid_shape)
    _validate_bank_args(J, L, grid_shape)
    params = (params or MorletParams()).resolve(L)
    psi, phi = _build_morlet_filters(J, L, grid_shape, params, equalize, 1.0)
    bank = FilterBank(J, L, grid_shape, psi, phi, params, "morlet", equalize)
    bank._cache[(grid_shape, 1.0)] = (psi, phi)
    return bank


def build_partition_bank(J: int, L: int, grid_shape: tuple[int, ...]) -> FilterBank:
    """Exact-partition fixture bank: indicator filters with a frame defect of zero.

    The frequency lattice is split into a low-pass ball and J*L disjoint
    dyadic-shell / angular-sector pieces, with amplitudes chosen so the
    symmetrized Littlewood-Paley sum is identically 1.
    """
    grid_shape = tuple(int(n) for n in grid_shape)
    _validate_bank_args(J, L, grid_shape)
    psi, phi = _build_partition_filters(J, L, grid_shape, 1.0)
    params = MorletParams().resolve(L)
    bank = FilterBank(J, L, grid_shape, psi, phi, params, "partition", False)
    bank._cache[(grid_shape, 1.0)] = (psi, phi)
    return bank


def _validate_bank_args(J: int, L: int, grid_shape: tuple[int, ...]) -> None:
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if len(grid_shape) not in (1, 2):
        raise ValueError(f"grid must be 1- or 2-dimensional, got shape {grid_shape}")
    if len(grid_shape) == 1 and L != 1:
        raise ValueError("1-dimensional banks admit no rotations; L must be 1")
    for n in grid_shape:
        if n % (2 ** J) != 0:
            raise ValueError(f"grid axis {n} is not divisible by 2^J = {2 ** J}")


# ---------------------------------------------------------------------------
# Morlet construction
# ---------------------------------------------------------------------------

def _pixel_frequencies(shape: tuple[int, ...]) -> list[np.ndarray]:
    return [2.0 * np.pi * np.fft.fftfreq(n) for n in shape]


def _alias_reach(sigma: float, slant: float, center_radius: float) -> int:
    # farthest alias copy whose tail still exceeds ~1e-16 inside [-pi, pi)^d;
    # capped at 4 periods, so sigmas below ~0.4 (spacing_ratio > 2) keep ~1e-5
    # tails -- standard strided pooling never shrinks sigma below sigma0
    widest = max(1.0, slant) / sigma
    reach = 8.6 * widest + math.pi + center_radius
    return max(1, min(4, math.ceil(reach / (2.0 * math.pi))))


def _gauss_hat(
    shape: tuple[int, ...],
    sigma: float,
    center: np.ndarray,
    slant: float,
    theta: float,
) -> np.ndarray:
    """Periodized frequency response of an oriented Gaussian envelope.

    In the frame rotated by theta the response is
    exp(-sigma^2/2 * (v_r^2 + v_t^2 / slant^2)) centered at ``center``.
    """
    d = len(shape)
    freqs = _pixel_frequencies(shape)
    out = np.zeros(shape)
    n_alias = _alias_reach(sigma, slant, float(np.linalg.norm(center)))
    alias_axes = [range(-n_alias, n_alias + 1)] * d
    if d == 1:
        (w0,) = freqs
        for a0 in alias_axes[0]:
            v = w0 + 2.0 * np.pi * a0 - center[0]
            out += np.exp(-0.5 * sigma ** 2 * v ** 2)
        return out
    w0, w1 = np.meshgrid(*freqs, indexing="ij")
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    for a0 in alias_axes[0]:
        for a1 in alias_axes[1]:
            v0 = w0 + 2.0 * np.pi * a0 - center[0]
            v1 = w1 + 2.0 * np.pi * a1 - center[1]
            vr = v0 * cos_t + v1 * sin_t
            vt = -v0 * sin_t + v1 * cos_t
            out += np.exp(-0.5 * sigma ** 2 * (vr ** 2 + (vt / slant) ** 2))
    return out


def _morlet_hat(
    shape: tuple[int, ...], sigma: float, xi: float, theta: float, slant: float
) -> np.ndarray:
    """Zero-mean Morlet: shifted Gaussian minus the correction that kills the DC bin."""
    d = len(shape)
    if d == 1:
        center = np.array([xi])
    else:
        center = xi * np.array([math.cos(theta), math.sin(theta)])
    g_shift = _gauss_hat(shape, sigma, center, slant, theta)
    g_zero = _gauss_hat(shape, sigma, np.zeros(d), slant, theta)
    origin = (0,) * d
    kappa = g_shift[origin] / g_zero[origin]
    return g_shift - kappa * g_zero


def _build_morlet_filters(
    J: int,
    L: int,
    shape: tuple[int, ...],
    params: MorletParams,
    equalize: bool,
    spacing_ratio: float,
):
    # matching physical scale on a grid whose spacing changed by spacing_ratio
    sigma0 = params.sigma0 / spacing_ratio
    xi0 = params.xi0 * spacing_ratio
    slant = params.slant
    psi: dict[FilterIndex, np.ndarray] = {}
    for j in range(J):
        for r in range(L):
            theta = math.pi * r / L
            psi[FilterIndex(j, r)] = _morlet_hat(
                shape, sigma0 * 2 ** j, xi0 / 2 ** j, theta, slant
            )
    d = len(shape)
    phi = _gauss_hat(shape, sigma0 * 2 ** (J - 1), np.zeros(d), 1.0, 0.0)
    if equalize:
        psi = _equalize_wavelets(psi, phi)
    return _read_only(psi, phi)


def _equalize_wavelets(
    psi: dict[FilterIndex, np.ndarray], phi: np.ndarray
) -> dict[FilterIndex, np.ndarray]:
    """Scale the wavelet part per frequency so the symmetrized frame sum is exact.

    The common gain g(w) satisfies g^2 * A_psi = 1 - |phi_hat|^2, the discrete
    analogue of the energy identity the cascade's theory assumes; g is
    symmetric in w, so the symmetrized sum equals 1 wherever A_psi > 0.
    """
    a_psi = np.zeros_like(phi)
    for arr in psi.values():
        a_psi += 0.5 * (np.abs(arr) ** 2 + np.abs(reflect_frequencies(arr)) ** 2)
    target = np.clip(1.0 - np.abs(phi) ** 2, 0.0, None)
    gain = np.sqrt(np.divide(target, a_psi, out=np.zeros_like(a_psi), where=a_psi > 0))
    return {k: v * gain for k, v in psi.items()}


# ---------------------------------------------------------------------------
# Exact-partition fixture
# ---------------------------------------------------------------------------

def _build_partition_filters(J: int, L: int, shape: tuple[int, ...], spacing_ratio: float):
    d = len(shape)
    freqs = _pixel_frequencies(shape)
    grids = np.meshgrid(*freqs, indexing="ij") if d == 2 else [freqs[0]]
    radius = np.sqrt(sum(g ** 2 for g in grids))
    scale = math.pi * spacing_ratio

    # angular sectors identify theta with theta + pi, so each mask is symmetric
    # under w -> -w and unit amplitudes make the symmetrized sum exactly 1
    if d == 2:
        angle = np.mod(np.arctan2(grids[1], grids[0]), math.pi)
        sector_of = np.minimum((angle * L / math.pi).astype(int), L - 1)
        sector_of = np.minimum(sector_of, reflect_frequencies(sector_of))
    else:
        sector_of = np.zeros(shape, dtype=int)

    phi = (radius <= scale / 2 ** J).astype(np.float64)
    psi: dict[FilterIndex, np.ndarray] = {}
    for j in range(J):
        upper = np.inf if j == 0 else scale / 2 ** j
        lower = scale / 2 ** (j + 1)
        band = (radius > lower) & (radius <= upper)
        for r in range(L):
            psi[FilterIndex(j, r)] = (band & (sector_of == r)).astype(np.float64)
    return _read_only(psi, phi)


def _read_only(psi: dict[FilterIndex, np.ndarray], phi: np.ndarray):
    """Freeze one realization (arrays and psi mapping); cascades multiply into their own buffers."""
    for arr in (*psi.values(), phi):
        arr.flags.writeable = False
    return MappingProxyType(psi), phi


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def reflect_frequencies(arr: np.ndarray) -> np.ndarray:
    """arr evaluated at -w on the DFT lattice (index negation modulo n)."""
    return arr[np.ix_(*[(-np.arange(n)) % n for n in arr.shape])]


def littlewood_paley_sum(psi_hats: Iterable[np.ndarray], phi_hat: np.ndarray) -> np.ndarray:
    """|phi_hat|^2 + 1/2 sum_lambda (|psi_hat(w)|^2 + |psi_hat(-w)|^2) on the lattice."""
    total = np.abs(phi_hat) ** 2
    for arr in psi_hats:
        total = total + 0.5 * (np.abs(arr) ** 2 + np.abs(reflect_frequencies(arr)) ** 2)
    return total


def frame_defect(bank: FilterBank) -> float:
    """Worst-case deviation of the bank's Littlewood-Paley sum from 1."""
    total = littlewood_paley_sum(bank.psi_hat.values(), bank.phi_hat)
    return float(np.max(np.abs(1.0 - total)))


def theorem_constant_B(bank: FilterBank, spacing: float = 1.0) -> float:
    """Tight numerical bound B with |phi_hat(w)| * |w| < B on the bank's lattice.

    ``spacing`` converts lattice frequencies to physical units (radians per
    physical length = radians per sample / spacing).
    """
    freqs = [w / spacing for w in _pixel_frequencies(bank.grid_shape)]
    grids = np.meshgrid(*freqs, indexing="ij") if bank.dim == 2 else [freqs[0]]
    radius = np.sqrt(sum(g ** 2 for g in grids))
    return float(np.max(np.abs(bank.phi_hat) * radius))
