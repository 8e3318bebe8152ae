"""Frequency-domain Morlet wavelet banks and their frame diagnostics.

Wavelets are sampled on the discrete frequency lattice of a grid shape and
periodized exactly: by Poisson summation each Gaussian is the DFT of its
spatial counterpart summed over the grid period.  The set-up is the usual
image-scattering one: dilations sigma_j = sigma0 * 2^j, center frequencies
xi_j = xi0 / 2^j, and L rotations covering half the circle.  By default the
wavelet part of the bank is equalized so that the Littlewood-Paley sum matches
1 - |phi_hat|^2 exactly on the lattice; the raw un-equalized bank is available
via ``equalize=False`` and its (large) frame defect is still measurable with
:func:`frame_defect`.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

BANK_KINDS = ("morlet", "partition")
EQUALIZE_FLOOR = np.finfo(np.float64).eps  # A_psi at or below this share of its peak is rounding


class FilterIndex(NamedTuple):
    """Wavelet index lambda = (scale j, rotation r); j = 0 is the finest scale."""

    j: int
    r: int


@dataclass(frozen=True)
class MorletParams:
    sigma0: float = 0.8
    xi0: float = 3.0 * math.pi / 4.0
    slant: float | None = None  # None resolves to 4 / L at build time

    def __post_init__(self):
        for name, value in (("sigma0", self.sigma0), ("slant", self.slant)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.xi0):
            raise ValueError(f"xi0 must be finite, got {self.xi0}")

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
    morlet_params: MorletParams | None  # None for a partition bank
    kind: str = "morlet"  # one of BANK_KINDS
    equalized: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.grid_shape)

    @property
    def indices(self) -> list[FilterIndex]:
        return sorted(self.psi_hat)

    def realize(self, shape: tuple[int, ...]):
        """Filters rebuilt on ``shape`` at the same physical scale.

        Pooling keeps the sample spacing (n samples on side s become n/S
        samples on side s/S), so the same per-sample parameters apply on
        every grid and the shape alone identifies a realization.
        """
        shape = tuple(int(n) for n in shape)
        if len(shape) != self.dim:
            raise ValueError(
                f"no filters available for a {len(shape)}-dimensional grid "
                f"(bank is {self.dim}-dimensional)"
            )
        if shape not in self._cache:
            if self.kind == "morlet":
                self._cache[shape] = _build_morlet_filters(
                    self.J, self.L, shape, self.morlet_params, self.equalized
                )
            else:
                self._cache[shape] = _build_partition_filters(self.J, self.L, shape)
        return self._cache[shape]


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
    psi, phi = _build_morlet_filters(J, L, grid_shape, params, equalize)
    bank = FilterBank(J, L, grid_shape, psi, phi, params, "morlet", equalize)
    bank._cache[grid_shape] = (psi, phi)
    return bank


def build_partition_bank(J: int, L: int, grid_shape: tuple[int, ...]) -> FilterBank:
    """Exact-partition fixture bank: indicator filters with a frame defect of zero.

    The frequency lattice is split into a low-pass ball and J*L disjoint
    dyadic-shell / angular-sector pieces, with amplitudes chosen so the
    symmetrized Littlewood-Paley sum is identically 1.
    """
    grid_shape = tuple(int(n) for n in grid_shape)
    _validate_bank_args(J, L, grid_shape)
    psi, phi = _build_partition_filters(J, L, grid_shape)
    bank = FilterBank(J, L, grid_shape, psi, phi, None, "partition", False)
    bank._cache[grid_shape] = (psi, phi)
    return bank


@dataclass(frozen=True)
class BankSpec:
    """The set-up of one bank, apart from the grid it is built on."""

    J: int = 2
    L: int = 2
    kind: str = "morlet"  # one of BANK_KINDS
    equalize: bool = True  # Morlet only; a partition bank is exact as built
    morlet: MorletParams = MorletParams()

    def __post_init__(self):
        if self.kind not in BANK_KINDS:
            raise ValueError(f"unknown bank kind {self.kind!r}")
        _check_scales(self.J, self.L)

    def build(self, shape: tuple[int, ...]) -> FilterBank:
        # through the module-level builders, which perfbench/tracing.py wraps by name
        if self.kind == "partition":
            return build_partition_bank(self.J, self.L, shape)
        return build_morlet_bank(self.J, self.L, shape, self.morlet, self.equalize)

    def summary(self) -> dict:
        """Report-environment keys naming the bank; Morlet adds its resolved parameters."""
        morlet = asdict(self.morlet.resolve(self.L)) if self.kind == "morlet" else {}
        return dict(morlet, bank=self.kind, J=self.J, L=self.L,
                    equalized=self.kind == "morlet" and self.equalize)


def _check_scales(J: int, L: int) -> None:
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")


def _validate_bank_args(J: int, L: int, grid_shape: tuple[int, ...]) -> None:
    _check_scales(J, L)
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


def _gauss_envelope(
    d: int, sigma: float, slant: float, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial Gaussian whose transform is exp(-sigma^2/2 (v_r^2 + v_t^2/slant^2)).

    By Poisson summation the frequency Gaussian periodized over aliases,
    sampled on a DFT lattice, is the DFT of this Gaussian periodized over the
    grid.  Its width is sigma along theta and sigma/slant across it; it is
    evaluated on the box |x| <= R per axis, R at 8.6 widths of the widest
    direction, where the tail falls below 1e-16.  Returns the envelope and the
    coordinate x_r along theta.
    """
    widest = sigma * max(1.0, 1.0 / slant) if d == 2 else sigma
    reach = math.ceil(8.6 * widest)
    x = np.arange(-reach, reach + 1, dtype=np.float64)
    if d == 1:
        xr, quad = x, x ** 2
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    else:
        x0, x1 = np.meshgrid(x, x, indexing="ij")
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        xr = x0 * cos_t + x1 * sin_t
        xt = -x0 * sin_t + x1 * cos_t
        quad = xr ** 2 + (slant * xt) ** 2
        norm = slant / (2.0 * math.pi * sigma ** 2)
    return norm * np.exp(-quad / (2.0 * sigma ** 2)), xr


def _gauss_hat(shape: tuple[int, ...], spatial: np.ndarray) -> np.ndarray:
    """DFT of a centered spatial box summed into ``shape``'s bins by index mod n."""
    for axis, n in enumerate(shape):
        m = spatial.shape[axis]
        # front padding puts x = -(m // 2) at an index congruent to it mod n
        front = -(m // 2) % n
        rows = -(-(front + m) // n)
        widths = [(0, 0)] * spatial.ndim
        widths[axis] = (front, rows * n - front - m)
        padded = np.pad(spatial, widths)
        folded_shape = padded.shape[:axis] + (rows, n) + padded.shape[axis + 1:]
        spatial = padded.reshape(folded_shape).sum(axis)
    # a copy, so a kept filter does not hold the complex transform behind a view
    return np.fft.fftn(spatial).real.copy()


def _morlet_hat(
    shape: tuple[int, ...], sigma: float, xi: float, theta: float, slant: float
) -> np.ndarray:
    """Zero-mean Morlet: envelope * (exp(i xi x_r) - kappa), folded and transformed once."""
    envelope, xr = _gauss_envelope(len(shape), sigma, slant, theta)
    kappa = np.sum(envelope * np.cos(xi * xr)) / np.sum(envelope)  # zeroes the DC bin
    return _gauss_hat(shape, envelope * (np.exp(1j * xi * xr) - kappa))


def _build_morlet_filters(
    J: int,
    L: int,
    shape: tuple[int, ...],
    params: MorletParams,
    equalize: bool,
):
    psi: dict[FilterIndex, np.ndarray] = {}
    for j in range(J):
        for r in range(L):
            theta = math.pi * r / L
            psi[FilterIndex(j, r)] = _morlet_hat(
                shape, params.sigma0 * 2 ** j, params.xi0 / 2 ** j, theta, params.slant
            )
    envelope, _ = _gauss_envelope(len(shape), params.sigma0 * 2 ** (J - 1), 1.0, 0.0)
    phi = _gauss_hat(shape, envelope)
    if equalize:
        psi = _equalize_wavelets(psi, phi)
    return _read_only(psi, phi)


def _equalize_wavelets(
    psi: dict[FilterIndex, np.ndarray], phi: np.ndarray
) -> dict[FilterIndex, np.ndarray]:
    """Scale the wavelet part per frequency so the symmetrized frame sum is exact.

    The common gain g(w) satisfies g^2 * A_psi = 1 - |phi_hat|^2, the discrete
    analogue of the energy identity the cascade's theory assumes; g is
    symmetric in w, so the symmetrized sum equals 1 wherever A_psi is above the
    floor; at or below it A_psi is rounding, and dividing would blow that up.
    """
    a_psi = _symmetrized_energy(psi.values(), phi.shape)
    target = np.clip(1.0 - np.abs(phi) ** 2, 0.0, None)
    covered = a_psi > EQUALIZE_FLOOR * np.max(a_psi)
    gain = np.sqrt(np.divide(target, a_psi, out=np.zeros_like(a_psi), where=covered))
    return {k: v * gain for k, v in psi.items()}


# ---------------------------------------------------------------------------
# Exact-partition fixture
# ---------------------------------------------------------------------------

def _build_partition_filters(J: int, L: int, shape: tuple[int, ...]):
    d = len(shape)
    freqs = _pixel_frequencies(shape)
    grids = np.meshgrid(*freqs, indexing="ij") if d == 2 else [freqs[0]]
    radius = np.sqrt(sum(g ** 2 for g in grids))

    # angular sectors identify theta with theta + pi, so each mask is symmetric
    # under w -> -w and unit amplitudes make the symmetrized sum exactly 1
    if d == 2:
        angle = np.mod(np.arctan2(grids[1], grids[0]), math.pi)
        sector_of = np.minimum((angle * L / math.pi).astype(int), L - 1)
        sector_of = np.minimum(sector_of, reflect_frequencies(sector_of))
    else:
        sector_of = np.zeros(shape, dtype=int)

    phi = (radius <= math.pi / 2 ** J).astype(np.float64)
    psi: dict[FilterIndex, np.ndarray] = {}
    for j in range(J):
        upper = np.inf if j == 0 else math.pi / 2 ** j
        lower = math.pi / 2 ** (j + 1)
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
    return np.abs(phi_hat) ** 2 + _symmetrized_energy(psi_hats, phi_hat.shape)


def _symmetrized_energy(psi_hats: Iterable[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """A_psi = 1/2 (a + a(-w)) with a = sum_lambda |psi_hat|^2; a + a(-w) is exactly symmetric."""
    a = sum((np.abs(arr) ** 2 for arr in psi_hats), np.zeros(shape))
    return 0.5 * (a + reflect_frequencies(a))


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
