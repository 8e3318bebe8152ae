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
import numbers
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .grid import direct_kernel_parts

BANK_KINDS = ("morlet", "partition")
EQUALIZE_FLOOR = np.finfo(np.float64).eps  # A_psi at or below this share of its peak is rounding
# The longest axis phi gets a circulant on (FilterBank.phi_circulants).  A matrix
# holds n^2 float64 (392 KiB at 224), so the cap is first a memory guard: a 1-D
# bank on 32768 samples would need 8 GiB.  224 is the largest 2-D axis measured
# to window faster by matrix products than by the FFT pair at full resolution
# (they lose from 240^2 on; in 1-D from between 256 and 512 samples).  No
# benchmark workload has a longer axis, so the figure is not tuned further.
CIRCULANT_MAX_SAMPLES = 224


class FilterIndex(NamedTuple):
    """Wavelet index lambda = (scale j, rotation r); j = 0 is the finest scale."""

    j: int
    r: int


@dataclass(frozen=True)
class MorletParams:
    sigma0: float = 0.8
    xi0: float = 3.0 * math.pi / 4.0
    slant: float | None = None  # None resolves to 4 / L (BankSpec.morlet_params)

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
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")

    @property
    def morlet_params(self) -> MorletParams | None:
        """The Morlet parameters with the slant resolved; None for a partition bank."""
        return self.morlet.resolve(self.L) if self.kind == "morlet" else None

    @property
    def equalized(self) -> bool:
        return self.kind == "morlet" and self.equalize

    def build(self, shape: tuple[int, ...]) -> "FilterBank":
        # through the module-level builders, which perfbench/tracing.py wraps by name
        if self.kind == "partition":
            return build_partition_bank(self.J, self.L, shape)
        return build_morlet_bank(self.J, self.L, shape, self.morlet, self.equalize)

    def summary(self) -> dict:
        """Report-environment keys naming the bank; Morlet adds its resolved parameters."""
        params = self.morlet_params
        return dict(asdict(params) if params else {}, bank=self.kind, J=self.J, L=self.L,
                    equalized=self.equalized)


@dataclass(frozen=True)
class FilterBank:
    """A :class:`BankSpec` on a grid: band-pass wavelets psi_hat and one low-pass phi_hat.

    The bank keeps one realization per grid shape; ``psi_hat`` and ``phi_hat``
    are the one of ``grid_shape``, built with the bank, and :meth:`realize`
    gives others (pooled cascades shrink the grid).  The store is the bank's
    own, so ``dataclasses.replace`` gives a bank that realizes its own spec.
    Every realized filter array, and every psi mapping, is read-only.
    """

    spec: BankSpec
    grid_shape: tuple[int, ...]
    # shape -> (psi mapping, phi, phi's factors, their kernels, their circulants,
    #           psi's kernels once the direct evaluator asks for them, else None)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = _checked_grid(self.spec, self.grid_shape)
        object.__setattr__(self, "grid_shape", shape)
        # not through realize, which perfbench/tracing.py counts per call
        self._store(shape, _filters(self.spec, shape))

    @property
    def J(self) -> int:
        return self.spec.J

    @property
    def L(self) -> int:
        return self.spec.L

    @property
    def psi_hat(self) -> Mapping[FilterIndex, np.ndarray]:
        return self._cache[self.grid_shape][0]

    @property
    def phi_hat(self) -> np.ndarray:
        return self._cache[self.grid_shape][1]

    @property
    def indices(self) -> list[FilterIndex]:
        return sorted(self.psi_hat)

    def realize(self, shape: tuple[int, ...]):
        """(psi mapping, phi) on ``shape`` at the same physical scale.

        Pooling keeps the sample spacing (n samples on side s become n/S
        samples on side s/S), so the same per-sample parameters apply on
        every grid and the shape alone identifies a realization.  Where each
        axis m of ``shape`` divides the bank's n, the filters are the bank
        grid's at every (n/m)-th bin, as the DFT at m of a kernel folded mod m
        is its DFT at n folded mod n, so sampled: the frame sum is the bank
        grid's, sampled, and :data:`EQUALIZE_FLOOR` is relative to its
        ``A_psi`` peak.  Other shapes are built afresh.  Either way the
        realization also holds phi's factors (:meth:`phi_factors`), their
        spatial kernels (:meth:`phi_kernels`) and, when they separate, the
        kernels' circulants (:meth:`phi_circulants`), all made from the
        factors on ``shape`` itself.
        """
        return self._realized(shape)[:2]

    def phi_factors(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Read-only factors whose product is phi on ``shape``, bit for bit.

        A Morlet phi separates: one factor per axis, varying along that axis
        only (shaped by ``np.ix_`` to broadcast along it).  A partition phi
        is its own one factor, which separates only on a 1-D grid.
        """
        return self._realized(shape)[2]

    def phi_kernels(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Read-only spatial kernels ``ifftn(factor).real`` of :meth:`phi_factors`, shaped alike.

        Their imaginary parts are rounding, as phi_hat is real and symmetric.
        """
        return self._realized(shape)[3]

    def phi_circulants(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """phi's circulant matrices on ``shape``, one per axis and read-only, or ().

        ``C_a[x, y] = k_a[(x - y) % n_a]`` with ``k_a`` the kernel of phi's
        factor along axis a (:meth:`phi_kernels`), so a real u is low-pass
        filtered as ``C_0 u C_1^T`` (``C_0 u`` in 1-D).  Each holds n_a^2
        float64, so there are none where phi does not separate or an axis is
        longer than :data:`CIRCULANT_MAX_SAMPLES`.
        """
        return self._realized(shape)[4]

    def psi_kernels(self, shape: tuple[int, ...]) -> Mapping[FilterIndex, np.ndarray]:
        """Read-only spatial kernels of psi on ``shape``, for the direct evaluator.

        Each is ``ifftn(psi_hat)`` as its real and imaginary parts stacked
        (:func:`~scatmaxp.grid.direct_kernel_parts`).  They are made on the
        first request for ``shape`` and kept in its realization, so the fft
        method never makes or holds them.
        """
        realization = self._realized(shape)
        if realization[5] is None:
            kernels = {}
            for index, psi_hat in realization[0].items():
                kernels[index] = direct_kernel_parts(psi_hat)
                kernels[index].flags.writeable = False
            realization = realization[:5] + (MappingProxyType(kernels),)
            self._cache[tuple(shape)] = realization
        return realization[5]

    def _realized(self, shape: tuple[int, ...]):
        shape = tuple(shape)
        if shape not in self._cache:  # a hit equals a checked shape: only a miss is checked
            shape = _grid_axes(shape)
            if len(shape) != len(self.grid_shape):
                raise ValueError(f"no filters available for a {len(shape)}-dimensional grid "
                                 f"(bank is {len(self.grid_shape)}-dimensional)")
            if all(n % m == 0 for n, m in zip(self.grid_shape, shape)):
                cut = tuple(slice(None, None, n // m) for n, m in zip(self.grid_shape, shape))
                psi, phi, factors = self._cache[self.grid_shape][:3]
                self._store(shape, _read_only({k: v[cut].copy() for k, v in psi.items()},
                                              phi[cut].copy(), [a[cut].copy() for a in factors]))
            else:
                self._store(shape, _filters(self.spec, shape))
        return self._cache[shape]

    def _store(self, shape: tuple[int, ...], realization) -> None:
        """Keep a realization (psi mapping, phi, factors) with its factors' kernels and circulants.

        psi's kernels are left for :meth:`psi_kernels` to make on request.
        """
        kernels = []
        for a in realization[2]:
            # a copy, so a kept kernel does not hold the complex transform behind a view
            kernel = np.fft.ifftn(a).real.copy()
            kernel.flags.writeable = False
            kernels.append(kernel)
        self._cache[shape] = (*realization, tuple(kernels), _circulants(kernels), None)


def build_morlet_bank(J: int, L: int, grid_shape: tuple[int, ...],
                      params: MorletParams | None = None, equalize: bool = True) -> FilterBank:
    """Morlet wavelet bank with J*L zero-mean wavelets and a Gaussian low-pass."""
    return FilterBank(BankSpec(J, L, "morlet", equalize, params or MorletParams()), grid_shape)


def build_partition_bank(J: int, L: int, grid_shape: tuple[int, ...]) -> FilterBank:
    """Exact-partition fixture bank: indicator filters with a frame defect of zero.

    The frequency lattice is split into a low-pass ball and J*L disjoint
    dyadic-shell / angular-sector pieces, with amplitudes chosen so the
    symmetrized Littlewood-Paley sum is identically 1.
    """
    return FilterBank(BankSpec(J, L, "partition"), grid_shape)


def _checked_grid(spec: BankSpec, grid_shape: tuple[int, ...]) -> tuple[int, ...]:
    """``grid_shape`` as ints, checked as the grid a bank of ``spec`` is built on."""
    grid_shape = _grid_axes(grid_shape)
    if len(grid_shape) not in (1, 2):
        raise ValueError(f"grid must be 1- or 2-dimensional, got shape {grid_shape}")
    if len(grid_shape) == 1 and spec.L != 1:
        raise ValueError("1-dimensional banks admit no rotations; L must be 1")
    for n in grid_shape:
        if n % (2 ** spec.J) != 0:
            raise ValueError(f"grid axis {n} is not divisible by 2^J = {2 ** spec.J}")
    return grid_shape


def _grid_axes(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of ints, refusing an axis that is not a whole number >= 1."""
    for n in shape:
        if not (isinstance(n, numbers.Real) and n % 1 == 0):
            raise ValueError(f"grid axis must be a whole number >= 1, got {n!r}")
        if n < 1:
            raise ValueError(f"grid axis must be >= 1, got {n!r}")
    return tuple(int(n) for n in shape)


def _filters(spec: BankSpec, shape: tuple[int, ...]):
    """One read-only realization (psi mapping, phi, phi's factors) of ``spec`` on ``shape``."""
    build = _morlet_filters if spec.kind == "morlet" else _partition_filters
    return build(spec, shape)


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
    """DFT of a centered spatial box summed into ``shape``'s bins by index mod n.

    Per axis the box is added into n zeroed bins in runs of at most n
    samples, from its first sample x = -(m // 2) on, so each bin sums its
    samples in increasing x, one run after another.
    """
    for axis, n in enumerate(shape):
        m = spatial.shape[axis]
        folded = np.zeros(spatial.shape[:axis] + (n,) + spatial.shape[axis + 1:], spatial.dtype)
        target = [slice(None)] * spatial.ndim
        source = [slice(None)] * spatial.ndim
        start, bin_ = 0, -(m // 2) % n
        while start < m:
            run = min(n - bin_, m - start)
            target[axis], source[axis] = slice(bin_, bin_ + run), slice(start, start + run)
            folded[tuple(target)] += spatial[tuple(source)]
            start, bin_ = start + run, 0
        spatial = folded
    # a copy, so a kept filter does not hold the complex transform behind a view
    return np.fft.fftn(spatial).real.copy()


def _morlet_hat(
    shape: tuple[int, ...], sigma: float, xi: float, theta: float, slant: float
) -> np.ndarray:
    """Zero-mean Morlet: envelope * (exp(i xi x_r) - kappa), folded and transformed once."""
    envelope, xr = _gauss_envelope(len(shape), sigma, slant, theta)
    kappa = np.sum(envelope * np.cos(xi * xr)) / np.sum(envelope)  # zeroes the DC bin
    return _gauss_hat(shape, envelope * (np.exp(1j * xi * xr) - kappa))


def _morlet_filters(spec: BankSpec, shape: tuple[int, ...]):
    J, L, params = spec.J, spec.L, spec.morlet_params
    psi: dict[FilterIndex, np.ndarray] = {}
    for j in range(J):
        for r in range(L):
            theta = math.pi * r / L
            psi[FilterIndex(j, r)] = _morlet_hat(
                shape, params.sigma0 * 2 ** j, params.xi0 / 2 ** j, theta, params.slant
            )
    # phi separates: one 1-D Gaussian per axis, shaped by ix_ to broadcast along it
    envelope, _ = _gauss_envelope(1, params.sigma0 * 2 ** (J - 1), 1.0, 0.0)
    factors = np.ix_(*(_gauss_hat((n,), envelope) for n in shape))
    phi = math.prod(factors)  # 1 * a is exact
    if spec.equalize:
        psi = _equalize_wavelets(psi, phi)
    return _read_only(psi, phi, factors)


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

def _partition_filters(spec: BankSpec, shape: tuple[int, ...]):
    J, L, d = spec.J, spec.L, len(shape)
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
    return _read_only(psi, phi, (phi,))


def _read_only(psi: dict[FilterIndex, np.ndarray], phi: np.ndarray, factors):
    """Freeze one realization (arrays and psi mapping); cascades multiply into their own buffers."""
    for arr in (*psi.values(), phi, *factors):
        arr.flags.writeable = False
    return MappingProxyType(psi), phi, tuple(factors)


def _circulants(kernels) -> tuple[np.ndarray, ...]:
    """Read-only ``C_a[x, y] = k_a[(x - y) % n]``, one per axis, for phi's kernels k_a.

    () unless every kernel varies along its own axis alone and no axis is
    longer than :data:`CIRCULANT_MAX_SAMPLES`.  Row x of ``C_a`` is the
    doubled kernel read backwards from index n + x, so each matrix is one
    copy of a strided view of it.
    """
    d = len(kernels)
    if any(k.ndim != d or k.size != k.shape[axis] or k.size > CIRCULANT_MAX_SAMPLES
           for axis, k in enumerate(kernels)):
        return ()
    matrices = []
    for k in kernels:
        n = k.size
        doubled = np.concatenate((k.ravel(), k.ravel()))
        step = doubled.strides[0]
        matrix = np.lib.stride_tricks.as_strided(doubled[n:], (n, n), (step, -step)).copy()
        matrix.flags.writeable = False
        matrices.append(matrix)
    return tuple(matrices)


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
    grids = np.meshgrid(*freqs, indexing="ij") if len(bank.grid_shape) == 2 else [freqs[0]]
    radius = np.sqrt(sum(g ** 2 for g in grids))
    return float(np.max(np.abs(bank.phi_hat) * radius))
