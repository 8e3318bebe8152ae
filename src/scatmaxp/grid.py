"""Sampled signals on rectangular plates: norms, translations, spectral convolution.

A plate is an axis-aligned rectangle in R^d (d = 1 or 2) carrying a uniform
cell-centered sample grid; sample index n sits at ``origin + (n + 0.5) * spacing``.
All convolutions are circular (periodic on the plate) so Fourier-shift
identities hold exactly on the grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod

import numpy as np


@dataclass(frozen=True)
class Plate:
    """Axis-aligned rectangular domain with a uniform sample grid."""

    origin: tuple[float, ...]
    side_lengths: tuple[float, ...]
    samples_per_axis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "side_lengths", tuple(float(x) for x in self.side_lengths))
        object.__setattr__(self, "samples_per_axis", tuple(int(n) for n in self.samples_per_axis))
        d = len(self.origin)
        if d not in (1, 2):
            raise ValueError(f"plate dimension must be 1 or 2, got {d}")
        if len(self.side_lengths) != d or len(self.samples_per_axis) != d:
            raise ValueError("origin, side_lengths and samples_per_axis must share one dimension")
        if not all(map(isfinite, self.origin + self.side_lengths)):
            raise ValueError(
                f"origin and side_lengths must be finite, got {self.origin} and {self.side_lengths}")
        if any(s <= 0 for s in self.side_lengths):
            raise ValueError(f"side_lengths must be positive, got {self.side_lengths}")
        if any(n < 1 for n in self.samples_per_axis):
            raise ValueError(f"samples_per_axis must be >= 1, got {self.samples_per_axis}")

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(s / n for s, n in zip(self.side_lengths, self.samples_per_axis))

    @property
    def cell_volume(self) -> float:
        return prod(self.spacing)

    @property
    def volume(self) -> float:
        return prod(self.side_lengths)

    def contains_zero(self) -> bool:
        return all(o <= 0.0 <= o + s for o, s in zip(self.origin, self.side_lengths))


def unit_plate(samples_per_axis: tuple[int, ...] | int, centered: bool = False) -> Plate:
    """Unit-volume plate [0,1]^d (or [-1/2,1/2]^d when centered) with the given grid."""
    if isinstance(samples_per_axis, int):
        samples_per_axis = (samples_per_axis,)
    d = len(samples_per_axis)
    origin = (-0.5,) * d if centered else (0.0,) * d
    return Plate(origin, (1.0,) * d, tuple(samples_per_axis))


@dataclass(frozen=True)
class SignalGrid:
    """Samples of a compactly supported function on a plate.

    ``values`` is always a read-only copy of the input: float64 when the input
    is real (bool, integer or floating), complex128 when it is complex, even
    with an imaginary part of all zeros.  The package's own operators hand
    over arrays they have just made through :meth:`_adopt`, which keeps the
    array itself (read-only) instead of copying it.
    """

    plate: Plate
    values: np.ndarray

    def __post_init__(self):
        dtype = np.float64 if np.isrealobj(self.values) else np.complex128
        self._seal(np.array(self.values, dtype=dtype, copy=True))

    @classmethod
    def _adopt(cls, plate: Plate, values: np.ndarray) -> "SignalGrid":
        """Take ownership of a fresh float64 or complex128 array without copying it.

        The array is made read-only in place, so the caller must hold no other
        writable reference to it (or to the buffer it views).
        """
        if values.dtype not in (np.float64, np.complex128):
            raise TypeError(f"cannot adopt a {values.dtype} array; expected float64 or complex128")
        grid = object.__new__(cls)
        object.__setattr__(grid, "plate", plate)
        grid._seal(values)
        return grid

    def _seal(self, v: np.ndarray) -> None:
        if v.shape != self.plate.samples_per_axis:
            raise ValueError(
                f"values shape {v.shape} does not match plate samples "
                f"{self.plate.samples_per_axis}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def with_values(self, values: np.ndarray) -> "SignalGrid":
        return SignalGrid(self.plate, values)


def l2_norm(f: SignalGrid) -> float:
    """Riemann approximation of the continuous L2 norm: sqrt(sum |f|^2 * cell_volume)."""
    mags = np.abs(f.values)
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(mags ** 2)
    if total in (0.0, np.inf) and 0.0 < (peak := np.max(mags)) < np.inf:  # squares out of range
        return float(peak * np.sqrt(np.sum((mags / peak) ** 2) * f.plate.cell_volume))
    return float(np.sqrt(total * f.plate.cell_volume))


def linf_norm(f: SignalGrid) -> float:
    """Largest sample magnitude (discretization of the essential sup)."""
    return float(np.max(np.abs(f.values)))


def translate_in_plate(f: SignalGrid, offsets: tuple[int, ...]) -> SignalGrid:
    """Circular shift of the sample array by whole samples; the plate stays put."""
    offsets = tuple(int(c) for c in offsets)
    if len(offsets) != f.plate.dim:
        raise ValueError(f"expected {f.plate.dim} offsets, got {len(offsets)}")
    for c, n in zip(offsets, f.plate.samples_per_axis):
        if abs(c) >= n:
            raise ValueError(f"offset {c} out of range for axis with {n} samples")
    return f.with_values(np.roll(f.values, offsets, axis=tuple(range(f.plate.dim))))


def translate_with_plate(f: SignalGrid, c: tuple[float, ...]) -> SignalGrid:
    """Move the function together with its plate: T_c keeps values, shifts origin by c.

    c must be a whole number of sample spacings per axis and the moved plate
    must still contain the origin of R^d.
    """
    c = tuple(float(x) for x in c)
    if len(c) != f.plate.dim:
        raise ValueError(f"expected {f.plate.dim} shift components, got {len(c)}")
    for x, h in zip(c, f.plate.spacing):
        k = x / h
        if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"shift component {x} is not a multiple of the spacing {h}")
    moved = Plate(
        tuple(o + x for o, x in zip(f.plate.origin, c)),
        f.plate.side_lengths,
        f.plate.samples_per_axis,
    )
    if not moved.contains_zero():
        raise ValueError(f"translated plate {moved.origin} does not contain 0")
    return SignalGrid(moved, f.values)


def convolve(f: SignalGrid, kernel_hat: np.ndarray, method: str = "fft",
             kernel_parts: np.ndarray | None = None) -> SignalGrid:
    """Circular convolution with a frequency-domain kernel.

    Parameters
    ----------
    f : SignalGrid
        Input signal.
    kernel_hat : ndarray
        DFT of the kernel, same shape as ``f.values``.
    method : str
        "fft" evaluates inverse-FFT(FFT(f) * kernel_hat). "direct" evaluates
        the same circular convolution by explicit spatial summation with a
        shift-covariant term order, so it commutes with circular shifts down
        to the last bit (useful for equivariance certification); see
        :func:`_direct_circular_convolve` for the term order, its memory and
        its cost.
    kernel_parts : ndarray, optional
        For the direct method, the spatial kernel ``ifftn(kernel_hat)`` as
        :func:`direct_kernel_parts` gives it, if the caller already has it (a
        bank keeps its wavelets' in :meth:`FilterBank.psi_kernels`); it is
        made from ``kernel_hat`` otherwise.
    """
    kernel_hat = np.asarray(kernel_hat)
    if kernel_hat.shape != f.shape:
        raise ValueError(f"kernel shape {kernel_hat.shape} does not match signal {f.shape}")
    if method == "fft":
        out = np.fft.ifftn(np.fft.fftn(f.values) * kernel_hat)
    elif method == "direct":
        if kernel_parts is None:
            kernel_parts = direct_kernel_parts(kernel_hat)
        out = _direct_convolve_parts(f.values, kernel_parts)
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    return f.with_values(out)


def direct_kernel_parts(kernel_hat: np.ndarray) -> np.ndarray:
    """The spatial kernel of ``kernel_hat`` as the direct evaluator reads it: :func:`_real_parts`."""
    return _real_parts(np.fft.ifftn(kernel_hat))


def _direct_circular_convolve(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular convolution by gathered rows, in a term order fixed by the tap alone.

    ``out[x, y] = sum_{i,j} kernel[i, j] * values[(x - i) % n0, (y - j) % n1]``;
    a 1-D array is one row (n0 = 1).  Each kernel axis is the values' length
    or 1; a length-1 axis is a delta along it, so a separable kernel runs as
    two calls, one per axis, at n0 + n1 taps per output instead of n0 n1.

    A kernel with a length-1 axis (every 1-D kernel, and each pass of a
    separable one) has taps along one axis only: ``g[t, r, y]``, the values
    shifted by t along that axis, is one strided view of the values doubled
    along it, and ``out = sum_t kernel[t] * g[t]`` is one ``np.einsum``
    multiply-add sweep per tap t, in increasing t.  A full 2-D kernel of k0 x
    k1 taps runs in three stages:

    1. ``rows[j, r, y] = values[r % n0, (y - j) % n1]`` for j < k1 and r < 2 n0,
       the last-axis circulant of the values doubled along r, made contiguous
       with j outermost;
    2. ``part[i, x, y] = sum_j kernel[i, j] * rows[j, n0 + x - i, y]``, one
       ``np.einsum`` multiply-add sweep per tap j, reading ``rows`` through a
       view skewed by i, so that ``part[i, x]`` holds row (x - i) % n0 of the
       filtered rows;
    3. ``out[x, y] = sum_i part[i, x, y]`` for i < k0, one sum over i.

    Each output's terms, and the order they are added in, depend on the tap
    (i, j) alone, never on the output position (x, y).  A circular shift of
    the input shifts ``g``, ``rows`` and ``part`` along (x, y) and changes no
    summand, so the evaluator commutes with circular shifts bit for bit.  The
    one-axis sweep and the skewed read add the same terms in the same order as
    an unskewed stage 2 followed by a skewed sum, so all give the same bits.

    Complex operands go in as stacked real and imaginary parts, combined as
    (ar kr - ai ki) + i (ar ki + ai kr); a zero imaginary part adds exact
    zeros, so real values give the same bits as their complex cast.

    No stage may call BLAS (``@``, ``matmul``, ``dot``, ``tensordot``,
    ``einsum(optimize=...)``): a GEMM rounds edge rows differently from inner
    ones, so equal inputs at different positions get different bits.  Stage
    2 as a matmul broke equivariance on a constant 14-sample signal shifted
    by one.

    Working memory, with m and q the parts of values and kernel (1 real, 2
    complex): a one-axis kernel needs the doubled values (2 m n0 n1 floats)
    and the sums (m q n0 n1); a full kernel needs ``rows`` (2 m n0 n1 k1) and
    ``part`` (m q n0 n1 k0), 1 MB at 32^2 with a full complex kernel, taken
    as one block.  glibc's malloc follows the largest block freed, keeping
    later blocks of up to that size on its heap and returning its top only
    beyond twice that size; ``rows`` and ``part`` taken as two blocks of 512
    KB were returned after every call and faulted in again on the next, 224
    page faults per call and about 40% more time.  Measured at 32^2 on a 2-vCPU
    Xeon (numpy 2.4, one thread), a full complex kernel on real values takes
    0.6-0.9 ms, nearly all of it the stage-2 einsum, and a one-axis pass
    25-55 us.
    """
    return _direct_convolve_parts(values, _real_parts(kernel))


def _direct_convolve_parts(values: np.ndarray, kernel_parts: np.ndarray) -> np.ndarray:
    """:func:`_direct_circular_convolve` of a kernel given as :func:`_real_parts` stacks it."""
    shape = values.shape
    kernel_shape = kernel_parts.shape[1:]
    if len(kernel_shape) != len(shape) or any(k not in (1, n) for k, n in zip(kernel_shape, shape)):
        raise ValueError(f"kernel shape {kernel_shape} does not fit values of shape {shape}: "
                         "each kernel axis must be the values' length or 1")
    pad = (1,) * (2 - len(shape))
    v = _real_parts(values.reshape(pad + shape))
    k = kernel_parts.reshape(kernel_parts.shape[:1] + pad + kernel_shape)
    (m, n0, n1), (q, k0, k1) = v.shape, k.shape
    as_strided = np.lib.stride_tricks.as_strided
    if k0 == 1 or k1 == 1:
        # g[t, a, r, y] = v[a, r, (y - t) % n1] (or v[a, (r - t) % n0, y]), for value part a
        axis = 2 if k0 == 1 else 1
        n = v.shape[axis]
        doubled = np.concatenate((v, v), axis=axis)
        s = doubled.strides
        g = as_strided(doubled[:, :, n:] if axis == 2 else doubled[:, n:],
                       (k0 * k1,) + v.shape, (-s[axis],) + s)
        # sums[a, b, r, y] = sum_t k[b, t] g[t, a, r, y], for kernel part b
        sums = np.einsum("tary,bt->abry", g, k.reshape(q, k0 * k1))
    else:
        # one block holds rows and part (see the docstring's working memory)
        size = k1 * m * 2 * n0 * n1
        work = np.empty(size + m * q * k0 * n0 * n1, np.result_type(v, k))
        # stage 1: rows[j, a, r, y] = v[a, r % n0, (y - j) % n1], for r < 2 n0
        doubled = np.tile(v, (1, 2, 2))
        s = doubled.strides
        rows = work[:size].reshape(k1, m, 2 * n0, n1)
        rows[...] = as_strided(doubled[..., n1:], rows.shape, (-s[-1],) + s)
        # stage 2: part[a, b, i, x, y] = sum_j k[b, i, j] rows[j, a, n0 + x - i, y]
        s = rows.strides
        skewed = as_strided(rows[:, :, n0:], (k0, k1, m, n0, n1), (-s[2],) + s)
        part = work[size:].reshape(m, q, k0, n0, n1)
        np.einsum("ijaxy,bij->abixy", skewed, k, out=part)
        # stage 3: sums[a, b, x, y] = sum_i part[a, b, i, x, y]
        sums = part.sum(axis=2)
    sums = sums.reshape((m, q) + shape)
    if m * q == 1:
        return sums[0, 0]
    out = np.empty(shape, np.complex128)
    if m * q == 4:
        out.real, out.imag = sums[0, 0] - sums[1, 1], sums[0, 1] + sums[1, 0]
    else:
        out.real, out.imag = sums[0, 0], sums[m - 1, q - 1]
    return out


def _real_parts(a: np.ndarray) -> np.ndarray:
    """A real array with one leading axis: (a,) when a is real, (Re a, Im a) when complex."""
    return np.stack((a.real, a.imag)) if np.iscomplexobj(a) else a[None]


def l2_diff_on_common_torus(a: SignalGrid, b: SignalGrid) -> float:
    """L2 norm of a - b for signals on congruent plates that differ by a grid shift.

    Both plates are treated periodically; b is re-aligned to a's coordinates by
    a circular shift of a whole number of cells.
    """
    if a.plate.side_lengths != b.plate.side_lengths or a.shape != b.shape:
        raise ValueError("signals must live on congruent plates")
    shifts = []
    for oa, ob, h in zip(a.plate.origin, b.plate.origin, a.plate.spacing):
        k = (ob - oa) / h
        if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"plate offset {ob - oa} is not a whole number of cells")
        shifts.append(int(round(k)))
    aligned = np.roll(b.values, tuple(shifts), axis=tuple(range(a.plate.dim)))
    return float(np.sqrt(np.sum(np.abs(a.values - aligned) ** 2) * a.plate.cell_volume))


# ---------------------------------------------------------------------------
# Portable file formats
# ---------------------------------------------------------------------------

def write_sgrid(f: SignalGrid, path) -> None:
    """Write the portable SGRID format: ASCII header, then little-endian (re, im) pairs."""
    p = f.plate
    header = " ".join(
        ["SGRID", str(p.dim)]
        + [repr(x) for x in p.origin]
        + [repr(x) for x in p.side_lengths]
        + [str(n) for n in p.samples_per_axis]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(f.values.astype("<c16").tobytes())


def read_sgrid(path) -> SignalGrid:
    with open(path, "rb") as fh:
        # a non-ASCII byte (a binary file, say) cannot spell the magic word
        header = fh.readline().decode("ascii", errors="replace").split()
        if not header or header[0] != "SGRID":
            raise ValueError(f"{path}: not an SGRID file")
        try:
            d = int(header[1])
            fields = header[2:]
            if len(fields) != 3 * d:
                raise ValueError(f"{len(fields)} fields for dimension {d}")
            origin = tuple(float(x) for x in fields[:d])
            sides = tuple(float(x) for x in fields[d:2 * d])
            samples = tuple(int(x) for x in fields[2 * d:3 * d])
            if not all(map(isfinite, origin + sides)):
                raise ValueError("non-finite origin or side length")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed SGRID header") from exc
        plate = _file_plate(path, origin, sides, samples)
        count = 2 * prod(samples)
        buf = np.frombuffer(fh.read(8 * count), dtype="<f8")
        if buf.size != count:
            raise ValueError(f"{path}: truncated SGRID payload")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after SGRID payload")
    return SignalGrid(plate, buf.view("<c16").reshape(samples))


def read_pgm(path) -> SignalGrid:
    """Read a binary grayscale PGM (P5, maxval 255) as a signal on the unit plate."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        if data[i:i + 1].isspace():
            i += 1
        elif data[i:i + 1] == b"#":
            while i < len(data) and data[i] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    plate = _file_plate(path, (0.0, 0.0), (1.0, 1.0), (height, width))
    i += 1  # single whitespace after maxval
    pixels = np.frombuffer(data[i:i + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    if len(data) > i + width * height:
        raise ValueError(f"{path}: trailing bytes after PGM payload")
    values = pixels.reshape(height, width).astype(np.float64) / 255.0
    return SignalGrid(plate, values)


def _file_plate(path, origin, sides, samples) -> Plate:
    """The plate a file's header declares; one no plate can have fails naming the file."""
    try:
        return Plate(origin, sides, samples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
