"""Plate/signal primitives: norms, translations, circular convolution, file formats."""

import hashlib
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scatmaxp.grid import (
    Plate,
    SignalGrid,
    _direct_circular_convolve,
    convolve,
    l2_diff_on_common_torus,
    l2_norm,
    linf_norm,
    read_pgm,
    read_sgrid,
    translate_in_plate,
    translate_with_plate,
    unit_plate,
    write_sgrid,
)


def brute_force_circular_convolve(values, kernel_spatial):
    """Independent O(n^2) oracle: nested loops straight from the definition."""
    out = np.zeros_like(values)
    if values.ndim == 1:
        n = values.shape[0]
        for x in range(n):
            acc = 0.0 + 0.0j
            for y in range(n):
                acc += values[y] * kernel_spatial[(x - y) % n]
            out[x] = acc
        return out
    n0, n1 = values.shape
    for x0 in range(n0):
        for x1 in range(n1):
            acc = 0.0 + 0.0j
            for y0 in range(n0):
                for y1 in range(n1):
                    acc += values[y0, y1] * kernel_spatial[(x0 - y0) % n0, (x1 - y1) % n1]
            out[x0, x1] = acc
    return out


KINDS = ("real", "complex")


def direct_case(shape, shifts, constant=False, kernel_shape=None):
    """One evaluator case; ``kernel_shape`` keeps some axes at 1 (a delta along them)."""
    case_id = f"{shape}-{shifts}-{constant}" + (f"-kernel{kernel_shape}" if kernel_shape else "")
    return pytest.param(shape, shifts, constant, kernel_shape or shape, id=case_id)


# (shape, shifts, constant values, kernel shape) for the direct evaluator: 1-D,
# odd and non-square 2-D, 1-sample axes, and kernels with length-1 axes (the
# two passes of a separable kernel).  The constant 14-sample row shifted by one
# is where a BLAS product in the evaluator broke equivariance.
DIRECT_CASES = [
    direct_case((14,), [(1,)], True),
    direct_case((1,), [(0,)]),
    direct_case((7,), [(3,), (6,)]),
    direct_case((16,), [(1,), (9,)]),
    direct_case((1, 1), [(0, 0)]),
    direct_case((1, 9), [(0, 4)]),
    direct_case((6, 1), [(5, 0)]),
    direct_case((4, 12), [(1, 11), (3, 5)]),
    direct_case((5, 7), [(2, 3), (4, 6)]),
    direct_case((8, 8), [(1, 0), (7, 3)]),
    direct_case((16, 16), [(1, 0), (7, 3), (15, 15)]),
    direct_case((14,), [(1,)], True, (1,)),
    direct_case((14, 14), [(1, 0), (0, 1)], True, (14, 1)),
    direct_case((5, 7), [(2, 3), (4, 6)], False, (5, 1)),
    direct_case((5, 7), [(2, 3), (4, 6)], False, (1, 7)),
    direct_case((16, 48), [(5, 11), (15, 47)], False, (16, 1)),
    direct_case((16, 48), [(5, 11), (15, 47)], False, (1, 48)),
    direct_case((6, 1), [(5, 0)], False, (1, 1)),
]
# (complex values, complex kernel): all four pairings
DIRECT_PAIRINGS = [pytest.param((v, k), id=f"{KINDS[v]}-values-{KINDS[k]}-kernel")
                   for v in (False, True) for k in (False, True)]


# The first 16 hex digits of a sha256 over the outputs of each DIRECT_CASES case
# (key: shape, kernel shape, constant values), in DIRECT_PAIRINGS order, as the
# three-stage evaluator gave them with numpy 2.4 on x86-64 (whose einsum does not
# fuse multiply-adds).  Any later evaluator must give the same bits.
DIRECT_DIGESTS = {
    ((14,), (14,), True): "201d8ee3469873f6",
    ((1,), (1,), False): "c25913e58e9c91d6",
    ((7,), (7,), False): "c9c93be36befbdfb",
    ((16,), (16,), False): "4ee3fd988827ffd4",
    ((1, 1), (1, 1), False): "c25913e58e9c91d6",
    ((1, 9), (1, 9), False): "cfdd1f990a6c955e",
    ((6, 1), (6, 1), False): "17f09fce1ccb94a6",
    ((4, 12), (4, 12), False): "f734892e11702c54",
    ((5, 7), (5, 7), False): "2396747fb2b9e3f1",
    ((8, 8), (8, 8), False): "f213f543d8e3325c",
    ((16, 16), (16, 16), False): "2d0b81375799022f",
    ((14,), (1,), True): "369d88dab448273f",
    ((14, 14), (14, 1), True): "f59cfbcd1b3bc165",
    ((5, 7), (5, 1), False): "416f227a2f41df79",
    ((5, 7), (1, 7), False): "cee1500e7994f86a",
    ((16, 48), (16, 1), False): "fc85a38ba5662f97",
    ((16, 48), (1, 48), False): "f4c15091da50464c",
    ((6, 1), (1, 1), False): "f1aa9d75eec9b3aa",
}


def direct_operands(shape, constant, pairing, kernel_shape, seed=10):
    """Values, a spatial kernel of ``kernel_shape`` and its zero-padded full-size form."""
    rng = np.random.default_rng(seed)
    complex_values, complex_kernel = pairing

    def draw(shape, is_complex):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if is_complex else a

    values = draw(shape, complex_values)
    if constant:
        values = np.full(shape, 0.046875, values.dtype)
    kernel = draw(kernel_shape, complex_kernel)
    full = np.zeros(shape, kernel.dtype)
    full[tuple(slice(0, k) for k in kernel_shape)] = kernel
    return values, kernel, full


class TestPlate:
    def test_cell_volume_and_spacing(self):
        plate = Plate((0.0, -1.0), (2.0, 4.0), (4, 8))
        assert plate.spacing == (0.5, 0.5)
        assert plate.cell_volume == 0.25
        assert plate.volume == 8.0

    def test_contains_zero_is_inclusive(self):
        assert Plate((0.0,), (1.0,), (4,)).contains_zero()
        assert Plate((-0.5,), (1.0,), (4,)).contains_zero()
        assert not Plate((0.25,), (1.0,), (4,)).contains_zero()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Plate((0.0,), (-1.0,), (4,))
        with pytest.raises(ValueError):
            Plate((0.0,), (1.0,), (0,))
        with pytest.raises(ValueError):
            Plate((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))

    @pytest.mark.parametrize("origin, sides, samples, message", [
        ((0.0, 0.0), (1.0,), (4, 4), "must share one dimension"),
        ((np.nan,), (1.0,), (4,), "must be finite"),
        ((0.0, -np.inf), (1.0, 1.0), (4, 4), "must be finite"),
        ((0.0,), (np.inf,), (4,), "must be finite"),
        ((0.0,), (np.nan,), (4,), "must be finite"),
    ])
    def test_invalid_geometry_is_named(self, origin, sides, samples, message):
        with pytest.raises(ValueError, match=message):
            Plate(origin, sides, samples)

    def test_every_plate_round_trips_through_sgrid(self, tmp_path):
        # a plate that write_sgrid can be handed has a header read_sgrid accepts
        with pytest.raises(ValueError, match="must be finite"):
            SignalGrid(Plate((np.nan,), (1.0,), (4,)), np.zeros(4))
        f = SignalGrid(Plate((-1e300,), (1e-300,), (4,)), np.arange(4.0))
        write_sgrid(f, tmp_path / "edge.sgrid")
        g = read_sgrid(tmp_path / "edge.sgrid")
        assert g.plate == f.plate and np.array_equal(g.values.real, f.values)

    def test_unit_plate_takes_an_int_for_one_axis(self):
        assert unit_plate(8) == Plate((0.0,), (1.0,), (8,))
        assert unit_plate(8, centered=True) == Plate((-0.5,), (1.0,), (8,))

    def test_signal_shape_must_match(self):
        with pytest.raises(ValueError):
            SignalGrid(unit_plate((4, 4)), np.zeros((4, 2)))

    def test_signal_values_are_immutable(self):
        f = SignalGrid(unit_plate((4,)), np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestSignalStorage:
    @pytest.mark.parametrize("values", [
        np.arange(4, dtype=np.uint8),
        np.array([True, False, True, True]),
        np.arange(4),
        np.arange(4, dtype=np.float32),
        np.arange(4, dtype=np.float64),
        [0, 1, 2, 3],
    ])
    def test_real_input_is_stored_as_float64(self, values):
        f = SignalGrid(unit_plate((4,)), values)
        assert f.values.dtype == np.float64
        assert np.array_equal(f.values, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("values", [
        np.arange(4) + 1j * np.arange(4),
        (np.arange(4) + 1j).astype(np.complex64),
        np.arange(4, dtype=np.complex128),  # imaginary part all zeros
    ])
    def test_complex_input_stays_complex128(self, values):
        f = SignalGrid(unit_plate((4,)), values)
        assert f.values.dtype == np.complex128
        assert np.array_equal(f.values, values)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.uint8])
    def test_values_are_a_read_only_copy(self, dtype):
        source = np.arange(4).astype(dtype)
        f = SignalGrid(unit_plate((4,)), source)
        g = SignalGrid(unit_plate((4,)), np.ones(4)).with_values(source)
        for h in (f, g):
            assert not np.shares_memory(h.values, source)
            assert not h.values.flags.writeable
        source[0] = 9
        assert f.values[0] == 0 and g.values[0] == 0
        assert source.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_adopting_takes_the_array_itself_and_seals_it(self, dtype):
        source = np.arange(6).astype(dtype).reshape(2, 3)
        f = SignalGrid._adopt(unit_plate((2, 3)), source)
        assert f.values is source
        assert not source.flags.writeable
        assert f.shape == (2, 3) and f.plate == unit_plate((2, 3))

    def test_adopting_checks_shape_and_dtype(self):
        with pytest.raises(ValueError, match="does not match plate samples"):
            SignalGrid._adopt(unit_plate((4, 4)), np.zeros((4, 2)))
        with pytest.raises(TypeError, match="float32"):
            SignalGrid._adopt(unit_plate((4,)), np.zeros(4, np.float32))

    def test_direct_convolution_of_real_values_equals_their_complex_cast(self):
        rng = np.random.default_rng(12)
        for shape in [(16,), (8, 8), (5, 12)]:
            values = rng.random(shape)
            kernel_hat = rng.random(shape) + 1j * rng.random(shape)
            real = convolve(SignalGrid(unit_plate(shape), values), kernel_hat, method="direct")
            cast = convolve(SignalGrid(unit_plate(shape), values.astype(np.complex128)),
                            kernel_hat, method="direct")
            assert np.array_equal(real.values, cast.values)


class TestNorms:
    def test_zero_signal(self):
        f = SignalGrid(unit_plate((8, 8)), np.zeros((8, 8)))
        assert l2_norm(f) == 0.0
        assert linf_norm(f) == 0.0

    def test_constant_on_unit_plate_is_exact(self):
        f = SignalGrid(unit_plate((4, 4)), np.ones((4, 4)))
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-15)

    def test_hand_riemann_sum(self):
        # values [3, 4] on a length-2 plate, 2 samples: sqrt((9 + 16) * 1) = 5
        f = SignalGrid(Plate((0.0,), (2.0,), (2,)), np.array([3.0, 4.0]))
        assert l2_norm(f) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("level", [1e-200, 1e200])
    def test_l2_beyond_the_range_of_the_squares(self, level):
        # the squares underflow to 0 or overflow to inf; the norm does not
        f = SignalGrid(unit_plate((4,)), np.full(4, level))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm(f) == level

    def test_linf_takes_magnitudes(self):
        f = SignalGrid(unit_plate((2,)), np.array([3.0, -4.0]))
        assert linf_norm(f) == 4.0
        g = SignalGrid(unit_plate((3,)), np.full(3, -2.5))
        assert linf_norm(g) == 2.5


class TestTranslateInPlate:
    def test_zero_offset_is_identity(self):
        f = SignalGrid(unit_plate((4,)), np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(translate_in_plate(f, (0,)).values, f.values)

    def test_circular_shift_example(self):
        f = SignalGrid(unit_plate((4,)), np.array([1.0, 2.0, 3.0, 4.0]))
        shifted = translate_in_plate(f, (1,))
        assert np.array_equal(shifted.values.real, [4.0, 1.0, 2.0, 3.0])
        assert shifted.plate == f.plate

    def test_inverse_shift_roundtrips(self):
        rng = np.random.default_rng(3)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)))
        back = translate_in_plate(translate_in_plate(f, (3, -2)), (-3, 2))
        assert np.array_equal(back.values, f.values)

    def test_is_l2_isometry(self):
        rng = np.random.default_rng(4)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)))
        for c in [(1, 0), (0, 7), (5, 3), (-4, -1)]:
            assert l2_norm(translate_in_plate(f, c)) == pytest.approx(l2_norm(f), rel=1e-15)

    def test_out_of_range_offset_rejected(self):
        f = SignalGrid(unit_plate((4,)), np.ones(4))
        with pytest.raises(ValueError):
            translate_in_plate(f, (4,))

    def test_offset_count_must_match_the_dimension(self):
        f = SignalGrid(unit_plate((4, 4)), np.ones((4, 4)))
        with pytest.raises(ValueError, match="expected 2 offsets, got 1"):
            translate_in_plate(f, (1,))


class TestTranslateWithPlate:
    def test_zero_shift(self):
        f = SignalGrid(unit_plate((4, 4), centered=True), np.ones((4, 4)))
        g = translate_with_plate(f, (0.0, 0.0))
        assert g.plate == f.plate
        assert np.array_equal(g.values, f.values)

    def test_metadata_only_move(self):
        plate = Plate((-1.0, -1.0), (2.0, 2.0), (8, 8))
        rng = np.random.default_rng(5)
        f = SignalGrid(plate, rng.random((8, 8)))
        g = translate_with_plate(f, (0.5, 0.0))
        assert g.plate.origin == (-0.5, -1.0)
        assert g.plate.side_lengths == plate.side_lengths
        assert np.array_equal(g.values, f.values)
        assert l2_norm(g) == l2_norm(f)

    def test_unaligned_shift_rejected(self):
        f = SignalGrid(unit_plate((4,), centered=True), np.ones(4))
        with pytest.raises(ValueError, match="spacing"):
            translate_with_plate(f, (0.3,))

    def test_zero_must_stay_inside(self):
        f = SignalGrid(unit_plate((4,), centered=True), np.ones(4))
        with pytest.raises(ValueError, match="contain 0"):
            translate_with_plate(f, (0.75,))

    def test_component_count_must_match_the_dimension(self):
        f = SignalGrid(unit_plate((4, 4), centered=True), np.ones((4, 4)))
        with pytest.raises(ValueError, match="expected 2 shift components, got 3"):
            translate_with_plate(f, (0.0, 0.0, 0.0))


class TestConvolve:
    def test_dirac_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)))
        out = convolve(f, np.ones((8, 8)))
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_linear_phase_shifts(self):
        rng = np.random.default_rng(7)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)))
        k = (2, 5)
        w0, w1 = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(8)] * 2, indexing="ij")
        kernel_hat = np.exp(-1j * (w0 * k[0] + w1 * k[1]))
        out = convolve(f, kernel_hat)
        np.testing.assert_allclose(out.values, np.roll(f.values, k, (0, 1)), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)) + 1j * rng.random((8, 8)))
        kernel_hat = rng.random((8, 8)) + 1j * rng.random((8, 8))
        expected = brute_force_circular_convolve(f.values, np.fft.ifftn(kernel_hat))
        out = convolve(f, kernel_hat)
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        f = rng.random((8, 8)) + 1j * rng.random((8, 8))
        g = rng.random((8, 8))
        kernel_hat = rng.random((8, 8)) + 1j * rng.random((8, 8))
        plate = unit_plate((8, 8))
        lhs = convolve(SignalGrid(plate, 2.0 * f - 3.0 * g), kernel_hat).values
        rhs = (
            2.0 * convolve(SignalGrid(plate, f), kernel_hat).values
            - 3.0 * convolve(SignalGrid(plate, g), kernel_hat).values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        f = SignalGrid(unit_plate((8, 8)), np.ones((8, 8)))
        with pytest.raises(ValueError):
            convolve(f, np.ones((4, 4)))

    @pytest.mark.parametrize("pairing", DIRECT_PAIRINGS)
    @pytest.mark.parametrize("shape, shifts, constant, kernel_shape", DIRECT_CASES)
    def test_direct_method_agrees_with_fft(self, shape, shifts, constant, kernel_shape, pairing):
        values, kernel, full = direct_operands(shape, constant, pairing, kernel_shape)
        direct = _direct_circular_convolve(values, kernel)
        assert direct.dtype == np.result_type(values, kernel) and direct.shape == shape
        fft = np.fft.ifftn(np.fft.fftn(values) * np.fft.fftn(full))
        oracle = brute_force_circular_convolve(values.astype(np.complex128), full)
        bound = 1e-12 * np.max(np.abs(oracle))
        for expected in (oracle, fft):
            assert np.max(np.abs(direct - expected)) <= bound
        if pairing[1]:
            # the public wiring: convolve makes the spatial kernel from its DFT
            f = SignalGrid(unit_plate(shape), values)
            kernel_hat = np.fft.fftn(full)
            public = convolve(f, kernel_hat, method="direct").values
            assert np.max(np.abs(public - convolve(f, kernel_hat, method="fft").values)) <= bound

    @pytest.mark.parametrize("pairing", DIRECT_PAIRINGS)
    @pytest.mark.parametrize("shape, shifts, constant, kernel_shape", DIRECT_CASES)
    def test_direct_method_is_bit_exactly_equivariant(self, shape, shifts, constant,
                                                      kernel_shape, pairing):
        values, kernel, _ = direct_operands(shape, constant, pairing, kernel_shape)
        out = _direct_circular_convolve(values, kernel)
        axes = tuple(range(len(shape)))
        for c in shifts:
            shifted = _direct_circular_convolve(np.roll(values, c, axes), kernel)
            assert np.array_equal(shifted, np.roll(out, c, axes)), c

    @pytest.mark.parametrize("shape, kernel_shape", [((8, 8), (4, 8)), ((8, 8), (8,)),
                                                      ((8,), (4,)), ((8,), (8, 1))])
    def test_direct_method_refuses_a_kernel_shape_by_name(self, shape, kernel_shape):
        message = f"kernel shape {kernel_shape} does not fit values of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _direct_circular_convolve(np.ones(shape), np.ones(kernel_shape))

    @pytest.mark.parametrize("shape, shifts, constant, kernel_shape", DIRECT_CASES)
    def test_direct_method_keeps_its_recorded_bits(self, shape, shifts, constant, kernel_shape):
        digest = hashlib.sha256()
        for pairing in itertools.product((False, True), repeat=2):
            values, kernel, _ = direct_operands(shape, constant, pairing, kernel_shape)
            out = _direct_circular_convolve(values, kernel)
            digest.update(out.dtype.str.encode() + out.tobytes())
        assert digest.hexdigest()[:16] == DIRECT_DIGESTS[shape, kernel_shape, constant]

    def test_unknown_method_rejected(self):
        f = SignalGrid(unit_plate((4,)), np.ones(4))
        with pytest.raises(ValueError):
            convolve(f, np.ones(4), method="sorcery")


class TestParsevalConsistency:
    def test_random_signals(self):
        rng = np.random.default_rng(12)
        for shape in [(32,), (16, 16), (8, 24)]:
            f = SignalGrid(unit_plate(shape), rng.random(shape) + 1j * rng.random(shape))
            spectral = f.plate.cell_volume * np.sum(np.abs(np.fft.fftn(f.values)) ** 2) / f.values.size
            assert l2_norm(f) ** 2 == pytest.approx(spectral, rel=1e-10)


class TestCommonTorusDifference:
    def test_aligned_shifted_plates(self):
        rng = np.random.default_rng(13)
        f = SignalGrid(unit_plate((16,), centered=True), rng.random(16))
        g = translate_with_plate(f, (0.25,))  # 4 cells
        d = l2_diff_on_common_torus(f, g)
        manual = np.sqrt(np.sum(np.abs(f.values - np.roll(f.values, 4)) ** 2) / 16)
        assert d == pytest.approx(manual, rel=1e-12)
        assert l2_diff_on_common_torus(f, f) == 0.0

    def test_incongruent_plates_rejected(self):
        f = SignalGrid(unit_plate((16,)), np.ones(16))
        g = SignalGrid(Plate((0.0,), (2.0,), (16,)), np.ones(16))
        with pytest.raises(ValueError):
            l2_diff_on_common_torus(f, g)

    def test_offset_between_cells_rejected(self):
        f = SignalGrid(unit_plate((16,)), np.ones(16))
        g = SignalGrid(Plate((0.01,), (1.0,), (16,)), np.ones(16))
        with pytest.raises(ValueError, match="plate offset 0.01 is not a whole number of cells"):
            l2_diff_on_common_torus(f, g)


class TestFileFormats:
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), d=st.integers(1, 2))
    def test_sgrid_roundtrip_is_bit_exact(self, tmp_path, data, d):
        samples = data.draw(st.tuples(*[st.integers(1, 9)] * d), label="samples")
        origin = data.draw(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * d),
                           label="origin")
        sides = data.draw(st.tuples(*[st.floats(min_value=0.0, exclude_min=True,
                                                allow_infinity=False)] * d), label="sides")
        values = data.draw(arrays(np.complex128, samples,
                                  elements=st.complex_numbers(allow_nan=False)), label="values")
        f = SignalGrid(Plate(origin, sides, samples), values)
        target = tmp_path / "sig.sgrid"
        write_sgrid(f, target)
        g = read_sgrid(target)
        assert g.plate == f.plate
        assert np.array_equal(g.values, f.values)
        assert g.values.tobytes() == f.values.tobytes()  # signed zeros too

    def test_sgrid_payload_is_little_endian_re_im_pairs(self, tmp_path):
        # real values are written with a +0.0 imaginary part; signed zeros survive
        for values in (np.array([[1.5, -0.0], [2.0, 3.0]]),
                       np.array([[1.5 - 0.0j, -2.0 + 0.5j], [0.0 - 1.0j, 3.0]])):
            target = tmp_path / "sig.sgrid"
            write_sgrid(SignalGrid(unit_plate((2, 2)), values), target)
            header, payload = target.read_bytes().split(b"\n", 1)
            assert header == b"SGRID 2 0.0 0.0 1.0 1.0 2 2"
            pairs = np.stack([values.real, np.imag(values)], axis=-1)
            assert payload == pairs.astype("<f8").tobytes()

    def test_sgrid_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.sgrid"
        bad.write_bytes(b"SOUP 2 0 0 1 1 4 4\n")
        with pytest.raises(ValueError, match="not an SGRID"):
            read_sgrid(bad)
        # a binary file, here a PNG signature, fails with the same named error
        binary = tmp_path / "picture.sgrid"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(256)))
        with pytest.raises(ValueError, match="picture.sgrid: not an SGRID file"):
            read_sgrid(binary)
        truncated = tmp_path / "short.sgrid"
        truncated.write_bytes(b"SGRID 1 0.0 1.0 4\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            read_sgrid(truncated)
        # the header says 4 samples, the payload holds 8
        longer = tmp_path / "long.sgrid"
        longer.write_bytes(b"SGRID 1 0.0 1.0 4\n" + b"\x00" * 16 * 8)
        with pytest.raises(ValueError, match="trailing bytes after SGRID payload"):
            read_sgrid(longer)
        extra = tmp_path / "extra.sgrid"
        extra.write_bytes(b"SGRID 1 0.0 1.0 4 7\n" + b"\x00" * 16 * 4)
        with pytest.raises(ValueError, match="malformed SGRID header"):
            read_sgrid(extra)

    @pytest.mark.parametrize("header, message", [
        (b"SGRID 3 0 0 0 1 1 1 2 2 2", "plate dimension must be 1 or 2, got 3"),
        (b"SGRID 1 0.0 1.0 -4", "samples_per_axis must be >= 1, got (-4,)"),
        (b"SGRID 1 0.0 0.0 8", "side_lengths must be positive, got (0.0,)"),
        (b"SGRID 1 0.0 nan 8", "malformed SGRID header"),
        (b"SGRID 1 inf 1.0 8", "malformed SGRID header"),
    ])
    def test_sgrid_rejects_impossible_plates_naming_the_file(self, tmp_path, header, message):
        bad = tmp_path / "bad.sgrid"
        bad.write_bytes(header + b"\n" + b"\x00" * 16 * 8)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            read_sgrid(bad)

    @pytest.mark.parametrize("header, message", [
        (b"P5\n0 0\n255\n", "samples_per_axis must be >= 1, got (0, 0)"),
        (b"P5\n-2 -2\n255\n", "samples_per_axis must be >= 1, got (-2, -2)"),
    ])
    def test_pgm_rejects_empty_and_negative_sizes_naming_the_file(self, tmp_path, header, message):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            read_pgm(bad)

    def test_pgm_ingestion(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        target = tmp_path / "img.pgm"
        target.write_bytes(b"P5\n# a comment\n4 3\n255\n" + pixels.tobytes())
        f = read_pgm(target)
        assert f.plate == Plate((0.0, 0.0), (1.0, 1.0), (3, 4))
        np.testing.assert_allclose(f.values.real, pixels / 255.0)
        assert f.values.dtype == np.float64
        assert np.all(f.values.imag == 0)

    def test_pgm_rejects_wrong_maxval_and_magic(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(bad)
        bad.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(bad)

    def test_pgm_rejects_trailing_bytes(self, tmp_path):
        longer = tmp_path / "long.pgm"
        longer.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ValueError, match="trailing bytes after PGM payload"):
            read_pgm(longer)

    def test_pgm_rejects_a_truncated_payload(self, tmp_path):
        shorter = tmp_path / "short.pgm"
        shorter.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 3)
        with pytest.raises(ValueError, match=re.escape(f"{shorter}: truncated PGM payload")):
            read_pgm(shorter)

    @pytest.mark.parametrize("header", [b"P5\nwide 2\n255\n", b"P5\n2 2.5\n255\n",
                                        b"P5\n2 2\n0xff\n"])
    def test_pgm_rejects_non_numeric_header_fields(self, tmp_path, header):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ValueError, match="malformed PGM header"):
            read_pgm(bad)
