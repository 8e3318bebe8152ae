"""Admissibility thresholds and the max-pooling operator."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scatmaxp.grid import Plate, SignalGrid, l2_norm, linf_norm, translate_with_plate, unit_plate
from scatmaxp.pooling import (
    AdmissibilityError,
    AdmissibilityWarning,
    max_pool,
    min_admissible_factor,
)
from scatmaxp.scattering import strided_block_max


def nested_loop_block_max(values, blocks_per_axis, out_samples):
    """Independent oracle: per-block maxima of |values|, replicated per output cell."""
    mags = np.abs(values)
    if mags.ndim == 1:
        (b,) = blocks_per_axis
        (n_out,) = out_samples
        spb = mags.shape[0] // b
        rep = n_out // b
        out = np.zeros(n_out)
        for i in range(b):
            block = mags[i * spb:(i + 1) * spb]
            best = block[0]
            for v in block[1:]:
                if v > best:
                    best = v
            out[i * rep:(i + 1) * rep] = best
        return out
    b0, b1 = blocks_per_axis
    n0, n1 = out_samples
    spb0 = mags.shape[0] // b0
    spb1 = mags.shape[1] // b1
    rep0, rep1 = n0 // b0, n1 // b1
    out = np.zeros((n0, n1))
    for i0 in range(b0):
        for i1 in range(b1):
            best = mags[i0 * spb0, i1 * spb1]
            for y0 in range(i0 * spb0, (i0 + 1) * spb0):
                for y1 in range(i1 * spb1, (i1 + 1) * spb1):
                    if mags[y0, y1] > best:
                        best = mags[y0, y1]
            out[i0 * rep0:(i0 + 1) * rep0, i1 * rep1:(i1 + 1) * rep1] = best
    return out


@st.composite
def pooling_set_ups(draw, one_cell_per_sub_plate=False):
    """A 1-D or 2-D signal on the centered unit plate, its sub-plate size and a pooling factor S.

    Every sub-plate holds S * m samples per axis, so its image covers m whole
    output cells per axis; ``one_cell_per_sub_plate`` fixes m = 1.
    """
    d = draw(st.integers(1, 2), label="d")
    S = draw(st.integers(1, 4), label="S")
    blocks = draw(st.tuples(*[st.integers(1, 4)] * d), label="blocks")
    cells = (1,) * d if one_cell_per_sub_plate else draw(st.tuples(*[st.integers(1, 3)] * d),
                                                         label="cells")
    shape = tuple(b * S * m for b, m in zip(blocks, cells))
    values = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)), label="values")
    offset = draw(st.floats(0.0, 2.0), label="offset")
    f = SignalGrid(unit_plate(shape, centered=True), values + offset)
    assume(l2_norm(f) > 0.0)  # the zero signal has no admissibility threshold
    return f, tuple(S * m for m in cells), float(S)


def complex_set_up():
    """A fixed complex signal whose 4x4-sample sub-plates each cover 2x2 output cells at S = 2."""
    rng = np.random.default_rng(1)
    plate = unit_plate((12, 8), centered=True)
    values = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    return SignalGrid(plate, values), (4, 4), 2.0


class TestAdmissibilityThreshold:
    def test_constant_signal(self):
        f = SignalGrid(unit_plate((8, 8)), np.ones((8, 8)))
        assert min_admissible_factor(f) == pytest.approx(1.0, rel=1e-12)

    def test_half_indicator_1d(self):
        # |D| = 1, ||f||_inf = 1, ||f||_2^2 = 1/2 -> threshold 1 * 1 / (1/2) = 2
        values = np.zeros(16)
        values[:8] = 1.0
        f = SignalGrid(unit_plate((16,)), values)
        assert min_admissible_factor(f) == pytest.approx(2.0, rel=1e-12)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(0)
        f = SignalGrid(unit_plate((8, 8)), rng.random((8, 8)))
        scaled = f.with_values(7.25 * f.values)
        assert min_admissible_factor(scaled) == pytest.approx(
            min_admissible_factor(f), rel=1e-12
        )

    def test_zero_signal_rejected(self):
        f = SignalGrid(unit_plate((4,)), np.zeros(4))
        with pytest.raises(ValueError, match="zero"):
            min_admissible_factor(f)

    @pytest.mark.parametrize("level", [1e-200, 1e200])
    def test_constant_signal_beyond_the_range_of_its_squares(self, level):
        # the sum of squares underflows to 0 or overflows to inf; the threshold is scale-free
        f = SignalGrid(unit_plate((4,)), np.full(4, level))
        assert min_admissible_factor(f) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", AdmissibilityWarning)
            pooled = max_pool(f, 2, 2.0, "warn")
        assert np.array_equal(pooled.values, np.full(2, level))


class TestMaxPool:
    def test_block_pattern_example(self):
        values = np.kron(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((2, 2)))
        f = SignalGrid(unit_plate((4, 4)), values)
        pooled = max_pool(f, 2, 2.0, "off")
        assert np.array_equal(pooled.values.real, [[1.0, 2.0], [3.0, 4.0]])
        assert pooled.plate == Plate((0.0, 0.0), (0.5, 0.5), (2, 2))

    def test_constant_pools_to_constant_on_half_plate(self):
        f = SignalGrid(unit_plate((8, 8)), np.full((8, 8), 0.75))
        pooled = max_pool(f, 2, 2.0, "off")
        assert np.all(pooled.values == 0.75)
        assert pooled.plate.side_lengths == (0.5, 0.5)

    @settings(max_examples=150, deadline=None, database=None)
    @given(set_up=pooling_set_ups())
    @example(set_up=complex_set_up())
    def test_matches_nested_loop_oracle_bit_exactly(self, set_up):
        f, sizes, S = set_up
        pooled = max_pool(f, sizes, S, "off")
        blocks = tuple(n // k for n, k in zip(f.shape, sizes))
        oracle = nested_loop_block_max(f.values, blocks, pooled.shape)
        assert pooled.values.dtype == np.float64
        assert np.array_equal(pooled.values, oracle)

    def test_nan_propagates_to_every_cell_of_its_sub_plate(self):
        values = np.random.default_rng(6).random((8, 12))
        values[1, 2] = values[6, 11] = np.nan  # neither is the first sample of its block
        f = SignalGrid(unit_plate((8, 12)), values)
        pooled = max_pool(f, 4, 2.0, "off")  # 2x3 sub-plates, 2x2 output cells each
        expected = nested_loop_block_max(np.nan_to_num(values, nan=0.0), (2, 3), pooled.shape)
        has_nan = nested_loop_block_max(np.isnan(values) * 1.0, (2, 3), pooled.shape) == 1.0
        assert has_nan.sum() == 8
        expected[has_nan] = np.nan
        assert np.array_equal(pooled.values, expected, equal_nan=True)

    @pytest.mark.parametrize("shape", [(64, 64), (65, 62), (64,), (65,)])
    @pytest.mark.parametrize("block", [2, 3, 4])
    def test_strided_block_max_matches_the_oracle_on_the_kept_samples(self, shape, block):
        values = np.random.default_rng(7).standard_normal(shape)
        pooled = strided_block_max(SignalGrid(unit_plate(shape), values), block)
        n_out = tuple(n // block for n in shape)
        kept = values[tuple(slice(0, n * block) for n in n_out)]
        assert np.array_equal(pooled.values, nested_loop_block_max(kept, n_out, n_out))

    def test_output_is_piecewise_constant_per_sub_plate(self):
        rng = np.random.default_rng(2)
        f = SignalGrid(unit_plate((16,)), rng.random(16))
        pooled = max_pool(f, 4, 2.0, "off")
        assert pooled.shape == (8,)
        reshaped = pooled.values.reshape(4, 2)
        assert np.all(reshaped[:, :1] == reshaped)

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(3)
        f = rng.random((8, 8))
        g = f + rng.random((8, 8))
        plate = unit_plate((8, 8))
        pf = max_pool(SignalGrid(plate, f), 2, 2.0, "off")
        pg = max_pool(SignalGrid(plate, g), 2, 2.0, "off")
        assert np.all(pf.values.real <= pg.values.real)

    def test_standard_pooling_contracts_l2(self):
        # one output sample per 2x2-sample block: max^2 <= sum of squares per block
        rng = np.random.default_rng(4)
        plate = unit_plate((16, 16))
        for _ in range(500):
            f = SignalGrid(plate, rng.random((16, 16)))
            pooled = max_pool(f, 2, 2.0, "off")
            assert l2_norm(pooled) <= l2_norm(f) * (1 + 1e-12)

    def test_pool_commutes_with_plate_translation(self):
        # 8x8 signal, 4x4-sample sub-plates, S = 2, c = one sub-plate width: bit-exact equality
        rng = np.random.default_rng(5)
        f = SignalGrid(unit_plate((8, 8), centered=True), rng.random((8, 8)))
        c = (0.5, 0.0)
        moved = translate_with_plate(f, c)
        lhs = max_pool(moved, 4, 2.0, "off")
        pooled = max_pool(f, 4, 2.0, "off")
        rhs = translate_with_plate(pooled, (0.25, 0.0))
        assert lhs.plate == rhs.plate
        assert np.array_equal(lhs.values, rhs.values)

    def test_strict_mode_rejects_inadmissible_factor(self):
        values = np.zeros((8, 8))
        values[0, 0] = 1.0  # spike: threshold (1 * 1^2 / (1/64))^(1/2) = 8 > 2
        f = SignalGrid(unit_plate((8, 8)), values)
        with pytest.raises(AdmissibilityError, match="threshold"):
            max_pool(f, 4, 2.0, "strict")  # 4-sample blocks: 2 output cells per axis
        # 2-sample blocks with S = 2 map each sub-plate to one cell: no check, no raise
        pooled = max_pool(f, 2, 2.0, "strict")
        assert l2_norm(pooled) <= l2_norm(f)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            max_pool(f, 4, 2.0, "warn")
        assert any(issubclass(w.category, AdmissibilityWarning) for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            max_pool(f, 4, 2.0, "off")  # no warning raised

    def test_zero_signal_pools_without_admissibility_check(self):
        f = SignalGrid(unit_plate((8, 8)), np.zeros((8, 8)))
        pooled = max_pool(f, 2, 2.0, "strict")
        assert np.all(pooled.values == 0)

    def test_geometry_validation(self):
        f = SignalGrid(unit_plate((8, 8)), np.ones((8, 8)))
        with pytest.raises(ValueError, match="expected 2 sub-plate sizes, got 1"):
            max_pool(f, (2,), 2.0, "off")
        with pytest.raises(ValueError, match="sub-plate sizes must be >= 1"):
            max_pool(f, (2, 0), 2.0, "off")
        with pytest.raises(ValueError, match=">= 1"):
            max_pool(f, 2, 0.5, "off")
        with pytest.raises(ValueError, match="evenly"):
            max_pool(f, 2, 3.0, "off")
        with pytest.raises(ValueError, match="whole cells"):
            max_pool(f, 1, 4.0, "off")
        with pytest.raises(ValueError, match="unknown admissibility mode 'loud'"):
            max_pool(f, 2, 2.0, "loud")

    def test_indivisible_split_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            max_pool(SignalGrid(unit_plate((6,)), np.ones(6)), 4, 1.0, "off")


class TestMaxPoolProperties:
    """max_pool over random 1-D and 2-D shapes, sub-plate sizes and factors S."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(set_up=pooling_set_ups(one_cell_per_sub_plate=True))
    def test_one_output_cell_per_sub_plate_contracts_every_signal(self, set_up):
        # each sub-plate of S^d cells maps to one cell of the same volume: max^2 <= sum of squares
        f, sizes, S = set_up
        assert l2_norm(max_pool(f, sizes, S, "off")) <= l2_norm(f) * (1 + 1e-12)

    @settings(max_examples=150, deadline=None, database=None)
    @given(set_up=pooling_set_ups())
    def test_contracts_when_S_meets_the_sup_norm_bound(self, set_up):
        # ||P f||^2 <= |D| ||f||_inf^2 / S^d, so S^d >= |D| ||f||_inf^2 / ||f||_2^2 contracts
        f, sizes, S = set_up
        assume(S ** f.plate.dim >= f.plate.volume * (linf_norm(f) / l2_norm(f)) ** 2)
        assert l2_norm(max_pool(f, sizes, S, "off")) <= l2_norm(f) * (1 + 1e-12)

    @settings(max_examples=150, deadline=None, database=None)
    @given(set_up=pooling_set_ups())
    @example(set_up=(SignalGrid(unit_plate((4,)), np.array([1.0, 0.1, 0.1, 0.1])),
                     (4,), 2.0))
    def test_admissible_factor_never_raises_the_norm(self, set_up):
        # whatever strict mode lets through contracts: one cell per sub-plate without a
        # check, more cells only when S exceeds the squared sup-norm threshold
        f, sizes, S = set_up
        try:
            pooled = max_pool(f, sizes, S, "strict")
        except AdmissibilityError:
            assume(False)
        assert l2_norm(pooled) <= l2_norm(f) * (1 + 1e-12)

    @settings(max_examples=150, deadline=None, database=None)
    @given(set_up=pooling_set_ups(), data=st.data())
    def test_commutes_with_whole_sub_plate_translations(self, set_up, data):
        f, sizes, S = set_up
        blocks = tuple(n // k for n, k in zip(f.shape, sizes))
        # moves of up to half the plate keep the origin of R^d inside the moved plate
        ks = data.draw(st.tuples(*[st.integers(-(b // 2), b // 2) for b in blocks]),
                       label="sub-plates moved")
        c = tuple(k * (s / b) for k, s, b in zip(ks, f.plate.side_lengths, blocks))
        moved = translate_with_plate(f, c)
        lhs = max_pool(moved, sizes, S, "off")
        rhs = translate_with_plate(max_pool(f, sizes, S, "off"), tuple(x / S for x in c))
        assert np.array_equal(lhs.values, rhs.values)
        assert lhs.plate.side_lengths == rhs.plate.side_lengths
        assert lhs.plate.samples_per_axis == rhs.plate.samples_per_axis
        # (o + c) / S and o / S + c / S round alike only when dividing by S is exact
        if S in (1.0, 2.0, 4.0):
            assert lhs.plate.origin == rhs.plate.origin
        else:
            assert np.allclose(lhs.plate.origin, rhs.plate.origin, rtol=0.0, atol=1e-15)
