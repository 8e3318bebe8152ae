"""Morlet bank construction, the exact-partition fixture, and frame diagnostics."""

import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatmaxp.filterbank import (
    CIRCULANT_MAX_SAMPLES,
    BankSpec,
    FilterIndex,
    MorletParams,
    build_morlet_bank,
    build_partition_bank,
    frame_defect,
    littlewood_paley_sum,
    reflect_frequencies,
    theorem_constant_B,
    _equalize_wavelets,
    _filters,
    _gauss_envelope,
    _gauss_hat,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "frame_defect.json").read_text())


def with_phi(bank, phi):
    """A copy of ``bank`` whose own grid's realization has the low-pass ``phi``."""
    doctored = replace(bank)
    doctored._cache[bank.grid_shape] = (bank.psi_hat, phi)
    return doctored


class TestBankConstruction:
    def test_wavelet_count_is_J_times_L(self):
        bank = build_morlet_bank(2, 2, (16, 16))
        assert len(bank.psi_hat) == 4
        assert bank.indices == [FilterIndex(j, r) for j in (0, 1) for r in (0, 1)]

    def test_wavelets_have_zero_mean(self):
        for equalize in (False, True):
            bank = build_morlet_bank(3, 4, (32, 32), equalize=equalize)
            for arr in bank.psi_hat.values():
                assert abs(arr[0, 0]) <= 1e-12

    @pytest.mark.parametrize("kind", ["morlet", "partition"])
    def test_filters_are_read_only(self, kind):
        if kind == "partition":
            bank = build_partition_bank(2, 2, (32, 32))
        else:
            bank = build_morlet_bank(2, 2, (32, 32))
        psi, phi = bank.realize((16, 16))
        for arr in (bank.psi_hat[FilterIndex(1, 0)], bank.phi_hat,
                    psi[FilterIndex(0, 1)], phi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        for mapping in (bank.psi_hat, psi):
            with pytest.raises(TypeError):
                mapping[FilterIndex(0, 0)] = np.zeros((16, 16))

    def test_low_pass_has_unit_dc_gain(self):
        bank = build_morlet_bank(2, 2, (32, 32))
        assert bank.phi_hat[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.isrealobj(bank.phi_hat)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            build_morlet_bank(3, 2, (100, 100))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_morlet_bank(0, 2, (16, 16))
        with pytest.raises(ValueError):
            build_morlet_bank(2, 0, (16, 16))
        with pytest.raises(ValueError, match="L must be 1"):
            build_morlet_bank(2, 4, (64,))
        with pytest.raises(ValueError, match=r"grid must be 1- or 2-dimensional, got shape \(8, 8, 8\)"):
            build_morlet_bank(1, 2, (8, 8, 8))
        with pytest.raises(ValueError, match="grid axis must be >= 1, got 0"):
            build_morlet_bank(1, 2, (16, 0))

    @pytest.mark.parametrize("kind", ["Partition", "gabor", ""])
    def test_bank_spec_rejects_an_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=f"unknown bank kind '{kind}'"):
            BankSpec(kind=kind)

    @pytest.mark.parametrize("J, L, message", [(0, 2, "J must be >= 1, got 0"),
                                                (2, 0, "L must be >= 1, got 0")])
    def test_bank_spec_rejects_scales_below_one(self, J, L, message):
        with pytest.raises(ValueError, match=message):
            BankSpec(J=J, L=L)

    @pytest.mark.parametrize("field, value, message", [
        ("sigma0", 0.0, "sigma0 must be finite and > 0, got 0.0"),
        ("sigma0", -1.0, "sigma0 must be finite and > 0, got -1.0"),
        ("sigma0", math.nan, "sigma0 must be finite and > 0, got nan"),
        ("slant", 0.0, "slant must be finite and > 0, got 0.0"),
        ("slant", math.inf, "slant must be finite and > 0, got inf"),
        ("xi0", math.nan, "xi0 must be finite, got nan"),
        ("xi0", -math.inf, "xi0 must be finite, got -inf"),
    ])
    def test_morlet_params_reject_malformed_values(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MorletParams(**{field: value})

    def test_partition_bank_carries_no_morlet_parameters(self):
        assert build_partition_bank(2, 2, (32, 32)).spec.morlet_params is None
        assert BankSpec(kind="partition").build((32, 32)).spec.morlet_params is None

    @pytest.mark.parametrize("kind", ["morlet", "partition"])
    def test_a_bank_is_its_spec_on_a_grid(self, kind):
        spec = BankSpec(J=2, L=3, kind=kind)
        a, b = spec.build((32, 32)), spec.build([32, 32])
        assert a == b and hash(a) == hash(b)
        assert a.spec == spec and a.grid_shape == (32, 32)
        assert (a.J, a.L) == (2, 3)
        assert a != spec.build((64, 64))
        assert a != replace(spec, J=1).build((32, 32))

    def test_own_filters_are_the_realization_of_the_own_grid(self):
        bank = build_morlet_bank(2, 2, (32, 32))
        psi, phi = bank.realize((32, 32))
        assert psi is bank.psi_hat and phi is bank.phi_hat
        # a doctored bank seeds its own grid's realization, and reads it back everywhere
        phi = 0.5 * bank.phi_hat
        doctored = with_phi(bank, phi)
        assert doctored.phi_hat is doctored.realize(doctored.grid_shape)[1] is phi
        assert doctored.psi_hat is bank.psi_hat

    @pytest.mark.parametrize("kind", ["morlet", "partition"])
    def test_a_replaced_spec_realizes_its_own_filters(self, kind):
        bank = BankSpec(J=2, L=2, kind=kind).build((16, 16))
        bank.realize((8, 8))
        spec = BankSpec(J=1, L=2, kind=kind)
        moved, fresh = replace(bank, spec=spec), spec.build((16, 16))
        assert moved.J == 1 and moved.indices == fresh.indices
        assert all(np.array_equal(moved.psi_hat[k], fresh.psi_hat[k]) for k in fresh.indices)
        assert np.array_equal(moved.phi_hat, fresh.phi_hat)
        assert np.array_equal(moved.realize((8, 8))[1], fresh.realize((8, 8))[1])
        assert len(bank.realize((16, 16))[0]) == 4  # the original keeps its own

    def test_rebuild_is_bit_identical(self):
        a = build_morlet_bank(2, 3, (32, 32))
        b = build_morlet_bank(2, 3, (32, 32))
        assert np.array_equal(a.phi_hat, b.phi_hat)
        for index in a.indices:
            assert np.array_equal(a.psi_hat[index], b.psi_hat[index])

    def test_slant_defaults_to_4_over_L(self):
        bank = build_morlet_bank(2, 8, (32, 32))
        assert bank.spec.morlet_params.slant == pytest.approx(0.5)
        explicit = MorletParams(slant=1.0)
        bank2 = build_morlet_bank(2, 8, (32, 32), params=explicit)
        assert bank2.spec.morlet_params.slant == 1.0

    def test_realize_rebuilds_on_smaller_grids(self):
        bank = build_morlet_bank(2, 2, (64, 64))
        psi, phi = bank.realize((32, 32))
        assert phi.shape == (32, 32)
        assert set(psi) == set(bank.psi_hat)
        # realized grid keeps the exact frame identity too
        assert np.max(np.abs(1.0 - littlewood_paley_sum(psi.values(), phi))) <= 1e-12
        # cache returns the same arrays
        psi2, _ = bank.realize((32, 32))
        assert psi2[FilterIndex(0, 0)] is psi[FilterIndex(0, 0)]

    @pytest.mark.parametrize("kind, equalize", [("morlet", True), ("morlet", False),
                                                ("partition", True)])
    @pytest.mark.parametrize("J, L, shape", [(1, 1, (64,)), (3, 1, (64,)), (1, 2, (64, 32)),
                                             (2, 2, (64, 64)), (3, 8, (64, 32)), (2, 1, (32, 64))])
    @pytest.mark.parametrize("S", [2, 4])
    def test_a_pooled_grid_is_a_sub_lattice_of_the_bank_grid(self, kind, equalize, J, L, shape, S):
        spec = BankSpec(J=J, L=L, kind=kind, equalize=equalize)
        bank = spec.build(shape)
        lp = littlewood_paley_sum(bank.psi_hat.values(), bank.phi_hat)
        peak = max(np.max(np.abs(v)) for v in (*bank.psi_hat.values(), bank.phi_hat))
        for depth in (1, 2):
            small = tuple(n // S ** depth for n in shape)
            psi, phi = bank.realize(small)
            fresh_psi, fresh_phi, _ = _filters(spec, small)
            for got, fresh in [(phi, fresh_phi)] + [(psi[k], fresh_psi[k]) for k in fresh_psi]:
                assert got.flags.c_contiguous and not got.flags.writeable
                if kind == "partition":
                    assert np.array_equal(got, fresh)
                else:
                    assert np.max(np.abs(got - fresh)) <= 1e-15 * peak
            # the frame sum on the sub-lattice is the bank grid's, sampled
            cut = tuple(slice(None, None, S ** depth) for _ in shape)
            assert np.array_equal(littlewood_paley_sum(psi.values(), phi), lp[cut])

    @pytest.mark.parametrize("kind", ["morlet", "partition"])
    @pytest.mark.parametrize("shape, other", [((32, 48), [(16, 24), (8, 6), (20, 20)]),
                                              ((64,), [(32,), (24,)])], ids=str)
    def test_phi_is_the_product_of_its_factors(self, kind, shape, other):
        spec = BankSpec(J=1, L=1, kind=kind)
        bank = spec.build(shape)
        for grid in [shape] + other:
            phi, factors = bank.realize(grid)[1], bank.phi_factors(grid)
            assert all(not a.flags.writeable for a in factors)
            if kind == "partition" or len(shape) == 1:
                assert len(factors) == 1 and np.array_equal(factors[0], phi)
            else:
                assert [a.shape for a in factors] == [(grid[0], 1), (1, grid[1])]
                assert np.array_equal(phi, np.outer(*factors))

    @pytest.mark.parametrize("kind", ["morlet", "partition"])
    @pytest.mark.parametrize("shape, other", [((32, 48), [(16, 24), (8, 6), (20, 20)]),
                                              ((64,), [(32,), (24,)])], ids=str)
    def test_phi_circulants_hold_the_kernels_of_its_factors(self, kind, shape, other):
        bank = BankSpec(J=1, L=1, kind=kind).build(shape)
        for grid in [shape] + other:
            kernels, circulants = bank.phi_kernels(grid), bank.phi_circulants(grid)
            # realized once per shape
            assert bank.phi_kernels(grid) is kernels and bank.phi_circulants(grid) is circulants
            for factor, kernel in zip(bank.phi_factors(grid), kernels, strict=True):
                assert np.array_equal(kernel, np.fft.ifftn(factor).real)
                assert kernel.shape == factor.shape and not kernel.flags.writeable
            if kind == "partition" and len(grid) == 2:
                assert circulants == ()  # the disc does not separate
                continue
            assert [c.shape for c in circulants] == [(n, n) for n in grid]
            for kernel, c, n in zip(kernels, circulants, grid):
                # the n^2 gather that one copy of a strided view replaces
                x, y = np.indices((n, n))
                assert np.array_equal(c, kernel.ravel()[(x - y) % n])
                assert c.flags.c_contiguous and not c.flags.writeable

    @pytest.mark.parametrize("shape", [(2 * CIRCULANT_MAX_SAMPLES,), (256, 256),
                                       (2 * CIRCULANT_MAX_SAMPLES, 8)], ids=str)
    def test_no_circulant_beyond_the_longest_axis(self, shape):
        bank = build_morlet_bank(1, len(shape), shape)
        assert bank.phi_circulants(shape) == ()
        short = tuple(min(n, CIRCULANT_MAX_SAMPLES) for n in shape)
        assert [c.shape[0] for c in bank.phi_circulants(short)] == list(short)

    @pytest.mark.parametrize("shape, message", [
        ((0, 0), "grid axis must be >= 1, got 0"),
        ((-4, 8), "grid axis must be >= 1, got -4"),
        ((32.5, 32), "grid axis must be a whole number >= 1, got 32.5"),
        ((32.7, 32), "grid axis must be a whole number >= 1, got 32.7"),
        ((32, "32"), "grid axis must be a whole number >= 1, got '32'"),
        ((math.nan, 32), "grid axis must be a whole number >= 1, got nan"),
        ((0.0, 32), "grid axis must be >= 1, got 0.0"),
    ])
    def test_a_grid_axis_below_1_or_not_whole_is_refused(self, shape, message):
        bank = build_morlet_bank(2, 2, (32, 32))
        with pytest.raises(ValueError, match=re.escape(message)):
            bank.realize(shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_morlet_bank(2, 2, shape)
        # a whole number of any numeric type names the grid it equals
        phi = bank.realize((np.int64(16), 16.0))[1]
        assert phi.shape == (16, 16) and bank.realize((16, 16))[1] is phi

    @pytest.mark.parametrize("J, L, shape, smaller", [
        (2, 2, (32, 32), (16, 16)), (3, 8, (64, 64), (32, 32)), (3, 1, (64,), (32,))])
    def test_one_forward_transform_per_filter(self, J, L, shape, smaller, monkeypatch):
        calls = []
        fftn = np.fft.fftn

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return fftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counting)
        bank = build_morlet_bank(J, L, shape)
        # one per wavelet, then one 1-D transform per axis for phi's factors
        assert calls == [shape] * (J * L) + [(n,) for n in shape]
        bank.realize(smaller)  # a sub-lattice of the bank grid: no transform
        bank.realize(smaller)  # cached: no transform
        assert len(calls) == J * L + len(shape)
        bank.realize(tuple(n - 8 for n in shape))  # not a sub-lattice: built afresh
        assert len(calls) == 2 * (J * L + len(shape))


def alias_sum_gaussian(shape, sigma, center, slant, theta):
    """Reference: the frequency Gaussian summed over every alias copy that reaches 1e-16.

    exp(-sigma^2/2 (v_r^2 + v_t^2/slant^2)) in the frame rotated by theta (in 1-D
    exp(-sigma^2/2 v^2)), centered at ``center`` and shifted by every 2 pi alias
    whose tail can still exceed ~1e-16 on [-pi, pi)^d, plus one more period.
    """
    d = len(shape)
    grids = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n) for n in shape], indexing="ij")
    widest = (max(1.0, slant) if d == 2 else 1.0) / sigma
    reach = 8.6 * widest + math.pi + float(np.linalg.norm(center))
    n_alias = math.ceil(reach / (2.0 * math.pi)) + 1
    out = np.zeros(shape)
    for alias in itertools.product(range(-n_alias, n_alias + 1), repeat=d):
        v = [w + 2.0 * np.pi * a - c for w, a, c in zip(grids, alias, center)]
        if d == 1:
            quad = v[0] ** 2
        else:
            vr = v[0] * math.cos(theta) + v[1] * math.sin(theta)
            vt = -v[0] * math.sin(theta) + v[1] * math.cos(theta)
            quad = vr ** 2 + (vt / slant) ** 2
        out += np.exp(-0.5 * sigma ** 2 * quad)
    return out


def alias_sum_morlet(shape, sigma, xi, theta, slant):
    """Reference Morlet from reference Gaussians; also returns the size of its terms."""
    if len(shape) == 1:
        center = (xi,)
    else:
        center = (xi * math.cos(theta), xi * math.sin(theta))
    g_shift = alias_sum_gaussian(shape, sigma, center, slant, theta)
    g_zero = alias_sum_gaussian(shape, sigma, (0.0,) * len(shape), slant, theta)
    origin = (0,) * len(shape)
    return g_shift - g_shift[origin] / g_zero[origin] * g_zero, np.max(g_zero)


def assert_close_to_max(got, expected, rtol=1e-13):
    # the DFT of the folded box errs by rounding times the Gaussian's peak (1);
    # a narrow Gaussian whose peak falls between lattice points samples only
    # its tails there, so its lattice maximum can be far below 1
    assert np.max(np.abs(got - expected)) <= rtol * max(1.0, np.max(np.abs(expected)))


class TestPoissonSummation:
    """Gaussians built from a folded spatial box equal the brute-force alias sum."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(8, 96)),
            st.tuples(st.integers(8, 48), st.integers(8, 48)),
        ),
        sigma=st.floats(0.1, 8.0),
        slant=st.floats(0.25, 2.0),
        theta=st.floats(0.0, math.pi),
        xi=st.floats(0.0, math.pi),
    )
    # the spatial box spans many periods (2R+1 = 277 > 8) / fits inside one (11 <= 40)
    @example(shape=(8, 8), sigma=8.0, slant=0.5, theta=0.3, xi=0.4)
    @example(shape=(48, 40), sigma=0.5, slant=1.0, theta=0.0, xi=3.0 * math.pi / 4.0)
    @example(shape=(9, 15), sigma=1.6, slant=0.5, theta=2.0, xi=1.2)
    @example(shape=(64,), sigma=0.1, slant=4.0, theta=0.0, xi=math.pi)
    @example(shape=(64, 64), sigma=0.15, slant=2.0, theta=math.pi / 2, xi=3.0 * math.pi / 4.0)
    def test_matches_the_alias_sum(self, shape, sigma, slant, theta, xi):
        d = len(shape)
        envelope, xr = _gauss_envelope(d, sigma, slant, theta)
        center = (xi,) if d == 1 else (xi * math.cos(theta), xi * math.sin(theta))
        assert_close_to_max(
            _gauss_hat(shape, envelope * np.exp(1j * xi * xr)),
            alias_sum_gaussian(shape, sigma, center, slant, theta),
        )
        assert_close_to_max(
            _gauss_hat(shape, envelope), alias_sum_gaussian(shape, sigma, (0.0,) * d, slant, theta)
        )

    def test_narrow_sigma0_bank_matches_the_alias_sum(self):
        # sigma0 = 0.15 has aliases ~19 periods out; those beyond four periods
        # still carry 1.3e-4 of the Gaussian terms
        J, L, shape = 2, 2, (64, 64)
        params = MorletParams(sigma0=0.15).resolve(L)
        bank = build_morlet_bank(J, L, shape, params, equalize=False)
        for index in bank.indices:
            expected, terms = alias_sum_morlet(shape, params.sigma0 * 2 ** index.j,
                                               params.xi0 / 2 ** index.j,
                                               math.pi * index.r / L, params.slant)
            # at j = 0 psi (~2e-8) is a near-cancelling difference of terms ~14
            assert np.max(np.abs(bank.psi_hat[index] - expected)) <= 1e-13 * terms
        sigma_phi = params.sigma0 * 2 ** (J - 1)
        assert_close_to_max(bank.phi_hat, alias_sum_gaussian(shape, sigma_phi, (0.0, 0.0), 1.0, 0.0))

    @pytest.mark.parametrize("shape", [(8, 8), (16, 16), (24, 40), (224, 224), (40, 24),
                                       (8,), (24,), (224,)], ids=str)
    def test_the_fold_adds_the_box_as_the_padded_row_sum_did(self, shape):
        # oracle: pad each axis to whole periods and sum the periods; the runs must give
        # the same bits whether the J = 3, L = 8 boxes wrap (113 samples on 8) or not
        def padded_fold(shape, spatial):
            for axis, n in enumerate(shape):
                m = spatial.shape[axis]
                front = -(m // 2) % n
                rows = -(-(front + m) // n)
                widths = [(0, 0)] * spatial.ndim
                widths[axis] = (front, rows * n - front - m)
                padded = np.pad(spatial, widths)
                spatial = padded.reshape(padded.shape[:axis] + (rows, n)
                                         + padded.shape[axis + 1:]).sum(axis)
            return np.fft.fftn(spatial).real.copy()

        spec = BankSpec(J=3, L=8 if len(shape) == 2 else 1, equalize=False)
        params = spec.morlet_params
        for j in range(spec.J):
            for r in range(spec.L):
                envelope, xr = _gauss_envelope(len(shape), params.sigma0 * 2 ** j, params.slant,
                                               math.pi * r / spec.L)
                for box in (envelope, envelope * (np.exp(1j * params.xi0 / 2 ** j * xr) - 0.3)):
                    assert np.array_equal(_gauss_hat(shape, box), padded_fold(shape, box))


class TestFrameDefect:
    def test_partition_fixture_is_exact(self):
        bank = build_partition_bank(3, 8, (128, 128))
        assert frame_defect(bank) == 0.0

    def test_partition_masks_tile_the_lattice(self):
        bank = build_partition_bank(2, 4, (32, 32))
        total = np.abs(bank.phi_hat) ** 2 + sum(np.abs(v) ** 2 for v in bank.psi_hat.values())
        assert np.all(total == 1.0)

    def test_default_bank_meets_the_frame_budget(self):
        bank = build_morlet_bank(3, 8, (128, 128))
        eps = frame_defect(bank)
        assert 0.0 < eps <= 0.2

    def test_raw_bank_defect_matches_golden(self):
        bank = build_morlet_bank(3, 8, (128, 128), equalize=False)
        assert frame_defect(bank) == pytest.approx(GOLDEN["morlet_raw_J3_L8_128"], rel=1e-8)
        small = build_morlet_bank(2, 2, (64, 64), equalize=False)
        assert frame_defect(small) == pytest.approx(GOLDEN["morlet_raw_J2_L2_64"], rel=1e-8)

    def test_defect_lower_bound_at_zero_frequency(self):
        # psi(0) = 0 forces frame_defect >= |1 - phi(0)^2| whatever the wavelets do
        bank = build_morlet_bank(2, 2, (32, 32))
        doctored = with_phi(bank, 0.9 * bank.phi_hat)
        assert frame_defect(doctored) >= abs(1.0 - 0.81) - 1e-12

    @pytest.mark.parametrize("equalize", [False, True])
    def test_littlewood_paley_sum_is_the_per_filter_formula(self, equalize):
        bank = build_morlet_bank(2, 3, (32, 48), equalize=equalize)
        expected = np.abs(bank.phi_hat) ** 2
        for arr in bank.psi_hat.values():
            expected = expected + 0.5 * (np.abs(arr) ** 2 + np.abs(reflect_frequencies(arr)) ** 2)
        # a generator works as well as a list
        total = littlewood_paley_sum((arr for arr in bank.psi_hat.values()), bank.phi_hat)
        assert np.max(np.abs(total - expected)) <= 1e-15 * np.max(expected)
        # the wavelet part is exactly symmetric; phi_hat is symmetric only to rounding
        wavelets = littlewood_paley_sum(bank.psi_hat.values(), np.zeros_like(bank.phi_hat))
        assert np.array_equal(wavelets, reflect_frequencies(wavelets))
        assert np.array_equal(littlewood_paley_sum([], bank.phi_hat), np.abs(bank.phi_hat) ** 2)

    @pytest.mark.parametrize("J, shape", [(1, (16, 16)), (2, (32, 32))])
    def test_equalization_leaves_rounding_noise_uncovered(self, J, shape):
        # a 2-D bank with one rotation leaves bins whose wavelet energy is
        # rounding; noise there must not be blown up to the size of the filters
        raw = build_morlet_bank(J, 1, shape, equalize=False)
        rng = np.random.default_rng(3)
        noisy = {k: v + np.finfo(np.float64).eps * np.max(np.abs(v)) * rng.standard_normal(shape)
                 for k, v in raw.psi_hat.items()}
        clean = _equalize_wavelets(dict(raw.psi_hat), raw.phi_hat)
        moved = _equalize_wavelets(noisy, raw.phi_hat)
        for k, v in clean.items():
            assert np.max(np.abs(moved[k] - v)) <= 1e-12 * np.max(np.abs(v))

    def test_equalization_leaves_reflection_symmetric_sum(self):
        bank = build_morlet_bank(2, 2, (32, 32))
        total = littlewood_paley_sum(bank.psi_hat.values(), bank.phi_hat)
        assert np.max(np.abs(total - reflect_frequencies(total))) <= 1e-12


class TestTheoremConstantB:
    def test_matches_analytic_gaussian_maximum(self):
        # phi_hat = exp(-sigma^2 w^2 / 2) peaks w*exp at w = 1/sigma with B = e^-1/2 / sigma
        bank = build_morlet_bank(3, 1, (32768,))
        sigma = bank.spec.morlet_params.sigma0 * 2 ** (bank.J - 1)
        analytic = math.exp(-0.5) / sigma
        assert theorem_constant_B(bank) == pytest.approx(analytic, rel=1e-6)

    def test_degenerate_low_pass_gives_zero(self):
        bank = build_morlet_bank(2, 2, (16, 16))
        doctored = with_phi(bank, np.zeros_like(bank.phi_hat))
        assert theorem_constant_B(doctored) == 0.0

    def test_invariant_under_reflection(self):
        bank = build_morlet_bank(2, 2, (16, 16))
        doctored = with_phi(bank, reflect_frequencies(bank.phi_hat))
        assert theorem_constant_B(doctored) == theorem_constant_B(bank)

    def test_spacing_rescales_frequencies(self):
        bank = build_morlet_bank(2, 2, (64, 64))
        assert theorem_constant_B(bank, spacing=0.5) == pytest.approx(
            2.0 * theorem_constant_B(bank), rel=1e-12
        )
