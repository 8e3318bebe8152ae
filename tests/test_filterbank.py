"""Morlet bank construction, the exact-partition fixture, and frame diagnostics."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scatmaxp.filterbank import (
    FilterIndex,
    MorletParams,
    build_morlet_bank,
    build_partition_bank,
    frame_defect,
    littlewood_paley_sum,
    reflect_frequencies,
    theorem_constant_B,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "frame_defect.json").read_text())


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
        psi, phi = bank.realize((16, 16), 2.0)
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

    def test_rebuild_is_bit_identical(self):
        a = build_morlet_bank(2, 3, (32, 32))
        b = build_morlet_bank(2, 3, (32, 32))
        assert np.array_equal(a.phi_hat, b.phi_hat)
        for index in a.indices:
            assert np.array_equal(a.psi_hat[index], b.psi_hat[index])

    def test_slant_defaults_to_4_over_L(self):
        bank = build_morlet_bank(2, 8, (32, 32))
        assert bank.morlet_params.slant == pytest.approx(0.5)
        explicit = MorletParams(slant=1.0)
        bank2 = build_morlet_bank(2, 8, (32, 32), params=explicit)
        assert bank2.morlet_params.slant == 1.0

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
        doctored = replace(bank, phi_hat=0.9 * bank.phi_hat, _cache={})
        assert frame_defect(doctored) >= abs(1.0 - 0.81) - 1e-12

    def test_equalization_leaves_reflection_symmetric_sum(self):
        bank = build_morlet_bank(2, 2, (32, 32))
        total = littlewood_paley_sum(bank.psi_hat.values(), bank.phi_hat)
        assert np.max(np.abs(total - reflect_frequencies(total))) <= 1e-12


class TestTheoremConstantB:
    def test_matches_analytic_gaussian_maximum(self):
        # phi_hat = exp(-sigma^2 w^2 / 2) peaks w*exp at w = 1/sigma with B = e^-1/2 / sigma
        bank = build_morlet_bank(3, 1, (32768,))
        sigma = bank.morlet_params.sigma0 * 2 ** (bank.J - 1)
        analytic = math.exp(-0.5) / sigma
        assert theorem_constant_B(bank) == pytest.approx(analytic, rel=1e-6)

    def test_degenerate_low_pass_gives_zero(self):
        bank = build_morlet_bank(2, 2, (16, 16))
        doctored = replace(bank, phi_hat=np.zeros_like(bank.phi_hat), _cache={})
        assert theorem_constant_B(doctored) == 0.0

    def test_invariant_under_reflection(self):
        bank = build_morlet_bank(2, 2, (16, 16))
        doctored = replace(bank, phi_hat=reflect_frequencies(bank.phi_hat), _cache={})
        assert theorem_constant_B(doctored) == theorem_constant_B(bank)

    def test_spacing_rescales_frequencies(self):
        bank = build_morlet_bank(2, 2, (64, 64))
        assert theorem_constant_B(bank, spacing=0.5) == pytest.approx(
            2.0 * theorem_constant_B(bank), rel=1e-12
        )
