"""Certification suites: contraction, commutation, energy, decay, equivariance."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scatmaxp.filterbank import BankSpec, littlewood_paley_sum
from scatmaxp.grid import SignalGrid, l2_norm, unit_plate
from scatmaxp.pooling import max_pool
from scatmaxp import filterbank, scattering
from scatmaxp.scattering import PoolConfig
from scatmaxp.verify import (
    EXACT_RTOL,
    VerificationReport,
    VerifyConfig,
    check_commutation,
    check_contraction,
    check_energy_monotonic,
    check_invariance_decay,
    check_shift_equivariance_plain,
    default_suites,
    random_signal,
)

SMALL = VerifyConfig(grid=(32, 32), max_depth=2)
GOLDEN_REPORTS = Path(__file__).parent / "golden" / "verify_reports.csv"


class TestReportSemantics:
    def test_verdict_rules(self):
        report = VerificationReport("demo", {})
        assert report.verdict == "inconclusive"
        report.skip("a", "skipped", 0.0, 0.0)
        assert report.verdict == "inconclusive"
        report.add("b", "ok", 0.5, 1.0, True)
        assert report.verdict == "pass"
        report.add("c", "bad", 2.0, 1.0, False)
        assert report.verdict == "fail"

    def test_records_keep_measured_and_bound(self):
        report = check_contraction(4, SMALL)
        for case in report.cases:
            assert np.isfinite(case.measured)
            assert np.isfinite(case.bound)

    def test_csv_is_deterministic(self):
        a = check_contraction(30, SMALL).to_csv()
        b = check_contraction(30, SMALL).to_csv()
        assert a == b
        assert a.splitlines()[-2].count(",") == 4


class TestSignalFamilies:
    def test_uniform_family_is_flat_nonnegative(self):
        rng = np.random.default_rng(0)
        f = random_signal(rng, "uniform", (16, 16))
        assert np.all(f.values.real >= 0) and np.all(f.values.real <= 1)

    def test_spike_family_is_sparse(self):
        rng = np.random.default_rng(0)
        f = random_signal(rng, "spikes", (16, 16))
        assert 0 < np.count_nonzero(f.values) <= 16 * 16 // 64 + 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            random_signal(np.random.default_rng(0), "checkerboard", (8, 8))


class TestContraction:
    def test_random_trials_never_expand(self):
        report = check_contraction(200, SMALL)
        assert report.verdict == "pass"
        assert report.n_fail == 0
        assert report.n_skip == 0  # one output cell per 2-sample sub-plate: nothing to screen
        assert all(c.measured <= c.bound for c in report.cases if c.status == "pass")

    def test_multi_cell_sub_plates_screen_the_spike_draws(self):
        # 4-sample blocks with S = 2 give two output cells per sub-plate, so max_pool
        # checks S against the squared sup-norm threshold, which every spike draw exceeds
        report = check_contraction(40, VerifyConfig(grid=(32, 32), pool=PoolConfig(4, 2.0)))
        skipped = [c for c in report.cases if c.status == "skip"]
        assert report.verdict == "pass" and len(skipped) == 20
        assert all(c.summary == "spikes:no-admissible-S" and c.measured >= 2.0 for c in skipped)

    def test_constant_signal_ratio_is_S_to_minus_d_over_2(self):
        # ||P(c)||_2 / ||c||_2 = S^(-d/2): plate volume shrinks by S^d, values equal
        f = SignalGrid(unit_plate((16, 16)), np.full((16, 16), 0.6))
        pooled = max_pool(f, 2, 2.0, "off")
        assert l2_norm(pooled) / l2_norm(f) == pytest.approx(0.5, rel=1e-12)

    def test_spike_signal_still_contracts_under_standard_pooling(self):
        # one output sample per 2x2-sample block contracts every signal, sparse
        # spikes included, so max_pool runs no admissibility check here; the
        # ratio drops strictly below 1 once a block holds two nonzero samples
        values = np.zeros((16, 16))
        values[2, 4] = 0.4
        values[3, 5] = 0.8  # same 2x2-sample block as the spike above
        f = SignalGrid(unit_plate((16, 16)), values)
        pooled = max_pool(f, 2, 2.0, "off")
        assert l2_norm(pooled) < l2_norm(f)
        lone = SignalGrid(unit_plate((16, 16)), np.eye(16) * 0.5)
        lone_pooled = max_pool(lone, 2, 2.0, "off")
        assert l2_norm(lone_pooled) <= l2_norm(lone) * (1 + 1e-12)

    def test_inadmissible_draws_are_skipped_not_failed(self):
        # S = 1 leaves two output cells per 2-sample sub-plate, and the threshold
        # S must exceed is never below 1
        config = VerifyConfig(grid=(32, 32), pool=PoolConfig(2, 1.0))
        report = check_contraction(40, config)
        assert report.verdict == "inconclusive"
        assert report.n_skip == 40 and report.n_fail == 0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            check_contraction(0, SMALL)


class TestCommutation:
    def test_bit_exact_over_random_shifts(self):
        report = check_commutation(60, SMALL)
        assert report.verdict == "pass"
        assert all(c.measured == 0.0 and c.bound == 0.0 for c in report.cases)

    def test_origins_at_S_3_match_within_a_bound(self):
        # (o + c)/3 and o/3 + c/3 can differ in the last bit; the values stay bit-exact
        config = VerifyConfig(grid=(36, 36), pool=PoolConfig(3, 3.0))
        report = check_commutation(20, config)
        assert report.verdict == "pass"
        assert all(c.bound == EXACT_RTOL and c.measured <= c.bound for c in report.cases)
        assert any(c.measured > 0.0 for c in report.cases)

    def test_first_case_is_the_zero_shift(self):
        report = check_commutation(1, SMALL)
        assert "blocks=[0, 0]" in report.cases[0].summary


class TestEnergyMonotonicity:
    def test_certifies_only_depths_whose_pools_contracted(self):
        # 2-sample blocks at S = 2 give one cell per sub-plate, which always contracts
        f = random_signal(np.random.default_rng(1), "spikes", (32, 32))
        report = check_energy_monotonic(f, SMALL)
        assert report.notes[-1] == "depths whose pooling expanded a node: none"
        assert report.verdict == "pass"
        # pooled from 4-sample blocks, this spike expands at both depths and its
        # layer energies do grow: a case resting on an expanding pool certifies nothing
        blocks4 = replace(SMALL, pool=PoolConfig(4, 2.0))
        report = check_energy_monotonic(f, blocks4)
        assert report.notes[-1] == "depths whose pooling expanded a node: [1, 2]; skipped 4 of 4 cases"
        assert report.verdict == "inconclusive"
        assert report.n_skip == len(report.cases) == 4
        assert any(c.measured > c.bound for c in report.cases)  # measured values are kept
        # this one expands at depth 1 only: E_2 <= E_1 rests on depth 2's pools alone
        f = random_signal(np.random.default_rng(2), "spikes", (32, 32))
        report = check_energy_monotonic(f, blocks4)
        assert report.notes[-1] == "depths whose pooling expanded a node: [1]; skipped 3 of 4 cases"
        assert [c.name for c in report.cases if c.status == "pass"] == ["step_m1"]
        ratios = report.notes[-2].removeprefix("worst pool ratios ").split()
        assert float(ratios[0].split("=")[1]) > 1.0 >= float(ratios[1].split("=")[1])

    def test_morlet_bank_with_measured_slack(self):
        f = random_signal(np.random.default_rng(1), "uniform", (32, 32))
        report = check_energy_monotonic(f, SMALL)
        assert report.verdict == "pass"
        assert 0 < report.environment["eps_lp"] < 1e-12

    def test_partition_fixture_decreases_strictly(self):
        config = VerifyConfig(grid=(32, 32), max_depth=2, bank=BankSpec(kind="partition"))
        f = random_signal(np.random.default_rng(2), "uniform", (32, 32))
        report = check_energy_monotonic(f, config)
        assert report.verdict == "pass"
        assert report.environment["eps_lp"] == 0.0
        steps = [c for c in report.cases if c.name.startswith("step_")]
        assert all(c.measured < c.bound for c in steps)  # strict decrease

    def test_zero_signal_keeps_zero_energy(self):
        f = SignalGrid(unit_plate((32, 32), centered=True), np.zeros((32, 32)))
        report = check_energy_monotonic(f, SMALL)
        assert report.verdict == "pass"
        assert all(c.measured == 0.0 for c in report.cases)

    def test_one_forward_transform_per_parent(self, monkeypatch):
        # 4 wavelets and phi's 2 axis factors for the bank (the pooled grids are
        # sub-lattices of its grid), then the 1 + 4 + 16 parents, once for the
        # tree and once for the unpooled moduli the pool ratios divide by
        calls = []
        fftn = np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(a) or fftn(*a, **k))
        check_energy_monotonic(random_signal(np.random.default_rng(0), "uniform", (64, 64)))
        assert len(calls) == 6 + 42

    def test_moduli_come_from_the_cascade_step(self, monkeypatch):
        # 4 + 16 non-root nodes, each made once for the tree and once for the
        # unpooled modulus, both through the module-level step the tracer wraps
        calls = []
        step = scattering.propagate_one
        monkeypatch.setattr(scattering, "propagate_one",
                            lambda *a, **k: calls.append(a[1]) or step(*a, **k))
        report = check_energy_monotonic(
            random_signal(np.random.default_rng(0), "uniform", (32, 32)), SMALL)
        assert report.verdict == "pass"
        assert len(calls) == 2 * 20 == 40


MORLET_ENV = ["# env sigma0=0.8", "# env slant=2.0", "# env xi0=2.356194490192345"]
COMMON_ENV = ["# env J=2", "# env L=2", "# env S=2.0", "# env grid=(32, 32)",
              "# env max_depth=2", "# env seed=0"]


@pytest.mark.parametrize("bank, expected", [
    (BankSpec(), MORLET_ENV + ["# env bank=morlet", "# env equalized=True",
                               "# env eps_lp=5.551115123125783e-16"]),
    (BankSpec(equalize=False), MORLET_ENV + ["# env bank=morlet", "# env equalized=False",
                                             "# env eps_lp=0.5403344299623344"]),
    # a partition bank has no Morlet parameters and is never equalized
    (BankSpec(kind="partition"), ["# env bank=partition", "# env equalized=False",
                                  "# env eps_lp=0.0"]),
], ids=["morlet", "raw", "partition"])
def test_energy_report_env_lines_name_the_bank(bank, expected):
    config = VerifyConfig(grid=(32, 32), max_depth=2, bank=bank)
    f = random_signal(np.random.default_rng(0), "uniform", (32, 32))
    csv = check_energy_monotonic(f, config).to_csv()
    got = [line for line in csv.splitlines() if line.startswith("# env ")]
    want = sorted(COMMON_ENV + expected)
    # eps_lp is a measured frame defect: equal up to rounding, every other line to the byte
    assert [l for l in got if "eps_lp" not in l] == [l for l in want if "eps_lp" not in l]
    (got_eps,) = [float(l.split("=")[1]) for l in got if "eps_lp" in l]
    (want_eps,) = [float(l.split("=")[1]) for l in want if "eps_lp" in l]
    assert got_eps == pytest.approx(want_eps, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("suite", ["energy", "decay"])
@pytest.mark.parametrize("weak_grid", [False, True])
def test_eps_lp_is_the_worst_defect_over_the_realized_grids(suite, weak_grid, monkeypatch):
    config = VerifyConfig(bank=BankSpec(equalize=False))  # raw J=2, L=2 on 64x64, depth 3: four grids
    shapes = [(64, 64), (32, 32), (16, 16), (8, 8)]
    banks = []
    build = BankSpec.build

    def recording(self, shape):
        bank = build(self, shape)
        if weak_grid:
            # a shrunken grid whose defect exceeds the root's: phi_hat(0) = 0.5
            psi, phi = bank.realize((16, 16))
            x, y = bank.phi_factors((16, 16))
            # halving is exact, so this product is 0.5 * phi; the store adds kernels and circulants
            bank._store((16, 16), (psi, 0.5 * phi, (0.5 * x, y)))
        banks.append(bank)
        return bank

    monkeypatch.setattr(BankSpec, "build", recording)
    f = random_signal(np.random.default_rng(9), "uniform", config.grid)
    if suite == "energy":
        report = check_energy_monotonic(f, config)
    else:
        report = check_invariance_decay(f, (8 / 64, 0.0), config)
    (bank,) = banks
    defects = [float(np.max(np.abs(1.0 - littlewood_paley_sum(psi.values(), phi))))
               for psi, phi in map(bank.realize, shapes)]
    assert report.environment["eps_lp"] == max(defects)
    if weak_grid:
        assert max(defects) == defects[2] > defects[0]
    else:
        # the pooled grids are sub-lattices of the bank grid, so no defect exceeds its own
        assert max(defects) == defects[0]


class TestInvarianceDecay:
    def test_uniform_image_passes_bound_and_monotonicity(self):
        f = random_signal(np.random.default_rng(3), "uniform", (32, 32))
        c = (4 / 32, 0.0)  # S^max_depth = 4 spacings
        report = check_invariance_decay(f, c, SMALL)
        assert report.verdict == "pass"

    def test_zero_shift_gives_zero_distances(self):
        f = random_signal(np.random.default_rng(4), "uniform", (32, 32))
        report = check_invariance_decay(f, (0.0, 0.0), SMALL)
        bounds = [c for c in report.cases if c.name.startswith("bound_")]
        assert all(c.measured == 0.0 for c in bounds)

    def test_bound_curve_is_geometric(self):
        f = random_signal(np.random.default_rng(5), "uniform", (32, 32))
        report = check_invariance_decay(f, (4 / 32, 0.0), SMALL)
        bounds = [c.bound for c in report.cases if c.name.startswith("bound_")]
        ratios = [bounds[m + 1] / bounds[m] for m in range(len(bounds) - 1)]
        np.testing.assert_allclose(ratios, 0.25, rtol=1e-12)

    def test_untiled_grid_is_named_before_the_shift(self):
        # the 12-sample shift lands between cells at depth 3, but 3-sample
        # sub-plates never tile the 16-sample axis: that is the fault named
        config = VerifyConfig(grid=(16, 16), pool=PoolConfig(3, 2.0))
        f = random_signal(np.random.default_rng(6), "uniform", (16, 16))
        with pytest.raises(ValueError, match="16 samples are not divisible into sub-plates of 3"):
            check_invariance_decay(f, (12 / 16, 0.0), config)

    def test_misaligned_shift_rejected(self):
        f = random_signal(np.random.default_rng(6), "uniform", (32, 32))
        with pytest.raises(ValueError, match="sub-plate-aligned"):
            check_invariance_decay(f, (1 / 32, 0.0), SMALL)  # single-sample shift
        with pytest.raises(ValueError, match="between grid cells"):
            check_invariance_decay(f, (0.01, 0.0), SMALL)  # not grid-aligned
        with pytest.raises(ValueError, match="sub-plate-aligned at depth 1"):
            check_invariance_decay(f, (2 / 32, 0.0), SMALL)  # halves to one sample

    def test_spike_inputs_satisfy_the_bound_but_not_monotonicity(self):
        # recorded limitation: the decay bound (the theorem) holds for peaked
        # inputs, while the d_{m+1} <= d_m side assertion can fail at m = 0 -> 1
        f = random_signal(np.random.default_rng(7), "spikes", (32, 32))
        report = check_invariance_decay(f, (4 / 32, 0.0), SMALL)
        bound_cases = [c for c in report.cases if c.name.startswith("bound_")]
        assert all(c.status == "pass" for c in bound_cases)


class TestShiftEquivariance:
    def test_bit_exact_for_direct_evaluation(self):
        config = VerifyConfig(equivariance_grid=(16, 16), equivariance_depth=2)
        report = check_shift_equivariance_plain(6, config)
        assert report.verdict == "pass"
        assert all(c.measured == 0.0 for c in report.cases)

    def test_invariance_diagnostic_is_recorded_per_J(self):
        config = VerifyConfig(equivariance_grid=(16, 16), equivariance_depth=1)
        report = check_shift_equivariance_plain(2, config)
        assert sum("L_c output difference at J=" in n for n in report.notes) == 3

    def test_invariance_diagnostic_builds_banks_of_the_configured_kind(self, monkeypatch):
        def morlet_refused(*args, **kwargs):
            raise AssertionError("a Morlet bank was built for a partition config")

        monkeypatch.setattr(filterbank, "build_morlet_bank", morlet_refused)
        config = VerifyConfig(bank=BankSpec(kind="partition"), equivariance_grid=(16, 16),
                              equivariance_depth=1)
        report = check_shift_equivariance_plain(1, config)
        assert report.verdict == "pass"
        assert sum("L_c output difference at J=" in n for n in report.notes) == 3


class TestDefaultSuites:
    def test_all_suites_pass_at_reduced_trial_counts(self):
        config = VerifyConfig(grid=(32, 32), max_depth=2,
                              equivariance_grid=(16, 16), equivariance_depth=1)
        trials = {"contraction": 40, "commutation": 20, "equivariance": 4,
                  "energy": 2, "decay": 2}
        suites = default_suites(config, trials)
        assert set(suites) == {"contraction", "commutation", "energy", "decay",
                               "equivariance"}
        for name, run in suites.items():
            report = run()
            assert report.verdict == "pass", f"{name}: {report.summary_line()}"

    def test_merged_reports_prefix_inputs(self):
        config = VerifyConfig(grid=(32, 32), max_depth=2)
        report = default_suites(config, {"energy": 2})["energy"]()
        assert any(c.name.startswith("input00_") for c in report.cases)
        assert any(c.name.startswith("input01_") for c in report.cases)

    @pytest.mark.parametrize("check", [check_contraction, check_commutation,
                                       check_shift_equivariance_plain])
    @pytest.mark.parametrize("count", [0, -2])
    def test_trial_count_below_one_is_named(self, check, count):
        with pytest.raises(ValueError, match=f"^need at least one input, got {count}$"):
            check(count, SMALL)

    def test_reports_reproduce_the_golden(self):
        """Every case's name and status exactly, its measured value and bound at 1e-9."""
        config = VerifyConfig(grid=(32, 32), max_depth=2,
                              equivariance_grid=(16, 16), equivariance_depth=1)
        trials = {"contraction": 8, "commutation": 4, "equivariance": 1,
                  "energy": 1, "decay": 1}
        golden = [tuple(line.split(",")) for line in GOLDEN_REPORTS.read_text().splitlines()[1:]]
        measured = [(name, c.name, c.status, c.measured, c.bound)
                    for name, run in default_suites(config, trials).items()
                    for c in run().cases]
        assert [row[:3] for row in measured] == [row[:3] for row in golden]
        for row, (_, _, _, value, bound) in zip(measured, golden):
            assert row[3:] == pytest.approx((float(value), float(bound)), rel=1e-9, abs=0), row[1]
