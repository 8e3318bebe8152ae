"""Acceptance suite: every stated criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion together with the measured quantities and runtimes.
"""

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from scatmaxp.filterbank import BankSpec, build_morlet_bank, build_partition_bank, frame_defect
from scatmaxp.grid import SignalGrid, convolve, unit_plate
from scatmaxp.pooling import max_pool
from scatmaxp.scattering import (
    compute_tree,
    count_paths,
    dense_head_parameters,
    enumerate_paths,
    PoolConfig,
)
from scatmaxp.verify import (
    FAMILIES,
    VerifyConfig,
    check_commutation,
    check_contraction,
    check_energy_monotonic,
    check_invariance_decay,
    check_shift_equivariance_plain,
    random_signal,
)

from test_grid import brute_force_circular_convolve
from test_pooling import nested_loop_block_max

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG = VerifyConfig()  # 64x64, J=2, L=2, S=2, depth 3, centered unit plate


@contextmanager
def criterion(number, label, budget_seconds):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except Exception:
        print(f"[criterion {number}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"[criterion {number}] PASS {label} ({detail}) [{elapsed:.1f}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_1_pooling_contraction():
    """1000 admissible random signals, 2x2-sample blocks, S=2: zero violations at 1e-12."""
    with criterion(1, "pooling norm contraction", 30.0) as info:
        report = check_contraction(2000, CONFIG)
        checked = report.n_pass + report.n_fail
        assert checked >= 1000, "fewer than 1000 admissible draws"
        assert report.n_fail == 0
        assert all(c.measured <= c.bound for c in report.cases if c.status != "skip")
        info.update(checked=checked, violations=report.n_fail, skipped=report.n_skip)


def test_criterion_2_pooling_translation_commutation():
    """200 random (f, c) with block-aligned c: bit-exact commutation in every case."""
    with criterion(2, "pooling/translation commutation", 30.0) as info:
        report = check_commutation(200, CONFIG)
        assert report.n_fail == 0 and report.n_pass == 200
        assert all(c.measured == 0.0 for c in report.cases)
        info.update(cases=report.n_pass, max_difference=0.0)


def test_criterion_3_frame_defect():
    """Default Morlet J=3 L=8 on 128x128: eps_LP <= 0.2; partition fixture <= 1e-12."""
    with criterion(3, "frame defect", 10.0) as info:
        default_eps = frame_defect(build_morlet_bank(3, 8, (128, 128)))
        fixture_eps = frame_defect(build_partition_bank(3, 8, (128, 128)))
        assert 0.0 < default_eps <= 0.2
        assert fixture_eps <= 1e-12
        info.update(default_eps=f"{default_eps:.3g}", fixture_eps=f"{fixture_eps:.3g}")


def test_criterion_4_layer_energy_monotonicity():
    """10 random 64x64 inputs, J=2 L=2 S=2 depth 3 full policy, both bank kinds."""
    with criterion(4, "layer-energy monotonicity", 120.0) as info:
        rng = np.random.default_rng(CONFIG.seed + 4)
        worst_ratio = 0.0
        for i in range(10):
            f = random_signal(rng, FAMILIES[i % 2], CONFIG.grid)
            report = check_energy_monotonic(f, CONFIG)
            assert report.verdict == "pass", report.summary_line()
            steps = [c for c in report.cases if c.name.startswith("step_")]
            worst_ratio = max(
                worst_ratio,
                max((c.measured / c.bound for c in steps if c.bound > 0), default=0.0),
            )
        fixture_config = VerifyConfig(bank=BankSpec(kind="partition"))
        rng = np.random.default_rng(CONFIG.seed + 4)
        for i in range(10):
            f = random_signal(rng, FAMILIES[i % 2], CONFIG.grid)
            report = check_energy_monotonic(f, fixture_config)
            assert report.environment["eps_lp"] == 0.0
            steps = [c for c in report.cases if c.name.startswith("step_")]
            for c in steps:
                assert c.measured < c.bound or (c.measured == 0.0 and c.bound == 0.0), (
                    "fixture energies must decrease strictly"
                )
        info.update(inputs=20, worst_step_ratio=f"{worst_ratio:.3g}")


def test_criterion_5_invariance_decay_with_golden():
    """5 random inputs, one-block shifts: d_m under the geometric bound, monotone,
    and reproducing the frozen golden values to 1e-8 relative."""
    with criterion(5, "translation-invariance decay", 120.0) as info:
        golden = {}
        for line in (GOLDEN_DIR / "decay_dm.csv").read_text().splitlines()[1:]:
            i, m, d = line.split(",")
            golden[(int(i), int(m))] = float(d)
        rng = np.random.default_rng(CONFIG.seed + 5)
        plate = unit_plate(CONFIG.grid, centered=True)
        step = plate.spacing[0] * CONFIG.pool.factor ** CONFIG.max_depth
        c = (step, 0.0)
        for i in range(5):
            f = random_signal(rng, "uniform", CONFIG.grid)
            report = check_invariance_decay(f, c, CONFIG)
            assert report.verdict == "pass", report.summary_line()
            measured = [case.measured for case in report.cases
                        if case.name.startswith("bound_m")]
            for m, d in enumerate(measured):
                assert d == pytest.approx(golden[(i, m)], rel=1e-8)
        info.update(inputs=5, shift=f"{step:g}", golden="reproduced@1e-8")


def test_criterion_6_circular_shift_equivariance():
    """50 random (f, c): bit-exact node and output equivariance of the plain cascade."""
    with criterion(6, "circular-shift equivariance", 60.0) as info:
        report = check_shift_equivariance_plain(50, CONFIG)
        assert report.n_fail == 0 and report.n_pass == 50
        assert all(c.measured == 0.0 for c in report.cases)
        info.update(cases=50, grid=CONFIG.equivariance_grid)


def test_criterion_7_oracle_equivalence():
    """convolve vs direct spatial oracle (100 cases, 1e-10); max_pool vs nested loops."""
    with criterion(7, "oracle equivalence", 120.0) as info:
        rng = np.random.default_rng(99)
        plate = unit_plate((8, 8))
        worst = 0.0
        for _ in range(100):
            f = SignalGrid(plate, rng.random((8, 8)) + 1j * rng.random((8, 8)))
            kernel_hat = rng.random((8, 8)) + 1j * rng.random((8, 8))
            expected = brute_force_circular_convolve(f.values, np.fft.ifftn(kernel_hat))
            got = convolve(f, kernel_hat).values
            scale = np.max(np.abs(expected))
            worst = max(worst, float(np.max(np.abs(got - expected)) / scale))
        assert worst <= 1e-10

        pool_plate = unit_plate((16, 16))
        for case in range(100):
            family = "uniform" if case % 2 == 0 else "spikes"
            f = SignalGrid(pool_plate, random_signal(rng, family, (16, 16)).values)
            pooled = max_pool(f, 2, 2.0, "off")
            oracle = nested_loop_block_max(f.values, (8, 8), pooled.shape)
            assert np.array_equal(pooled.values.real, oracle)
            assert pooled.values.dtype == np.float64
            assert np.all(pooled.values.imag == 0)
        info.update(conv_rel_err=f"{worst:.2g}", pool_cases="100 bit-exact")


def test_criterion_8_combinatorics_and_shrinkage():
    """Path counts, plate shrinkage and dense-head arithmetic."""
    with criterion(8, "combinatorics and shrinkage arithmetic", 60.0) as info:
        for J, L, m in itertools.product((1, 2, 3), (1, 2, 8), (0, 1, 2, 3)):
            if L > 1:
                bank = build_partition_bank(J, L, (16, 16))
            else:
                bank = build_partition_bank(J, L, (16,))
            for policy in ("full", "frequency_decreasing"):
                assert len(enumerate_paths(bank, m, policy)) == count_paths(J, L, m, policy)

        bank = build_morlet_bank(2, 2, (64, 64))
        f = random_signal(np.random.default_rng(0), "uniform", (64, 64))
        tree = compute_tree(f, bank, "maxp", 3, "full", PoolConfig(2, 2.0, "off"))
        for m in range(4):
            node = tree.nodes[tree.paths_at(m)[0]]
            assert node.plate.side_lengths == (1.0 / 2 ** m, 1.0 / 2 ** m)
            assert node.shape == (64 // 2 ** m, 64 // 2 ** m)

        assert dense_head_parameters(1, (512, 512, 256, 256), 102) == 487014
        info.update(path_count_cases="J,L,m sweep")
