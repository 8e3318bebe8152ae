"""Path enumeration, the three cascades, and the architecture arithmetic."""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scatmaxp import pooling, scattering
from scatmaxp.filterbank import (
    CIRCULANT_MAX_SAMPLES,
    FilterIndex,
    build_morlet_bank,
    build_partition_bank,
    reflect_frequencies,
)
from scatmaxp.grid import (
    SignalGrid,
    _direct_circular_convolve,
    convolve,
    l2_norm,
    translate_in_plate,
    unit_plate,
)
from scatmaxp.pooling import max_pool
from scatmaxp.scattering import (
    PoolConfig,
    compute_tree,
    count_paths,
    dense_head_parameters,
    enumerate_paths,
    feature_summary,
    propagate_one,
    strided_block_max,
    subsample_signal,
    window,
)
from scatmaxp.verify import EXACT_RTOL

from test_grid import brute_force_circular_convolve

# the output digest of one unsubsampled and one subsampled 128^2 tree, printed by a fresh process
TREE_DIGEST = """
import hashlib
import numpy as np
from scatmaxp import SignalGrid, build_morlet_bank, compute_tree, unit_plate
f = SignalGrid(unit_plate((128, 128)), np.random.default_rng(26).random((128, 128)))
bank = build_morlet_bank(2, 2, (128, 128))
digest = hashlib.sha256()
for subsample in (False, True):
    for g in compute_tree(f, bank, "plain", 1, output_subsample=subsample).outputs.values():
        digest.update(g.values.tobytes())
print(digest.hexdigest())
"""


@pytest.fixture(scope="module")
def bank64():
    return build_morlet_bank(2, 2, (64, 64))


@pytest.fixture(scope="module")
def bank32():
    return build_morlet_bank(2, 2, (32, 32))


def is_sliced(got, full, step):
    """Whether a subsampled output equals the sliced full output to rounding.

    Folded windows alias the spectrum before the inverse transform, so they
    agree with the sliced full window to within EXACT_RTOL of its peak, not
    bit for bit.  Below the smallest normal float64 rounding is absolute, not
    relative (a lone 1e-310 sample in a 48x40 grid at J = 3 misses the
    relative bound by one subnormal step), hence the ``tiny`` floor.
    """
    gap = np.max(np.abs(got.values - full.values[step]))
    bound = EXACT_RTOL * np.max(np.abs(full.values)) + np.finfo(np.float64).tiny
    return got.values.dtype == full.values.dtype and gap <= bound


def random_signal(shape, seed=0, centered=True):
    rng = np.random.default_rng(seed)
    return SignalGrid(unit_plate(shape, centered=centered), rng.random(shape))


class TestEnumeratePaths:
    def test_length_zero_is_the_empty_path(self, bank32):
        assert enumerate_paths(bank32, 0) == [()]
        assert enumerate_paths(bank32, 0, "frequency_decreasing") == [()]

    def test_full_policy_counts(self, bank32):
        assert len(enumerate_paths(bank32, 2)) == 16  # (J*L)^m = 4^2

    def test_frequency_decreasing_count_for_J3_L8(self):
        bank = build_partition_bank(3, 8, (64, 64))
        paths = enumerate_paths(bank, 2, "frequency_decreasing")
        assert len(paths) == 192  # C(3,2) ordered scale pairs * 8^2 rotations
        assert all(p[0].j < p[1].j for p in paths)

    def test_counts_match_closed_form(self):
        bank = build_partition_bank(3, 2, (32, 32))
        for m in range(4):
            for policy in ("full", "frequency_decreasing"):
                assert len(enumerate_paths(bank, m, policy)) == count_paths(3, 2, m, policy)

    def test_invalid_arguments(self, bank32):
        with pytest.raises(ValueError):
            enumerate_paths(bank32, -1)
        with pytest.raises(ValueError):
            enumerate_paths(bank32, 1, "sideways")

    @pytest.mark.parametrize("policy", ["full", "frequency_decreasing"])
    def test_trees_evaluate_exactly_the_enumerated_paths(self, policy):
        bank = build_partition_bank(3, 2, (32, 32))
        tree = compute_tree(random_signal((32, 32), seed=13), bank, "plain", 2, policy)
        for m in range(3):
            assert [p for p in tree.nodes if len(p) == m] == enumerate_paths(bank, m, policy)


class TestPropagate:
    def test_zero_in_zero_out(self, bank32):
        f = SignalGrid(unit_plate((32, 32)), np.zeros((32, 32)))
        out = propagate_one(f, FilterIndex(0, 0), bank32)
        assert np.all(out.values == 0)

    def test_output_is_nonnegative_real(self, bank32):
        f = random_signal((32, 32), seed=1)
        out = propagate_one(f, FilterIndex(1, 0), bank32)
        assert out.values.dtype == np.float64
        assert np.all(out.values.real >= 0)
        assert np.all(out.values.imag == 0)

    def test_never_expands_real_signals(self, bank32):
        # per-band energy bound from the frame identity, checked over draws
        for seed in range(10):
            f = random_signal((32, 32), seed=seed)
            for index in bank32.indices:
                out = propagate_one(f, index, bank32)
                assert l2_norm(out) <= l2_norm(f) * (1 + 1e-12)

    def test_shape_mismatch_rejected(self, bank32):
        f = random_signal((16, 16))
        with pytest.raises(ValueError):
            propagate_one(f, FilterIndex(5, 5), bank32)

    def test_one_step_is_non_expansive_in_pairs(self, bank32):
        # modulus is 1-Lipschitz pointwise and convolution is bounded by the
        # kernel's sup in frequency: ||U[l]f - U[l]g|| <= max|psi_hat| ||f - g||
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = SignalGrid(unit_plate((32, 32)), rng.random((32, 32)))
            g = SignalGrid(unit_plate((32, 32)), rng.random((32, 32)))
            diff = l2_norm(f.with_values(f.values - g.values))
            for index in bank32.indices:
                gain = float(np.max(np.abs(bank32.psi_hat[index])))
                uf = propagate_one(f, index, bank32)
                ug = propagate_one(g, index, bank32)
                udiff = l2_norm(uf.with_values(uf.values - ug.values))
                assert udiff <= gain * diff * (1 + 1e-12)

    def test_window_of_constant_keeps_dc_gain(self, bank32):
        f = SignalGrid(unit_plate((32, 32)), np.full((32, 32), 3.0))
        out = window(f, bank32)
        np.testing.assert_allclose(out.values.real, 3.0 * bank32.phi_hat[0, 0], atol=1e-12)

    def test_window_of_zero_is_zero(self, bank32):
        f = SignalGrid(unit_plate((32, 32)), np.zeros((32, 32)))
        assert np.all(window(f, bank32).values == 0)


class TestComputeTree:
    def test_depth_zero_single_output(self, bank32):
        tree = compute_tree(random_signal((32, 32)), bank32, "plain", 0)
        assert list(tree.outputs) == [()]
        assert tree.nodes[()].shape == (32, 32)

    def test_plain_output_count(self, bank64):
        tree = compute_tree(random_signal((64, 64)), bank64, "plain", 2, "full")
        assert len(tree.outputs) == 21  # 1 + 4 + 16

    def test_outputs_are_windows_of_nodes(self, bank32):
        tree = compute_tree(random_signal((32, 32), seed=3), bank32, "plain", 1)
        for p in tree.nodes:
            expected = window(tree.nodes[p], bank32)
            assert np.array_equal(tree.outputs[p].values, expected.values)

    def test_maxp_plates_shrink_geometrically(self, bank64):
        tree = compute_tree(random_signal((64, 64)), bank64, "maxp", 3,
                            pool_cfg=PoolConfig(2, 2.0, "off"))
        for m in range(4):
            node = tree.nodes[tree.paths_at(m)[0]]
            assert node.shape == (64 // 2 ** m, 64 // 2 ** m)
            assert node.plate.side_lengths == (1.0 / 2 ** m, 1.0 / 2 ** m)

    def test_default_pooling_computes_no_admissibility_threshold(self, bank64, monkeypatch):
        # 2-sample blocks with S = 2 give one output cell per sub-plate, which always
        # contracts; 4-sample blocks give two, so each of the 84 pooled nodes is checked
        calls = []
        threshold = pooling.min_admissible_factor
        monkeypatch.setattr(pooling, "min_admissible_factor",
                            lambda f: calls.append(f) or threshold(f))
        f = random_signal((64, 64), seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", pooling.AdmissibilityWarning)
            compute_tree(f, bank64, "maxp", 3)
        assert calls == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pooling.AdmissibilityWarning)
            compute_tree(f, bank64, "maxp", 3, pool_cfg=PoolConfig(4, 2.0, "warn"))
        assert len(calls) == 84

    def test_maxp_sample_counts_shrink_by_S_to_2m(self, bank64):
        f = random_signal((64, 64), seed=4)
        plain = compute_tree(f, bank64, "plain", 2)
        maxp = compute_tree(f, bank64, "maxp", 2, pool_cfg=PoolConfig(2, 2.0, "off"))
        for m in range(3):
            plain_samples = sum(int(np.prod(plain.nodes[p].shape)) for p in plain.paths_at(m))
            maxp_samples = sum(int(np.prod(maxp.nodes[p].shape)) for p in maxp.paths_at(m))
            assert plain_samples == maxp_samples * 4 ** m

    def test_deep_input_keeps_halving(self):
        # 224 input pooled twice lands on a 56x56 node, plate D/S^2
        bank = build_morlet_bank(3, 1, (224, 224))
        tree = compute_tree(random_signal((224, 224)), bank, "maxp", 2,
                            pool_cfg=PoolConfig(2, 2.0, "off"))
        deepest = tree.nodes[tree.paths_at(2)[0]]
        assert deepest.shape == (56, 56)
        assert deepest.plate.side_lengths == (0.25, 0.25)

    def test_divisibility_failure_names_the_depth(self):
        bank = build_morlet_bank(1, 1, (8, 8))
        with pytest.raises(ValueError, match="depth 4"):
            compute_tree(random_signal((8, 8)), bank, "maxp", 4,
                         pool_cfg=PoolConfig(2, 2.0, "off"))

    def test_evaluator_error_is_not_blamed_on_pooling(self):
        bank = build_morlet_bank(1, 1, (8, 8))
        with pytest.raises(ValueError, match="^unknown convolution method 'bogus'$"):
            compute_tree(random_signal((8, 8)), bank, "maxp", 1, conv_method="bogus")

    def test_unknown_admissibility_mode_rejected_when_configured(self):
        # at construction, so a plain or naivep run rejects it as a maxp run does
        with pytest.raises(ValueError, match="unknown admissibility mode 'wran'"):
            PoolConfig(2, 2.0, "wran")
        for admissibility in pooling.ADMISSIBILITY_MODES:  # the modes max_pool accepts
            PoolConfig(2, 2.0, admissibility)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_pooling_factor_rejected_when_configured(self, factor):
        with pytest.raises(ValueError, match=f"^pooling factor must be finite, got {factor}$"):
            PoolConfig(2, factor)

    def test_frequency_decreasing_paths_only(self, bank64):
        tree = compute_tree(random_signal((64, 64)), bank64, "plain", 2,
                            "frequency_decreasing")
        expected = {tuple(p) for m in range(3)
                    for p in enumerate_paths(bank64, m, "frequency_decreasing")}
        assert set(tree.nodes) == expected

    def test_trees_are_deterministic(self, bank32):
        f = random_signal((32, 32), seed=5)
        a = compute_tree(f, bank32, "maxp", 2, pool_cfg=PoolConfig(2, 2.0, "off"))
        b = compute_tree(f, bank32, "maxp", 2, pool_cfg=PoolConfig(2, 2.0, "off"))
        for p in a.nodes:
            assert np.array_equal(a.nodes[p].values, b.nodes[p].values)
            assert np.array_equal(a.outputs[p].values, b.outputs[p].values)

    def test_plain_nodes_commute_with_circular_shifts(self, bank32):
        f = random_signal((32, 32), seed=6)
        c = (5, 12)
        tree_f = compute_tree(f, bank32, "plain", 2, conv_method="direct")
        tree_s = compute_tree(translate_in_plate(f, c), bank32, "plain", 2,
                              conv_method="direct")
        for p in tree_f.nodes:
            assert np.array_equal(
                tree_s.nodes[p].values, np.roll(tree_f.nodes[p].values, c, (0, 1))
            )
            assert np.array_equal(
                tree_s.outputs[p].values, np.roll(tree_f.outputs[p].values, c, (0, 1))
            )

    def test_direct_tree_keeps_its_recorded_bits(self, bank32):
        # the first 16 hex digits of a sha256 over every node and output, as the
        # three-stage evaluator gave them with numpy 2.4 on x86-64 (see
        # test_grid.DIRECT_DIGESTS): kept kernels and one-axis passes change no bit
        f = random_signal((32, 32), seed=7)
        tree = compute_tree(f, bank32, "plain", 2, conv_method="direct")
        digest = hashlib.sha256()
        for p in sorted(tree.nodes):
            digest.update(tree.nodes[p].values.tobytes() + tree.outputs[p].values.tobytes())
        assert digest.hexdigest()[:16] == "d4e7a9ecd1357450"

    @settings(max_examples=50, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 2), complex_input=st.booleans())
    def test_direct_cascade_commutes_with_circular_shifts(self, data, d, complex_input):
        shape = data.draw(st.tuples(*[st.integers(2, 8).map(lambda k: 2 * k)] * d),
                          label="shape")
        shift = data.draw(st.tuples(*[st.integers(-n + 1, n - 1) for n in shape]), label="shift")
        parts = st.floats(-1.0, 1.0, allow_subnormal=False)
        values = data.draw(arrays(np.float64, shape, elements=parts), label="values")
        if complex_input:
            values = values + 1j * data.draw(arrays(np.float64, shape, elements=parts),
                                             label="imag")
        bank = build_morlet_bank(1, 1 if d == 1 else 2, shape)
        f = SignalGrid(unit_plate(shape), values)
        tree_f = compute_tree(f, bank, "plain", 1, conv_method="direct")
        tree_s = compute_tree(translate_in_plate(f, shift), bank, "plain", 1,
                              conv_method="direct")
        axes = tuple(range(d))
        for p in tree_f.nodes:
            for a, b in ((tree_f.nodes[p], tree_s.nodes[p]), (tree_f.outputs[p], tree_s.outputs[p])):
                assert b.values.dtype == a.values.dtype
                assert np.array_equal(b.values, np.roll(a.values, shift, axes))

    @pytest.mark.parametrize("mode", ["plain", "maxp", "naivep"])
    def test_real_input_keeps_every_array_float64(self, bank32, mode):
        pool_cfg = PoolConfig(2, 2.0, "off") if mode == "maxp" else None
        for conv_method in ("fft", "direct"):
            tree = compute_tree(random_signal((32, 32), seed=9), bank32, mode, 2,
                                pool_cfg=pool_cfg, conv_method=conv_method)
            grids = list(tree.nodes.values()) + list(tree.outputs.values())
            assert {g.values.dtype for g in grids} == {np.dtype(np.float64)}, conv_method
            node_bytes = sum(g.values.nbytes for g in tree.nodes.values())
            assert node_bytes == tree.total_node_samples() * 8

    def test_complex_root_keeps_a_complex_output(self, bank32):
        rng = np.random.default_rng(10)
        values = rng.random((32, 32)) + 1j * rng.random((32, 32))
        tree = compute_tree(SignalGrid(unit_plate((32, 32)), values), bank32, "plain", 1)
        assert tree.nodes[()].values.dtype == np.complex128
        assert tree.outputs[()].values.dtype == np.complex128
        assert tree.nodes[tree.paths_at(1)[0]].values.dtype == np.float64

    def test_naivep_pools_the_plain_outputs(self, bank32):
        f = random_signal((32, 32), seed=7)
        plain = compute_tree(f, bank32, "plain", 1)
        naive = compute_tree(f, bank32, "naivep", 1)
        for p in plain.outputs:
            expected = strided_block_max(plain.outputs[p], 3)
            assert naive.outputs[p].shape == (10, 10)  # 32 // 3, remainder dropped
            assert np.array_equal(naive.outputs[p].values, expected.values)
        # nodes themselves are not pooled
        assert naive.nodes[naive.paths_at(1)[0]].shape == (32, 32)

    def test_output_subsampling_flag(self, bank64):
        f = random_signal((64, 64), seed=8)
        cfg = PoolConfig(2, 2.0, "off")
        for mode in ("plain", "maxp"):
            tree = compute_tree(f, bank64, mode, 1, pool_cfg=cfg, output_subsample=True)
            assert tree.outputs[()].shape == (16, 16)  # 64 / 2^J
            full = compute_tree(f, bank64, mode, 1, pool_cfg=cfg)
            for p, out in full.outputs.items():
                assert is_sliced(tree.outputs[p], out, (slice(None, None, 4),) * 2), (mode, p)

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 2), J=st.integers(1, 2), depth=st.integers(0, 2))
    def test_subsampled_outputs_slice_the_full_outputs(self, data, d, J, depth):
        # depth-m maxp nodes keep n / 2^m samples per axis, so n = k 2^(J + depth)
        # splits every node grid into 2^J-sample steps; k >= 3 leaves naivep a 3-sample block
        shape = data.draw(st.tuples(*[st.integers(3, 5).map(lambda k: k * 2 ** (J + depth))] * d),
                          label="shape")
        values = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)),
                           label="values")
        f = SignalGrid(unit_plate(shape, centered=True), values)
        bank = build_morlet_bank(J, 1 if d == 1 else 2, shape)
        cfg = PoolConfig(2, 2.0, "off")
        sub = {mode: compute_tree(f, bank, mode, depth, pool_cfg=cfg, output_subsample=True)
               for mode in ("plain", "maxp", "naivep")}
        step = (slice(None, None, 2 ** J),) * d
        for mode in ("plain", "maxp"):
            full = compute_tree(f, bank, mode, depth, pool_cfg=cfg)
            for p, out in full.outputs.items():
                got = sub[mode].outputs[p]
                assert is_sliced(got, out, step), (mode, p)
                assert got.plate.origin == out.plate.origin
                assert got.plate.side_lengths == out.plate.side_lengths
                # subsampling touches only the windows, never the propagation
                assert np.array_equal(sub[mode].nodes[p].values, full.nodes[p].values), (mode, p)
        for p, out in sub["plain"].outputs.items():
            expected = strided_block_max(out, 3)
            assert sub["naivep"].outputs[p].plate == expected.plate
            assert np.array_equal(sub["naivep"].outputs[p].values, expected.values), p

    def test_subsampling_a_node_grid_finer_than_2_to_J_fails_by_name(self):
        # depth-3 maxp nodes of a 32x32 input keep 4 samples per axis; 2^J = 8
        bank = build_morlet_bank(3, 1, (32, 32))
        with pytest.raises(ValueError, match="4 samples are not divisible by subsampling factor 8"):
            compute_tree(random_signal((32, 32)), bank, "maxp", 3,
                         pool_cfg=PoolConfig(2, 2.0, "off"), output_subsample=True)

    def test_one_realization_per_node_shape(self):
        # pooling keeps the sample spacing, so the node shape alone names a realization
        bank = build_morlet_bank(2, 2, (36, 36))
        shapes = set()
        for cfg in (PoolConfig(2, 2.0, "off"), PoolConfig(3, 1.5, "off")):
            tree = compute_tree(random_signal((36, 36), seed=13), bank, "maxp", 2, pool_cfg=cfg)
            shapes |= {g.shape for g in tree.nodes.values()}
        assert shapes == {(36, 36), (18, 18), (9, 9), (24, 24), (16, 16)}
        assert set(bank._cache) == shapes

    def test_mode_validation(self, bank32):
        with pytest.raises(ValueError):
            compute_tree(random_signal((32, 32)), bank32, "turbo", 1)
        with pytest.raises(ValueError, match="match bank grid"):
            compute_tree(random_signal((16, 16)), bank32, "plain", 1)
        with pytest.raises(ValueError, match="dimensional"):
            bank32.realize((32,))
        with pytest.raises(ValueError, match="max_depth must be >= 0, got -1"):
            compute_tree(random_signal((32, 32)), bank32, "plain", -1)

    @pytest.mark.parametrize("mode,depth", [("plain", 0), ("plain", 1), ("maxp", 2)])
    def test_unknown_policy_rejected(self, bank32, mode, depth):
        with pytest.raises(ValueError, match="unknown path policy"):
            compute_tree(random_signal((32, 32)), bank32, mode, depth, "sideways")

    def test_one_dimensional_cascade_end_to_end(self):
        bank = build_morlet_bank(2, 1, (64,))
        f = random_signal((64,), seed=12)
        tree = compute_tree(f, bank, "maxp", 2, pool_cfg=PoolConfig(2, 2.0, "off"))
        assert tree.nodes[tree.paths_at(2)[0]].shape == (16,)
        assert len(tree.outputs) == 1 + 2 + 4
        energies = [tree.layer_energy(m) for m in range(3)]
        assert energies[0] >= energies[1] >= energies[2]


class TestSpectralEngine:
    """compute_tree transforms each parent once and windows real nodes via rfftn."""

    @pytest.mark.parametrize("policy", ["full", "frequency_decreasing"])
    @pytest.mark.parametrize("mode", ["plain", "maxp"])
    def test_nodes_equal_steps_from_the_parent_signal(self, bank32, mode, policy):
        cfg = PoolConfig(2, 2.0, "off")
        tree = compute_tree(random_signal((32, 32), seed=14), bank32, mode, 2, policy, cfg)
        for path, node in tree.nodes.items():
            if not path:
                continue
            parent = tree.nodes[path[:-1]]
            expected = propagate_one(parent, path[-1], bank32)
            if mode == "maxp":
                expected = max_pool(expected, cfg.block_samples, cfg.factor, cfg.admissibility)
            assert node.plate == expected.plate
            assert np.array_equal(node.values, expected.values)

    def test_one_forward_transform_per_parent(self, bank32, monkeypatch):
        calls = {"fftn": 0, "ifftn": 0}

        def counting(name):
            original = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counting(name))
        tree = compute_tree(random_signal((32, 32), seed=15), bank32, "plain", 2, "full")
        assert len(tree.nodes) == 21
        assert calls == {"fftn": 5, "ifftn": 20}  # parents with children; non-root nodes

    @pytest.mark.parametrize("shape,J,L", [((32, 32), 2, 2), ((9, 15), 2, 2), ((64,), 2, 1)])
    def test_window_of_real_input_matches_the_full_convolution(self, shape, J, L):
        bank = build_morlet_bank(J, L, (64,) * len(shape))
        f = random_signal(shape, seed=16)
        out = window(f, bank)
        expected = convolve(f, bank.realize(shape)[1])
        assert out.values.dtype == np.float64
        assert np.all(out.values.imag == 0)
        scale = np.max(np.abs(expected.values))
        assert np.max(np.abs(out.values - expected.values)) <= 1e-13 * scale

    def test_window_of_complex_input_is_the_full_convolution(self, bank32):
        rng = np.random.default_rng(17)
        f = SignalGrid(unit_plate((32, 32)), rng.random((32, 32)) + 1j * rng.random((32, 32)))
        full = convolve(f, bank32.phi_hat)
        assert np.array_equal(window(f, bank32).values, full.values)
        # a complex window is computed in full and then subsampled, not folded
        sub = window(f, bank32, step=4)
        assert sub.plate == subsample_signal(full, 4).plate
        assert np.array_equal(sub.values, full.values[::4, ::4])

    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape, L", [((32, 32), 2), ((9, 15), 2), ((64,), 1),
                                          ((32, 64), 2), ((16, 48), 2)], ids=str)
    def test_direct_window_agrees_with_the_fft_window(self, shape, L, complex_input):
        bank = build_morlet_bank(2, L, (64,) * len(shape))
        f = random_signal(shape, seed=21)
        if complex_input:
            f = f.with_values(f.values + 1j * random_signal(shape, seed=22).values)
        fft, direct = (window(f, bank, method).values for method in ("fft", "direct"))
        assert direct.dtype == fft.dtype
        assert np.max(np.abs(direct - fft)) <= 1e-12 * np.max(np.abs(fft))
        if not complex_input:
            # one pass per axis of phi's factors against phi's full spatial kernel
            full = _direct_circular_convolve(f.values, np.fft.ifftn(bank.realize(shape)[1]).real)
            assert np.max(np.abs(direct - full)) <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape, shift", [((32, 32), (5, 11)), ((32, 64), (31, 1)),
                                              ((16, 48), (3, 40)), ((64,), (17,))], ids=str)
    def test_direct_window_commutes_with_circular_shifts(self, shape, shift, complex_input):
        # a (16, 48) grid is not a sub-lattice of the bank's: its filters are built afresh
        bank = build_morlet_bank(2, 1 if len(shape) == 1 else 2, (64,) * len(shape))
        f = random_signal(shape, seed=23)
        if complex_input:
            f = f.with_values(f.values + 1j * random_signal(shape, seed=24).values)
        out = window(f, bank, "direct").values
        shifted = window(translate_in_plate(f, shift), bank, "direct").values
        assert np.array_equal(shifted, np.roll(out, shift, tuple(range(len(shape)))))

    def test_direct_window_is_subsampled_after_the_full_window(self, bank32):
        f = random_signal((32, 32), seed=20)
        full = window(f, bank32, "direct")
        sub = window(f, bank32, "direct", 4)
        assert sub.plate == subsample_signal(full, 4).plate
        assert np.array_equal(sub.values, full.values[::4, ::4])

    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 2), kind=st.sampled_from(["morlet", "partition"]))
    def test_unfolded_window_agrees_with_numpys_irfftn(self, data, d, kind):
        shape = data.draw(st.tuples(*[st.integers(4, 40)] * d), label="shape")
        values = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)),
                           label="values")
        build = build_morlet_bank if kind == "morlet" else build_partition_bank
        bank = build(2, 1 if d == 1 else 2, (64,) * d)  # realized on any grid
        axes = tuple(range(d))
        spectrum = np.fft.rfftn(values, axes=axes)
        phi = bank.realize(shape)[1]
        expected = np.fft.irfftn(spectrum * phi[..., :spectrum.shape[-1]], s=shape, axes=axes)
        got = window(SignalGrid(unit_plate(shape), values), bank).values
        if kind == "partition" and d == 2:
            # the disc does not separate, so its window is numpy's irfftn itself
            assert not bank.phi_circulants(shape)
            assert np.array_equal(got, expected)
        else:
            # below the smallest normal float64 rounding is absolute (see is_sliced)
            bound = 1e-13 * np.max(np.abs(expected)) + np.finfo(np.float64).tiny
            assert np.max(np.abs(got - expected)) <= bound
            if max(shape) <= 24:  # the brute-force oracle loops over n0^2 n1^2 terms
                brute = brute_force_circular_convolve(values.astype(complex), np.fft.ifftn(phi))
                assert np.max(np.abs(got - brute.real)) <= bound

    @pytest.mark.parametrize("shape", [(2 * CIRCULANT_MAX_SAMPLES,), (256, 256),
                                       (2 * CIRCULANT_MAX_SAMPLES, 8)], ids=str)
    def test_a_window_without_circulants_is_numpys_irfftn(self, shape):
        # past the longest circulant axis the window stays on the half spectrum; at
        # 256^2 the FFT pair is the faster of the two
        bank = build_morlet_bank(1, len(shape), shape)
        values = random_signal(shape, seed=25).values
        axes = tuple(range(len(shape)))
        spectrum = np.fft.rfftn(values, axes=axes)
        expected = np.fft.irfftn(spectrum * bank.phi_hat[..., :spectrum.shape[-1]], s=shape,
                                 axes=axes)
        assert np.array_equal(window(SignalGrid(unit_plate(shape), values), bank).values,
                              expected)

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 2), J=st.integers(1, 3))
    def test_folded_window_is_the_sliced_full_window(self, data, d, J):
        step = 2 ** J
        shape = data.draw(st.tuples(*[st.integers(1, 6).map(lambda k: k * step)] * d),
                          label="shape")
        values = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)),
                           label="values")
        bank = build_morlet_bank(J, 1 if d == 1 else 2, shape)
        f = SignalGrid(unit_plate(shape, centered=True), values)
        full = window(f, bank)
        got = window(f, bank, step=step)
        assert got.plate == subsample_signal(full, step).plate
        assert is_sliced(got, full, (slice(None, None, step),) * d)
        assert not got.values.flags.writeable and got.values.flags.c_contiguous

    @pytest.mark.parametrize("mode", ["plain", "maxp", "naivep"])
    def test_every_array_the_cascade_makes_is_read_only(self, bank32, mode):
        # the cascade adopts the arrays it makes instead of copying them
        for conv_method in ("fft", "direct"):
            for output_subsample in (False, True):
                tree = compute_tree(random_signal((32, 32), seed=21), bank32, mode, 2,
                                    pool_cfg=PoolConfig(2, 2.0, "off"),
                                    output_subsample=output_subsample, conv_method=conv_method)
                grids = list(tree.nodes.values()) + list(tree.outputs.values())
                assert not any(g.values.flags.writeable for g in grids)

    def test_windows_do_not_depend_on_the_blas_thread_count(self):
        # windows are BLAS matrix products; 128^2 is large enough for BLAS to split them
        env = dict(os.environ, PYTHONPATH=str(Path(scattering.__file__).resolve().parents[1]))
        digests = set()
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", TREE_DIGEST], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(run.stdout)
        assert len(digests) == 1

    @pytest.mark.parametrize("kind", ["equalized", "raw", "partition"])
    def test_phi_is_real_and_symmetric_on_every_realized_grid(self, kind):
        # the condition under which the half-spectrum window equals the full one
        if kind == "partition":
            bank = build_partition_bank(2, 2, (64, 64))
        else:
            bank = build_morlet_bank(2, 2, (64, 64), equalize=kind == "equalized")
        tree = compute_tree(random_signal((64, 64), seed=18), bank, "maxp", 3,
                            pool_cfg=PoolConfig(2, 2.0, "off"))
        grids = {g.shape for g in tree.nodes.values()}
        assert len(grids) == 4
        for shape in grids:
            phi = bank.realize(shape)[1]
            assert np.isrealobj(phi)
            assert np.max(np.abs(phi - reflect_frequencies(phi))) <= 1e-15


class TestBlockHelpers:
    def test_strided_block_max_truncates(self):
        values = np.arange(49, dtype=float).reshape(7, 7)
        f = SignalGrid(unit_plate((7, 7)), values)
        pooled = strided_block_max(f, 3)
        assert pooled.shape == (2, 2)
        assert np.array_equal(pooled.values.real, [[16.0, 19.0], [37.0, 40.0]])

    def test_strided_block_max_rejects_tiny_grids(self):
        f = SignalGrid(unit_plate((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            strided_block_max(f, 3)

    def test_subsample_requires_divisibility(self):
        f = SignalGrid(unit_plate((9,)), np.arange(9.0))
        with pytest.raises(ValueError):
            subsample_signal(f, 2)
        kept = subsample_signal(f, 3)
        assert np.array_equal(kept.values.real, [0.0, 3.0, 6.0])

    @pytest.mark.parametrize("factor", [0, -2, 2.0, 1.5])
    def test_a_subsampling_factor_below_1_or_not_an_integer_is_refused(self, factor, bank32,
                                                                       monkeypatch):
        f = random_signal((32, 32))
        message = f"subsampling factor must be an integer >= 1, got {factor!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            subsample_signal(f, factor)
        # the window refuses it before any transform
        monkeypatch.setattr(np.fft, "rfftn", lambda *a, **k: pytest.fail("transformed"))
        for method in ("fft", "direct"):
            with pytest.raises(ValueError, match=re.escape(message)):
                window(f, bank32, method, factor)


class TestArchitectureArithmetic:
    def test_dense_head_hand_computation(self):
        # 1 feature, widths (512, 512, 256, 256), 102 classes:
        # 1*512+512 + 512*512+512 + 512*256+256 + 256*256+256 + 256*102+102
        expected = (1 * 512 + 512) + (512 * 512 + 512) + (512 * 256 + 256) \
            + (256 * 256 + 256) + (256 * 102 + 102)
        assert expected == 487014
        assert dense_head_parameters(1, (512, 512, 256, 256), 102) == expected

    def test_feature_summary_counts_the_tree(self, bank64):
        f = random_signal((64, 64), seed=9)
        tree = compute_tree(f, bank64, "plain", 1)
        summary = feature_summary(tree, n_classes=102)
        assert summary["layers"][0] == {
            "depth": 0, "paths": 1, "resolution": (64, 64), "coefficients": 4096,
        }
        assert summary["total_features"] == 4096 * 5
        assert summary["dense_head_parameters"] == dense_head_parameters(
            4096 * 5, (512, 512, 256, 256), 102
        )

    def test_maxp_features_are_strictly_smaller(self, bank64):
        f = random_signal((64, 64), seed=10)
        plain = compute_tree(f, bank64, "plain", 2)
        maxp = compute_tree(f, bank64, "maxp", 2, pool_cfg=PoolConfig(2, 2.0, "off"))
        assert (feature_summary(maxp)["total_features"]
                < feature_summary(plain)["total_features"])

    def test_paper_setting_trees_count_their_parameters(self):
        # 224x224, J=3, L=8, depth 2, frequency-decreasing paths, dense head
        # (512, 512, 256, 256) -> 102 classes; every mode's outputs are
        # subsampled by 2^J
        bank = build_morlet_bank(3, 8, (224, 224))
        f = random_signal((224, 224), seed=11)

        def parameters(mode, output_subsample=True):
            tree = compute_tree(f, bank, mode, 2, "frequency_decreasing",
                                PoolConfig(2, 2.0, "off"), output_subsample=output_subsample)
            return feature_summary(tree, n_classes=102)["dense_head_parameters"]

        assert parameters("plain") == 87_592_038  # the reported count
        # naivep (truncating 3x3 block max, 28 -> 9 samples per axis) and maxp
        # (outputs at 28, 14 and 7) are pinned at what the cascades compute,
        # not at the reported 11,596,902 and 9,944,166
        assert parameters("naivep") == 9_485_926
        assert parameters("maxp") == 8_113_254
        # unsubsampled maxp outputs stay at 224, 112 and 56
        assert parameters("maxp", output_subsample=False) == 488_598_630
