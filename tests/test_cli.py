"""Command-line interface: subcommands, exit codes, manifests, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatmaxp
from scatmaxp.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    RunConfig,
    _build_parser,
    _write_json,
    apply_flags,
    load_config,
    main,
)
from scatmaxp.filterbank import BankSpec
from scatmaxp.grid import SignalGrid, read_sgrid, unit_plate, write_sgrid
from scatmaxp.verify import SUITES, VerifyConfig, default_suites


def write_test_pgm(path, size=32, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(size, size), dtype=np.uint8)
    path.write_bytes(f"P5\n{size} {size}\n255\n".encode() + pixels.tobytes())
    return path


class TestConfigFile:
    def test_defaults_are_the_librarys(self):
        cfg, spec, verify = RunConfig(), BankSpec(), VerifyConfig()
        assert cfg.bank_spec() == spec == verify.bank
        assert cfg.pool_config() == verify.pool
        assert (cfg.grid, cfg.seed) == (verify.grid, verify.seed)

    def test_key_value_parsing_with_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("j = 3\ngrid = 128\npool_factor = 2.0\n# comment\nequalize = true\n")
        cfg = load_config(str(cfg_file))
        assert cfg.j == 3 and cfg.grid == (128, 128) and cfg.equalize is True
        assert cfg.mode == "plain"  # untouched default

    def test_rectangular_grid_syntax(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid = 32x64\n")
        assert load_config(str(cfg_file)).grid == (32, 64)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("warp_speed = 9\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(cfg_file))

    def test_verify_depth_key_is_gone(self, tmp_path):
        # depth is the one depth key for every command
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("verify_depth = 2\n")
        with pytest.raises(ValueError, match="unknown config key 'verify_depth'"):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("text,depth", [("", None), ("depth = 1\n", 1), ("depth = none\n", None)])
    def test_depth_key_is_an_optional_int(self, tmp_path, text, depth):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        assert load_config(str(cfg_file)).depth == depth

    @pytest.mark.parametrize("text,argv,expected", [
        ("strict_pooling = true\n", ["scatter", "img.pgm"], {"strict_pooling": True}),
        ("strict_pooling = true\n", ["verify"], {"strict_pooling": True}),
        ("subsample_outputs = true\n", ["scatter", "img.pgm"], {"subsample_outputs": True}),
        ("equalize = false\n", ["filterbank"], {"equalize": False}),
        ("equalize = true\n", ["filterbank", "--raw-bank"], {"equalize": False}),
        ("", ["bench", "--batch", "7", "--modes", "maxp"],
         {"bench_batch": 7, "bench_modes": "maxp"}),
        ("bank_kind = partition\nmode = naivep\npolicy = frequency_decreasing\nformat = csv\n",
         ["scatter", "img.pgm"],
         {"bank_kind": "partition", "mode": "naivep", "policy": "frequency_decreasing",
          "format": "csv"}),
    ])
    def test_config_values_meet_command_line_flags(self, tmp_path, text, argv, expected):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        args = _build_parser().parse_args([*argv, "--config", str(cfg_file)])
        cfg = apply_flags(load_config(args.config), args)
        assert {name: getattr(cfg, name) for name in expected} == expected

    @pytest.mark.parametrize("key,value,message", [
        ("bank_kind", "gabor", "unknown bank kind 'gabor'"),
        ("mode", "maxpool", "unknown mode 'maxpool'"),
        ("policy", "sideways", "unknown path policy 'sideways'"),
        ("format", "sgrid", "unknown output format 'sgrid'"),
    ])
    def test_fixed_value_keys_are_checked(self, tmp_path, key, value, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=message):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("text,message", [
        ("equalize = maybe\n", "config key equalize: expected a boolean, got 'maybe'"),
        ("j = 3\ndepth 2\n", ":2: expected key=value, got 'depth 2'"),
    ])
    def test_malformed_lines_are_named(self, tmp_path, text, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("text,message", [
        ("j = two\n", ":1: config key j: expected an integer, got 'two'"),
        ("grid = 32\npool_factor = abc\n", ":2: config key pool_factor: expected a number, got 'abc'"),
        ("depth = 2.5\n", ":1: config key depth: expected an integer, got '2.5'"),
        ("slant = wide\n", ":1: config key slant: expected a number, got 'wide'"),
        ("grid = 64x\n", ":1: config key grid: expected N or N0xN1, got '64x'"),
        ("grid = abc\n", ":1: config key grid: expected N or N0xN1, got 'abc'"),
    ])
    def test_malformed_values_name_file_line_key_and_form(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_config(str(cfg_file))
        assert str(caught.value) == f"{cfg_file}{message}"
        out = tmp_path / "bank"
        assert main(["filterbank", "--config", str(cfg_file), "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr().err == f"error: {cfg_file}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filterbank", "verify", "bench"])
    @pytest.mark.parametrize("grid", ["64x", "abc", "x64", "8.5", "32x16x"])
    def test_malformed_grid_flag_is_named(self, tmp_path, capsys, command, grid):
        out = tmp_path / "out"
        assert main([command, "--grid", grid, "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr().err == f"error: grid: expected N or N0xN1, got {grid!r}\n"
        assert not out.exists()

    def test_unreadable_config_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(ValueError, match=f"cannot read config file {missing}"):
            load_config(str(missing))
        assert main(["bench", "--config", str(missing), "--out", str(tmp_path / "b")]) == EXIT_FAIL
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_bank_kind_fails_every_bank_command(self, tmp_path, capsys):
        # an unknown kind must not run a Morlet bank and echo the unknown name
        image = write_test_pgm(tmp_path / "img.pgm")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bank_kind = gabor\n")
        for argv in (["filterbank"], ["scatter", str(image)], ["verify", "--suites", "energy"]):
            out = tmp_path / argv[0]
            code = main([*argv, "--config", str(cfg_file), "--out", str(out)])
            assert code == EXIT_FAIL, argv
            assert "unknown bank kind 'gabor'" in capsys.readouterr().err
            assert not out.exists()


class TestFilterbankCommand:
    def test_exports_filters_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "bank"
        code = main(["filterbank", "-J", "2", "-L", "2", "--grid", "64", "--out", str(out)])
        assert code == EXIT_PASS
        files = sorted(p.name for p in out.iterdir())
        assert files == ["manifest.json", "phi.sgrid", "psi_j0_r0.sgrid",
                         "psi_j0_r1.sgrid", "psi_j1_r0.sgrid", "psi_j1_r1.sgrid"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["frame_defect"] <= 0.2
        assert manifest["theorem_constant_B"] > 0
        assert manifest["config"]["grid"] == [64, 64]

    def test_rerun_is_bit_identical(self, tmp_path, monkeypatch):
        for sub in ("run1", "run2"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["filterbank", "-J", "2", "-L", "3", "--grid", "32",
                         "--out", "bank"]) == EXIT_PASS
        for name in ("manifest.json", "phi.sgrid", "psi_j1_r2.sgrid"):
            assert ((tmp_path / "run1" / "bank" / name).read_bytes()
                    == (tmp_path / "run2" / "bank" / name).read_bytes())

    def test_indivisible_grid_fails_with_named_constraint(self, tmp_path, capsys):
        code = main(["filterbank", "-J", "2", "--grid", "50", "--out", str(tmp_path / "x")])
        assert code == EXIT_FAIL
        assert "divisible" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--sigma0", "0"], "sigma0 must be finite and > 0, got 0.0"),
        (["--sigma0", "-1"], "sigma0 must be finite and > 0, got -1.0"),
        (["--sigma0", "nan"], "sigma0 must be finite and > 0, got nan"),
        (["--slant", "0"], "slant must be finite and > 0, got 0.0"),
        (["--xi0", "nan"], "xi0 must be finite, got nan"),
        (["--grid", "15"], "grid axis 15 is not divisible by 2^J = 2"),
        (["--grid", "0"], "grid axis must be >= 1, got 0"),
        (["--grid", "-4"], "grid axis must be >= 1, got -4"),
        (["-J", "0"], "J must be >= 1, got 0"),
        (["-L", "0"], "L must be >= 1, got 0"),
    ])
    def test_malformed_bank_set_up_fails_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bank"
        argv = ["filterbank", "-J", "1", "-L", "2", "--grid", "16", *flags, "--out", str(out)]
        assert main(argv) == EXIT_FAIL
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_partition_manifest_has_no_morlet_parameters(self, tmp_path):
        out = tmp_path / "bank"
        assert main(["filterbank", "--bank-kind", "partition", "--grid", "32",
                     "--out", str(out)]) == EXIT_PASS
        text = (out / "manifest.json").read_text()
        assert '"morlet_params": null' in text
        assert json.loads(text)["kind"] == "partition"

    def test_raw_bank_flag_skips_equalization(self, tmp_path):
        out = tmp_path / "raw"
        code = main(["filterbank", "-J", "2", "-L", "2", "--grid", "64",
                     "--raw-bank", "--out", str(out)])
        assert code == EXIT_PASS
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["equalized"] is False
        assert manifest["frame_defect"] > 0.2  # raw Morlets are far from tight


class TestScatterCommand:
    def test_plain_mode_writes_21_coefficient_maps(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        out = tmp_path / "coeffs"
        code = main(["scatter", str(image), "-J", "2", "-L", "2", "--depth", "2",
                     "--out", str(out)])
        assert code == EXIT_PASS
        produced = sorted((out / "img").glob("coef_*.sgrid"))
        assert len(produced) == 21
        manifest = json.loads((out / "img" / "manifest.json").read_text())
        assert manifest["feature_summary"]["total_features"] == 21 * 32 * 32

    def test_maxp_mode_shrinks_per_layer(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        # --subsample-outputs then keeps every 2^J = 4th sample of each output
        for flags, expected in (([], {0: [32, 32], 1: [16, 16], 2: [8, 8]}),
                                (["--subsample-outputs"], {0: [8, 8], 1: [4, 4], 2: [2, 2]})):
            out = tmp_path / f"coeffs{len(flags)}"
            code = main(["scatter", str(image), "-J", "2", "-L", "2", "--depth", "2",
                         "--mode", "maxp", *flags, "--out", str(out)])
            assert code == EXIT_PASS
            manifest = json.loads((out / "img" / "manifest.json").read_text())
            by_depth = {len(p["path"]): p["plate"]["samples"] for p in manifest["paths"]}
            assert by_depth == expected, flags

    def test_naivep_mode_pools_outputs_three_by_three(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        out = tmp_path / "coeffs"
        code = main(["scatter", str(image), "-J", "2", "-L", "2", "--depth", "1",
                     "--mode", "naivep", "--out", str(out)])
        assert code == EXIT_PASS
        manifest = json.loads((out / "img" / "manifest.json").read_text())
        assert all(p["plate"]["samples"] == [10, 10] for p in manifest["paths"])

    def test_admissibility_flags_count_only_multi_cell_pooling(self, tmp_path):
        # 64x64, J=2, L=2, depth 2: 20 pooled nodes.  2-sample blocks at S = 2 are never
        # checked; 4-sample blocks are, and a bright pixel or noise fails every check
        spike = np.zeros((64, 64), dtype=np.uint8)
        spike[20, 37] = 255
        spike_image = tmp_path / "spike.pgm"
        spike_image.write_bytes(b"P5\n64 64\n255\n" + spike.tobytes())
        noise_image = write_test_pgm(tmp_path / "noise.pgm", size=64, seed=3)
        for image, flags, expected in ((spike_image, [], 0), (spike_image, ["--pool-blocks", "4"], 20),
                                       (noise_image, [], 0), (noise_image, ["--pool-blocks", "4"], 20)):
            out = tmp_path / f"{image.stem}{len(flags)}"
            assert main(["scatter", str(image), "-J", "2", "-L", "2", "--depth", "2",
                         "--mode", "maxp", *flags, "--out", str(out)]) == EXIT_PASS
            manifest = json.loads((out / image.stem / "manifest.json").read_text())
            assert manifest["admissibility_flags"] == expected, (image.stem, flags)

    def test_non_positive_block_samples_fails_before_propagating(self, tmp_path, capsys):
        image = write_test_pgm(tmp_path / "img.pgm")
        out = tmp_path / "coeffs"
        assert main(["scatter", str(image), "--mode", "maxp", "--pool-blocks", "0",
                     "--out", str(out)]) == EXIT_FAIL
        assert "block_samples must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_pooling_factor_below_one_fails_before_running(self, tmp_path, capsys):
        # every command rejects S < 1 while building its pooling set-up, in every mode
        image = write_test_pgm(tmp_path / "img.pgm")
        out = tmp_path / "out"
        for argv in (["scatter", str(image), "--mode", "plain"],
                     ["scatter", str(image), "--mode", "maxp"],
                     ["verify", "--grid", "16", "--suites", "contraction"]):
            assert main([*argv, "--pool-factor", "0.5", "--out", str(out)]) == EXIT_FAIL, argv
            assert "error: pooling factor must be >= 1, got 0.5" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_pooling_factor_fails_before_running(self, tmp_path, capsys, factor):
        # bench has no --pool-factor flag, so it reads the key from a config file
        image = write_test_pgm(tmp_path / "img.pgm")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"pool_factor = {factor}\n")
        out = tmp_path / "out"
        for argv in (["scatter", str(image), "--mode", "plain", "--pool-factor", factor],
                     ["scatter", str(image), "--mode", "maxp", "--pool-factor", factor],
                     ["verify", "--grid", "16", "--suites", "contraction", "--pool-factor", factor],
                     ["bench", "--grid", "16", "--config", str(cfg_file)]):
            assert main([*argv, "--out", str(out)]) == EXIT_FAIL, argv
            assert capsys.readouterr().err == f"error: pooling factor must be finite, got {factor}\n"
            assert not out.exists()

    def test_every_input_grid_is_checked_before_any_output(self, tmp_path, capsys, monkeypatch):
        good = write_test_pgm(tmp_path / "a.pgm", size=32)
        bad = write_test_pgm(tmp_path / "b.pgm", size=30)

        def no_bank(self, shape):
            raise AssertionError("a bank was built")

        monkeypatch.setattr(BankSpec, "build", no_bank)
        out = tmp_path / "coeffs"
        assert main(["scatter", str(good), str(bad), "-J", "2", "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr().err == f"error: {bad}: grid axis 30 is not divisible by 2^J = 4\n"
        assert not out.exists()

    def test_csv_export(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        out = tmp_path / "coeffs"
        code = main(["scatter", str(image), "-J", "2", "-L", "2", "--depth", "1",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_PASS
        lines = (out / "img" / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "path_id,sample_index,re,im"
        assert len(lines) == 1 + 5 * 32 * 32

    def test_sgrid_input_roundtrips(self, tmp_path):
        f = SignalGrid(unit_plate((32, 32)), np.random.default_rng(1).random((32, 32)))
        source = tmp_path / "sig.sgrid"
        write_sgrid(f, source)
        out = tmp_path / "coeffs"
        code = main(["scatter", str(source), "-J", "2", "-L", "2", "--depth", "0",
                     "--out", str(out)])
        assert code == EXIT_PASS
        coef = read_sgrid(out / "sig" / "coef_0000.sgrid")
        assert coef.shape == (32, 32)

    def test_unknown_policy_in_config_fails_before_writing(self, tmp_path, capsys):
        image = write_test_pgm(tmp_path / "img.pgm")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("policy = frequency_decreasign\n")
        out = tmp_path / "coeffs"
        code = main(["scatter", str(image), "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_FAIL
        assert "unknown path policy" in capsys.readouterr().err
        assert not (out / "img" / "manifest.json").exists()

    def test_unknown_format_in_config_fails_before_reading(self, tmp_path, capsys):
        image = write_test_pgm(tmp_path / "img.pgm")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("format = sgrid\n")
        out = tmp_path / "coeffs"
        code = main(["scatter", str(image), "--config", str(cfg_file), "--depth", "1",
                     "--out", str(out)])
        assert code == EXIT_FAIL
        assert "unknown output format 'sgrid'" in capsys.readouterr().err
        assert not (out / "img").exists()

    def test_unsupported_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "img.jpeg"
        bad.write_bytes(b"\xff\xd8")
        assert main(["scatter", str(bad), "--out", str(tmp_path / "x")]) == EXIT_FAIL
        assert "unsupported input format" in capsys.readouterr().err


class TestVerifyCommand:
    FAST = ["--grid", "32", "--depth", "2", "--trials-contraction", "30",
            "--trials-commutation", "10", "--trials-equivariance", "2",
            "--energy-inputs", "1", "--decay-inputs", "1"]

    def test_all_suites_pass_and_write_reports(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", *self.FAST, "--out", str(out)])
        assert code == EXIT_PASS
        text = capsys.readouterr().out
        assert text.count("[PASS") == 5
        for name in ("contraction", "commutation", "energy", "decay", "equivariance"):
            assert (out / f"{name}.csv").exists()
        assert (out / "summary.txt").exists()

    def test_fixed_seed_reproduces_identical_csv_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["verify", *self.FAST, "--seed", "7", "--out", str(out)]) == EXIT_PASS
        for name in ("contraction", "energy", "decay"):
            assert (out_a / f"{name}.csv").read_bytes() == (out_b / f"{name}.csv").read_bytes()

    def test_inadmissible_pooling_factor_is_inconclusive(self, tmp_path, capsys):
        argv = ["verify", "--suites", "contraction", "--grid", "32",
                "--trials-contraction", "10", "--out", str(tmp_path / "verify")]
        assert main([*argv, "--pool-factor", "1"]) == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in capsys.readouterr().out
        # a factor that does not fit the grid is a named precondition failure
        assert main([*argv, "--pool-factor", "1.000001"]) == EXIT_FAIL
        assert "does not divide 32 samples evenly" in capsys.readouterr().out

    def test_strict_pooling_failure_names_the_precondition(self, tmp_path, capsys):
        # with 4-sample blocks at S = 2 spike inputs violate strict admissibility
        out = tmp_path / "verify"
        code = main(["verify", "--suites", "energy", "--grid", "32", "--depth", "2",
                     "--energy-inputs", "2", "--pool-blocks", "4", "--strict-pooling",
                     "--out", str(out)])
        assert code == EXIT_FAIL
        assert "threshold" in capsys.readouterr().out

    def test_decay_shift_is_aligned_for_multi_sample_blocks(self, tmp_path, capsys):
        # the shift is block_samples S^(depth-1) spacings: 8 samples here, where
        # S^depth = 4 would halve to 2 samples on 4-sample sub-plates at depth 1
        argv = ["verify", *self.FAST, "--suites", "decay", "--pool-blocks", "4"]
        assert main([*argv, "--out", str(tmp_path / "off")]) == EXIT_PASS
        assert "decay: 5 passed" in capsys.readouterr().out
        # uniform inputs are inadmissible at S = 2 with 4-sample blocks; strict names it
        assert main([*argv, "--strict-pooling", "--out", str(tmp_path / "strict")]) == EXIT_FAIL
        text = capsys.readouterr().out
        assert "[FAIL        ] decay: precondition violated: pooling failed" in text
        assert "threshold" in text

    def test_pooling_keys_in_config_reach_the_suites(self, tmp_path, capsys):
        cfg_file = tmp_path / "pool.cfg"
        argv = ["verify", *self.FAST, "--energy-inputs", "2",
                "--suites", "contraction,commutation,energy", "--config", str(cfg_file)]
        cfg_file.write_text("pool_blocks = 4\npool_factor = 4.0\n")
        assert main([*argv, "--out", str(tmp_path / "warn")]) == EXIT_PASS
        for name, env in (("contraction", "# env allowed_factors=(4.0,)"),
                          ("commutation", "# env S=4.0"),
                          ("energy", "# env S=4.0")):
            lines = (tmp_path / "warn" / f"{name}.csv").read_text().splitlines()
            assert env in lines, name
            if name != "energy":
                assert "# env block_samples=4" in lines, name
        capsys.readouterr()
        # at S=2 the spike input of the energy suite is inadmissible
        cfg_file.write_text("pool_blocks = 4\npool_factor = 2.0\nstrict_pooling = true\n")
        assert main([*argv, "--out", str(tmp_path / "strict")]) == EXIT_FAIL
        text = capsys.readouterr().out
        assert "[FAIL        ] energy: precondition violated: pooling failed" in text
        assert "threshold" in text

    def test_pool_blocks_flag_reaches_the_suites(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", *self.FAST, "--suites", "contraction,commutation",
                     "--pool-blocks", "4", "--pool-factor", "4", "--out", str(out)]) == EXIT_PASS
        for name in ("contraction", "commutation"):
            assert "# env block_samples=4" in (out / f"{name}.csv").read_text().splitlines()
        assert "# config pool_blocks=4" in (out / "summary.txt").read_text().splitlines()

    def test_morlet_parameters_reach_the_bank(self, tmp_path):
        energies = []
        for sigma0 in ("0.8", "1.6"):
            cfg_file = tmp_path / f"sigma{sigma0}.cfg"
            cfg_file.write_text(f"sigma0 = {sigma0}\n")
            out = tmp_path / f"verify{sigma0}"
            main(["verify", *self.FAST, "--suites", "energy", "--config", str(cfg_file),
                  "--out", str(out)])
            lines = (out / "energy.csv").read_text().splitlines()
            energies.append([line for line in lines if "energies" in line])
            # the report environment names the bank that made the numbers
            assert [line for line in lines if line.startswith("# env sigma0=")] == [
                f"# env sigma0={sigma0}"
            ]
        assert energies[0] and energies[0] != energies[1]

    def test_non_full_policy_rejected(self, tmp_path, capsys):
        # the suites certify the full path set; another policy must not be echoed as if run
        expected = {
            "sideways": "unknown path policy 'sideways'",
            "frequency_decreasing": "full path set only, not policy 'frequency_decreasing'",
        }
        for policy, message in expected.items():
            cfg_file = tmp_path / f"{policy}.cfg"
            cfg_file.write_text(f"policy = {policy}\n")
            out = tmp_path / policy
            code = main(["verify", *self.FAST, "--suites", "energy", "--config", str(cfg_file),
                         "--out", str(out)])
            assert code == EXIT_FAIL
            assert message in capsys.readouterr().err
            assert not out.exists()

    COUNT_FLAGS = {"energy": "--energy-inputs", "decay": "--decay-inputs",
                   "contraction": "--trials-contraction", "commutation": "--trials-commutation",
                   "equivariance": "--trials-equivariance"}

    @pytest.mark.parametrize("suite", ["energy", "decay", "contraction", "commutation",
                                       "equivariance"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_input_count_below_one_is_a_named_precondition(self, tmp_path, capsys, suite, count):
        out = tmp_path / "verify"
        code = main(["verify", *self.FAST, "--suites", suite, self.COUNT_FLAGS[suite], count,
                     "--out", str(out)])
        assert code == EXIT_FAIL
        assert (f"[FAIL        ] {suite}: precondition violated: "
                f"need at least one input, got {count}") in capsys.readouterr().out
        assert not (out / f"{suite}.csv").exists()

    def test_untiled_grid_is_named_before_the_decay_shift(self, tmp_path, capsys):
        # the decay shift (12 samples) lands between cells at depth 3, but the
        # real fault is that 3-sample sub-plates do not tile 16 samples
        code = main(["verify", "--grid", "16", "--pool-blocks", "3", "--suites", "decay",
                     "--decay-inputs", "1", "--out", str(tmp_path / "verify")])
        assert code == EXIT_FAIL
        assert ("[FAIL        ] decay: precondition violated: pooling failed at depth 1: "
                "16 samples are not divisible into sub-plates of 3") in capsys.readouterr().out

    def test_suite_names_are_stated_once(self, capsys):
        assert RunConfig().suites == ",".join(SUITES)
        assert list(default_suites(VerifyConfig(), {})) == list(SUITES)
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "contraction,commutation,energy,decay,equivariance" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("j = 0\n", "J must be >= 1, got 0"),
        ("l = 0\n", "L must be >= 1, got 0"),
        ("xi0 = inf\n", "xi0 must be finite, got inf"),
    ], ids=["J", "L", "xi0"])
    def test_malformed_bank_set_up_fails_before_any_suite(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "verify"
        assert main(["verify", *self.FAST, "--config", str(cfg_file), "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "30", "-J", "2"], "grid axis 30 is not divisible by 2^J = 4"),
        (["--grid", "0"], "grid axis must be >= 1, got 0"),
    ], ids=["untiled", "empty"])
    def test_grid_the_bank_refuses_fails_before_any_suite(self, tmp_path, capsys, argv, message):
        out = tmp_path / "verify"
        # FAST[2:] drops FAST's own --grid
        assert main(["verify", *self.FAST[2:], *argv, "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_suites_without_the_bank_on_the_grid_run_on_any_grid(self, tmp_path, capsys):
        # contraction and commutation build no bank; equivariance has a grid of its own
        out = tmp_path / "verify"
        suites = ["contraction", "commutation", "equivariance"]
        argv = [*self.FAST[2:], "--grid", "30", "-J", "2", "--suites", ",".join(suites)]
        assert main(["verify", *argv, "--out", str(out)]) == EXIT_PASS
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{s}.csv" for s in suites] + ["summary.txt"])

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        code = main(["verify", "--suites", "astrology", "--out", str(tmp_path / "x")])
        assert code == EXIT_FAIL
        assert "unknown suites" in capsys.readouterr().err


class TestDepth:
    """One depth key and one --depth flag for scatter, verify and bench."""

    VERIFY = ["verify", "--suites", "energy", "--grid", "32", "--energy-inputs", "1"]

    @staticmethod
    def energy_env_depth(out):
        lines = (out / "energy.csv").read_text().splitlines()
        return [line for line in lines if line.startswith("# env max_depth=")]

    def test_verify_reads_the_depth_key_and_the_flag_overrides_it(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("depth = 1\n")
        out = tmp_path / "key"
        assert main([*self.VERIFY, "--config", str(cfg_file), "--out", str(out)]) == EXIT_PASS
        assert self.energy_env_depth(out) == ["# env max_depth=1"]
        assert "# config depth=1" in (out / "summary.txt").read_text().splitlines()
        out = tmp_path / "flag"
        assert main([*self.VERIFY, "--config", str(cfg_file), "--depth", "2",
                     "--out", str(out)]) == EXIT_PASS
        assert self.energy_env_depth(out) == ["# env max_depth=2"]

    def test_verify_defaults_to_depth_3_and_echoes_it(self, tmp_path):
        out = tmp_path / "verify"
        assert main([*self.VERIFY, "--out", str(out)]) == EXIT_PASS
        assert self.energy_env_depth(out) == ["# env max_depth=3"]
        echo = (out / "summary.txt").read_text().splitlines()
        assert "# config depth=3" in echo
        assert not any("verify_depth" in line for line in echo)

    def test_scatter_and_bench_default_to_depth_2(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        assert main(["scatter", str(image), "--out", str(tmp_path / "s")]) == EXIT_PASS
        manifest = json.loads((tmp_path / "s" / "img" / "manifest.json").read_text())
        assert manifest["max_depth"] == 2 and manifest["config"]["depth"] == 2
        assert main(["bench", "--grid", "32", "--batch", "1", "--modes", "plain",
                     "--out", str(tmp_path / "b")]) == EXIT_PASS
        payload = json.loads((tmp_path / "b" / "bench.json").read_text())
        assert payload["config"]["depth"] == 2
        assert list(payload["results"]["plain"]["per_layer_samples"]) == ["0", "1", "2"]

    def test_depth_key_reaches_scatter_and_bench(self, tmp_path):
        image = write_test_pgm(tmp_path / "img.pgm")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("depth = 1\n")
        assert main(["scatter", str(image), "--config", str(cfg_file),
                     "--out", str(tmp_path / "s")]) == EXIT_PASS
        manifest = json.loads((tmp_path / "s" / "img" / "manifest.json").read_text())
        assert manifest["max_depth"] == 1
        assert main(["bench", "--config", str(cfg_file), "--grid", "32", "--batch", "1",
                     "--modes", "plain", "--out", str(tmp_path / "b")]) == EXIT_PASS
        payload = json.loads((tmp_path / "b" / "bench.json").read_text())
        assert list(payload["results"]["plain"]["per_layer_samples"]) == ["0", "1"]


class TestBenchCommand:
    def test_reports_throughput_and_sample_advantage(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--grid", "32", "--depth", "2", "--batch", "2",
                     "--out", str(out)])
        assert code == EXIT_PASS
        text = capsys.readouterr().out
        assert "signals/s" in text
        assert "maxp propagates" in text and "ok" in text
        payload = json.loads((out / "bench.json").read_text())
        plain = payload["results"]["plain"]["propagated_samples_per_signal"]
        maxp = payload["results"]["maxp"]["propagated_samples_per_signal"]
        assert maxp < plain
        # 21 full paths at depth 2, each output on the 32x32 grid
        summary = payload["results"]["plain"]["feature_summary"]
        assert summary["total_features"] == 21 * 32 * 32
        assert f"{summary['dense_head_parameters']:,} dense-head parameters" in text
        assert set(payload) == {"results", "config"}

    def test_depth_zero_modes_tie(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--grid", "32", "--depth", "0", "--batch", "1",
                     "--modes", "plain,maxp", "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads((out / "bench.json").read_text())
        assert (payload["results"]["plain"]["propagated_samples_per_signal"]
                == payload["results"]["maxp"]["propagated_samples_per_signal"])

    @pytest.mark.filterwarnings("ignore::scatmaxp.pooling.AdmissibilityWarning")
    def test_gate_prints_the_relation_that_holds(self, tmp_path, capsys):
        # S = 1 pools without shrinking, so maxp propagates as many samples as plain
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("pool_factor = 1\n")
        argv = ["bench", "--grid", "16", "--batch", "1", "--modes", "plain,maxp"]
        code = main([*argv, "--config", str(cfg_file), "--depth", "1",
                     "--out", str(tmp_path / "s1")])
        assert code == EXIT_FAIL
        assert "maxp propagates 1280 >= plain 1280: VIOLATED" in capsys.readouterr().out
        # depth 0 has no pooling, so the tie passes
        assert main([*argv, "--depth", "0", "--out", str(tmp_path / "d0")]) == EXIT_PASS
        assert "maxp propagates 256 >= plain 256: ok" in capsys.readouterr().out

    def test_subsample_outputs_key_reaches_the_trees(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("subsample_outputs = true\nbench_modes = plain,naivep,maxp\n")
        out = tmp_path / "bench"
        code = main(["bench", "--config", str(cfg_file), "--grid", "32", "--depth", "1",
                     "--batch", "1", "--out", str(out)])
        assert code == EXIT_PASS
        results = json.loads((out / "bench.json").read_text())["results"]
        # 5 paths up to depth 1; outputs subsampled by 2^J = 4 to 8x8, then
        # naivep's truncating 3x3 block max leaves 2x2
        assert results["plain"]["feature_summary"]["total_features"] == 5 * 8 * 8
        assert results["naivep"]["feature_summary"]["total_features"] == 5 * 2 * 2
        # maxp: the root's 32x32 window and four 16x16 depth-1 windows, each by 4
        assert results["maxp"]["feature_summary"]["total_features"] == 64 + 4 * 16

    @pytest.mark.parametrize("modes, message", [
        ("plain,plian", "unknown mode 'plian'"),
        (",", "bench modes name no mode, got ','"),
        ("maxp,plain,maxp", "bench modes name 'maxp' twice"),
    ])
    def test_bad_mode_list_fails_before_any_bank(self, tmp_path, capsys, monkeypatch, modes,
                                                  message):
        def no_bank(self, shape):
            raise AssertionError("a bank was built")

        monkeypatch.setattr(BankSpec, "build", no_bank)
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(f"subsample_outputs = true\nbench_modes = {modes}\n")
        out = tmp_path / "bench"
        code = main(["bench", "--config", str(cfg_file), "--grid", "32", "--depth", "1",
                     "--batch", "1", "--out", str(out)])
        assert code == EXIT_FAIL
        captured = capsys.readouterr()
        assert message in captured.err
        assert "signals/s" not in captured.out
        assert not (out / "bench.json").exists()

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_batch_below_one_fails_before_any_bank(self, tmp_path, capsys, monkeypatch, batch):
        def no_bank(self, shape):
            raise AssertionError("a bank was built")

        monkeypatch.setattr(BankSpec, "build", no_bank)
        out = tmp_path / "bench"
        code = main(["bench", "--grid", "32", "--batch", batch, "--out", str(out)])
        assert code == EXIT_FAIL
        assert f"need at least one signal in the batch, got {batch}" in capsys.readouterr().err
        assert not (out / "bench.json").exists()


class TestRunConfigChecks:
    @pytest.mark.parametrize("argv, message", [
        (["scatter", "img.pgm", "--n-classes", "-5"], "n_classes must be >= 1, got -5"),
        (["bench", "--grid", "16", "--n-classes", "0"], "n_classes must be >= 1, got 0"),
        (["verify", "--grid", "16", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bench", "--grid", "16", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["scatter-n-classes", "bench-n-classes", "verify-seed", "bench-seed"])
    def test_malformed_count_or_seed_fails_before_any_work(self, tmp_path, capsys, argv, message):
        write_test_pgm(tmp_path / "img.pgm")
        argv = [str(tmp_path / a) if a == "img.pgm" else a for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


SRC_DIR = Path(scatmaxp.__file__).resolve().parent.parent


def run_module(*args):
    """Run ``python -m scatmaxp ARGS`` in a separate process on the imported package's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "scatmaxp", *args],
                          capture_output=True, text=True, env=env)


def assert_prints_usage(result):
    assert result.returncode == EXIT_PASS
    assert result.stdout.startswith("usage: scatmaxp")
    for name in ("filterbank", "scatter", "verify", "bench"):
        assert name in result.stdout


class TestStrictJson:
    def test_every_manifest_parses_as_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        image = write_test_pgm(tmp_path / "img.pgm")
        runs = [(["filterbank", "-J", "2", "-L", "2", "--grid", "32"], "manifest.json"),
                (["filterbank", "--bank-kind", "partition", "--grid", "32"], "manifest.json"),
                (["scatter", str(image), "--mode", "maxp"], "img/manifest.json"),
                (["scatter", str(image), "--format", "csv", "--depth", "1"], "img/manifest.json"),
                (["bench", "--grid", "32", "--batch", "1"], "bench.json")]
        for i, (argv, name) in enumerate(runs):
            out = tmp_path / f"run{i}"
            assert main([*argv, "--out", str(out)]) == EXIT_PASS, argv
            assert json.loads((out / name).read_text(), parse_constant=refuse), argv

    def test_a_non_finite_value_is_refused_before_writing(self, tmp_path):
        target = tmp_path / "manifest.json"
        with pytest.raises(ValueError, match="Out of range float values"):
            _write_json(target, {"pool_factor": float("nan")})
        assert not target.exists()


class TestConsoleScript:
    def test_entry_point_prints_usage(self):
        assert_prints_usage(run_module("--help"))

    def test_entry_point_missing_subcommand_exits_2(self):
        result = run_module()
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("usage: scatmaxp")

    def test_entry_point_passes_on_main_status(self, tmp_path):
        # main() returns EXIT_FAIL here rather than raising SystemExit, so a
        # __main__ that dropped the return value would exit 0.
        result = run_module("scatter", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "out"))
        assert result.returncode == EXIT_FAIL
        assert "cannot read input" in result.stderr

    def test_console_script_names_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = SRC_DIR.parent / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("scatmaxp is not imported from a source checkout")
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"scatmaxp": "scatmaxp.cli:main"}

    @pytest.mark.skipif(shutil.which("scatmaxp") is None, reason="scatmaxp console script not installed")
    def test_installed_script_prints_usage(self):
        assert_prints_usage(subprocess.run(["scatmaxp", "--help"], capture_output=True, text=True))


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--unknown-flag"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["scatter", "img.pgm", "--grid", "32"],  # banks are built on each input's shape
        ["scatter", "img.pgm", "--seed", "1"],
        ["filterbank", "--seed", "1"],
    ])
    def test_flags_a_command_never_reads_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_grid_and_seed_keys_still_reach_the_commands_that_read_them(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid = 16\nseed = 7\n")
        assert main(["filterbank", "--config", str(cfg_file),
                     "--out", str(tmp_path / "f")]) == EXIT_PASS
        assert json.loads((tmp_path / "f" / "manifest.json").read_text())["grid"] == [16, 16]
        assert main(["verify", "--config", str(cfg_file), "--suites", "contraction",
                     "--trials-contraction", "4", "--out", str(tmp_path / "v")]) == EXIT_PASS
        lines = (tmp_path / "v" / "contraction.csv").read_text().splitlines()
        assert {"# env grid=(16, 16)", "# env seed=7"} <= set(lines)
        assert main(["bench", "--config", str(cfg_file), "--depth", "1", "--batch", "1",
                     "--modes", "plain", "--out", str(tmp_path / "b")]) == EXIT_PASS
        config = json.loads((tmp_path / "b" / "bench.json").read_text())["config"]
        assert (config["grid"], config["seed"]) == ([16, 16], 7)
