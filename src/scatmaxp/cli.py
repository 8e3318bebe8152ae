"""Command-line entry point: filterbank export, feature extraction, verification, benchmarks.

Every command is deterministic given (config, seed, input files); the
effective configuration is echoed into every manifest so a result set is
reproducible from its own outputs.  Exit codes: 0 pass, 1 failure, 2 usage
error, 3 inconclusive.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path as FsPath

import numpy as np

from .filterbank import BANK_KINDS, BankSpec, MorletParams, frame_defect, theorem_constant_B
from .filterbank import _checked_grid  # the bank's own grid rule, checked before any is built
from .filterbank import build_morlet_bank  # not called here; perfbench/tracing.py patches this name
from .grid import SignalGrid, read_pgm, read_sgrid, unit_plate, write_sgrid
from .pooling import AdmissibilityWarning
from .scattering import MODES, PATH_POLICIES, PoolConfig, check_mode, compute_tree, feature_summary
from .verify import SUITES, VerifyConfig, default_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

OUTPUT_FORMATS = ("sgrid-manifest", "csv")
CASCADE_DEPTH = 2  # scatter and bench; verify certifies at VerifyConfig.max_depth


@dataclass
class RunConfig:
    """Flat configuration shared by all subcommands; every field has a default."""

    j: int = BankSpec.J
    l: int = BankSpec.L
    grid: tuple[int, ...] = VerifyConfig.grid
    sigma0: float = MorletParams.sigma0
    xi0: float = MorletParams.xi0
    slant: float | None = MorletParams.slant
    equalize: bool = BankSpec.equalize
    bank_kind: str = BankSpec.kind
    mode: str = "plain"
    depth: int | None = None  # None: the command's own default, resolved in main
    policy: str = "full"
    pool_blocks: int = PoolConfig.block_samples
    pool_factor: float = PoolConfig.factor
    strict_pooling: bool = False
    subsample_outputs: bool = False
    format: str = "sgrid-manifest"
    out: str = "scatmaxp-out"
    seed: int = VerifyConfig.seed
    suites: str = ",".join(SUITES)
    trials_contraction: int = 1000
    trials_commutation: int = 200
    trials_equivariance: int = 50
    energy_inputs: int = 10
    decay_inputs: int = 5
    bench_batch: int = 4
    bench_modes: str = "plain,maxp,naivep"
    n_classes: int = 102

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def effective(self) -> dict:
        d = asdict(self)
        d["grid"] = list(self.grid)
        return d

    def bank_spec(self) -> BankSpec:
        return BankSpec(self.j, self.l, self.bank_kind, self.equalize,
                        MorletParams(self.sigma0, self.xi0, self.slant))

    def pool_config(self) -> PoolConfig:
        return PoolConfig(self.pool_blocks, self.pool_factor,
                          "strict" if self.strict_pooling else "warn")

    def tree(self, f: SignalGrid, bank, mode: str):
        return compute_tree(f, bank, mode=mode, max_depth=self.depth, policy=self.policy,
                            pool_cfg=self.pool_config(), output_subsample=self.subsample_outputs)


# the form each typed field's text must have, named in the error when it does not
_FORMS = {"int": "an integer", "float": "a number", "bool": "a boolean",
          "tuple[int, ...]": "N or N0xN1"}


def _coerce(name: str, kind: str, raw: str):
    """The value of field ``name`` spelled ``raw``; a malformed one fails naming both."""
    raw = raw.strip()
    if kind.endswith(" | None"):
        return None if raw.lower() in ("none", "") else _coerce(name, kind[:-len(" | None")], raw)
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return {"1": True, "true": True, "yes": True, "on": True,
                    "0": False, "false": False, "no": False, "off": False}[raw.lower()]
        if kind == "tuple[int, ...]":
            parts = raw.lower().split("x")
            return tuple(int(p) for p in parts) if len(parts) > 1 else (int(raw), int(raw))
    except (KeyError, ValueError):
        raise ValueError(f"{name}: expected {_FORMS[kind]}, got {raw!r}") from None
    return raw


_FIELD_KINDS = {f.name: f.type for f in fields(RunConfig)}

# keys with a fixed value set: the name used in errors and the argparse choices
_FIELD_CHOICES = {
    "bank_kind": ("bank kind", BANK_KINDS),
    "mode": ("mode", MODES),
    "policy": ("path policy", PATH_POLICIES),
    "format": ("output format", OUTPUT_FORMATS),
}


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    updates = {}
    try:
        text = FsPath(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _FIELD_KINDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            updates[key] = _coerce(key, _FIELD_KINDS[key], value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: config key {exc}") from None
        if key in _FIELD_CHOICES:
            label, choices = _FIELD_CHOICES[key]
            if updates[key] not in choices:
                raise ValueError(f"{path}:{lineno}: unknown {label} {updates[key]!r}")
    return replace(cfg, **updates)


def apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Overlay every flag given on the command line; argparse dests are the field names."""
    updates = {}
    for name, kind in _FIELD_KINDS.items():
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = _coerce(name, kind, value) if name == "grid" else value
    return replace(cfg, **updates)


def _write_json(path: FsPath, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_filterbank(cfg: RunConfig) -> int:
    bank = cfg.bank_spec().build(cfg.grid)
    out = FsPath(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    plate = unit_plate(cfg.grid)
    files = {}
    for index in bank.indices:
        name = f"psi_j{index.j}_r{index.r}.sgrid"
        write_sgrid(SignalGrid(plate, bank.psi_hat[index]), out / name)
        files[f"psi_j{index.j}_r{index.r}"] = name
    write_sgrid(SignalGrid(plate, bank.phi_hat), out / "phi.sgrid")
    files["phi"] = "phi.sgrid"
    manifest = {
        "kind": bank.spec.kind,
        "J": bank.J,
        "L": bank.L,
        "grid": list(cfg.grid),
        "morlet_params": asdict(bank.spec.morlet_params) if bank.spec.morlet_params else None,
        "equalized": bank.spec.equalized,
        "frame_defect": frame_defect(bank),
        "theorem_constant_B": theorem_constant_B(bank),
        "files": files,
        "config": cfg.effective(),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {len(files)} filters + manifest to {out}")
    print(f"frame defect eps_LP = {manifest['frame_defect']:.6g}, B = {manifest['theorem_constant_B']:.6g}")
    return EXIT_PASS


def _read_input(path: str) -> SignalGrid:
    suffix = FsPath(path).suffix.lower()
    try:
        if suffix == ".pgm":
            return read_pgm(path)
        if suffix == ".sgrid":
            return read_sgrid(path)
    except OSError as exc:
        raise ValueError(f"cannot read input {path}: {exc}") from exc
    raise ValueError(f"unsupported input format {path!r} (expected .pgm or .sgrid)")


def _scatter_one(cfg: RunConfig, input_path: str, f: SignalGrid) -> str:
    bank = cfg.bank_spec().build(f.shape)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AdmissibilityWarning)
        tree = cfg.tree(f, bank, cfg.mode)
    admissibility_flags = sum(issubclass(w.category, AdmissibilityWarning) for w in caught)
    summary = feature_summary(tree, n_classes=cfg.n_classes)
    out = FsPath(cfg.out) / FsPath(input_path).stem
    out.mkdir(parents=True, exist_ok=True)
    paths = sorted(tree.outputs)
    path_meta = []
    if cfg.format == "sgrid-manifest":
        for i, p in enumerate(paths):
            name = f"coef_{i:04d}.sgrid"
            write_sgrid(tree.outputs[p], out / name)
            g = tree.outputs[p].plate
            path_meta.append({
                "id": i, "path": [[lam.j, lam.r] for lam in p], "file": name,
                "plate": {"origin": list(g.origin), "side_lengths": list(g.side_lengths),
                          "samples": list(g.samples_per_axis)},
            })
    else:  # csv
        lines = ["path_id,sample_index,re,im"]
        for i, p in enumerate(paths):
            flat = tree.outputs[p].values.ravel()
            lines.extend(
                f"{i},{k},{v.real:.17g},{v.imag:.17g}" for k, v in enumerate(flat)
            )
            path_meta.append({"id": i, "path": [[lam.j, lam.r] for lam in p],
                              "samples": list(tree.outputs[p].plate.samples_per_axis)})
        (out / "coefficients.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "manifest.json", {
        "input": str(input_path),
        "mode": cfg.mode,
        "policy": cfg.policy,
        "max_depth": cfg.depth,
        "output_subsample": cfg.subsample_outputs,
        "admissibility_flags": admissibility_flags,
        "paths": path_meta,
        "feature_summary": summary,
        "config": cfg.effective(),
    })
    return f"{input_path}: {len(paths)} coefficient maps, {summary['total_features']} features -> {out}"


def cmd_scatter(cfg: RunConfig, inputs: list[str]) -> int:
    # every input is read and its grid checked before any bank is built or output written
    spec = cfg.bank_spec()
    signals = [_read_input(p) for p in inputs]
    for p, f in zip(inputs, signals):
        try:
            _checked_grid(spec, f.shape)
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from exc
    messages = [_scatter_one(cfg, p, f) for p, f in zip(inputs, signals)]
    for message in messages:
        print(message)
    return EXIT_PASS


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.policy != "full":
        raise ValueError(f"verify certifies the full path set only, not policy {cfg.policy!r}")
    vconfig = VerifyConfig(seed=cfg.seed, grid=cfg.grid, bank=cfg.bank_spec(),
                           pool=cfg.pool_config(), max_depth=cfg.depth)
    trials = {
        "contraction": cfg.trials_contraction,
        "commutation": cfg.trials_commutation,
        "equivariance": cfg.trials_equivariance,
        "energy": cfg.energy_inputs,
        "decay": cfg.decay_inputs,
    }
    available = default_suites(vconfig, trials)
    selected = [s.strip() for s in cfg.suites.split(",") if s.strip()]
    unknown = [s for s in selected if s not in available]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {sorted(available)}")
    if {"energy", "decay"} & set(selected):
        # these suites realize the bank on the grid: check it before any suite runs or writes
        _checked_grid(vconfig.bank, vconfig.grid)
    out = FsPath(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    verdicts = []
    for name in selected:
        try:
            report = available[name]()
        except ValueError as exc:
            lines.append(f"[FAIL        ] {name}: precondition violated: {exc}")
            verdicts.append("fail")
            continue
        (out / f"{name}.csv").write_text(report.to_csv())
        lines.append(report.summary_line())
        verdicts.append(report.verdict)
    text = "\n".join(lines)
    echo = "\n".join(f"# config {k}={v}" for k, v in sorted(cfg.effective().items()))
    (out / "summary.txt").write_text(text + "\n" + echo + "\n")
    print(text)
    if any(v == "fail" for v in verdicts):
        return EXIT_FAIL
    if verdicts and all(v == "inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_bench(cfg: RunConfig) -> int:
    modes = [m.strip() for m in cfg.bench_modes.split(",") if m.strip()]
    if not modes:
        raise ValueError(f"bench modes name no mode, got {cfg.bench_modes!r}")
    for i, mode in enumerate(modes):
        check_mode(mode)
        if mode in modes[:i]:
            raise ValueError(f"bench modes name {mode!r} twice")
    if cfg.bench_batch < 1:
        raise ValueError(f"need at least one signal in the batch, got {cfg.bench_batch}")
    rng = np.random.default_rng(cfg.seed)
    plate = unit_plate(cfg.grid, centered=True)
    batch = [SignalGrid(plate, rng.random(cfg.grid)) for _ in range(cfg.bench_batch)]
    bank = cfg.bank_spec().build(cfg.grid)
    results = {}
    for mode in modes:
        start = time.perf_counter()
        trees = [cfg.tree(f, bank, mode) for f in batch]
        elapsed = time.perf_counter() - start
        tree = trees[0]
        per_layer = {
            m: sum(int(np.prod(tree.nodes[p].shape)) for p in tree.paths_at(m))
            for m in range(cfg.depth + 1)
        }
        summary = feature_summary(tree, n_classes=cfg.n_classes)
        results[mode] = {
            "signals_per_second": len(batch) / elapsed,
            "seconds_total": elapsed,
            "propagated_samples_per_signal": tree.total_node_samples(),
            "per_layer_samples": per_layer,
            "feature_summary": summary,
        }
        print(
            f"{mode:7s} {results[mode]['signals_per_second']:8.2f} signals/s, "
            f"{results[mode]['propagated_samples_per_signal']} propagated samples/signal, "
            f"{summary['total_features']} features, "
            f"{summary['dense_head_parameters']:,} dense-head parameters"
        )
    status = EXIT_PASS
    if "plain" in results and "maxp" in results:
        plain_n = results["plain"]["propagated_samples_per_signal"]
        maxp_n = results["maxp"]["propagated_samples_per_signal"]
        ok = maxp_n < plain_n or cfg.depth == 0
        relation = "<" if maxp_n < plain_n else ">="
        print(f"maxp propagates {maxp_n} {relation} plain {plain_n}: {'ok' if ok else 'VIOLATED'}")
        if not ok:
            status = EXIT_FAIL
    out = FsPath(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "bench.json", {"results": results, "config": cfg.effective()})
    return status


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatmaxp",
        description="Windowed scattering transform with continuous max-pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="plain-text key=value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("-J", dest="j", type=int, help="scaling level")
        p.add_argument("-L", dest="l", type=int, help="rotation count")
        p.add_argument("--bank-kind", dest="bank_kind", choices=BANK_KINDS)
        p.add_argument("--raw-bank", dest="equalize", action="store_false", default=None,
                       help="skip the Littlewood-Paley equalization step")

    p = sub.add_parser("filterbank", help="export filters and frame diagnostics")
    common(p)
    p.add_argument("--grid", help="grid samples, N or N0xN1")
    p.add_argument("--sigma0", type=float)
    p.add_argument("--xi0", type=float)
    p.add_argument("--slant", type=float)

    # no --grid or --seed: banks are built on each input's shape, and nothing is drawn
    p = sub.add_parser("scatter", help="extract scattering coefficients from images")
    common(p)
    p.add_argument("inputs", nargs="+", metavar="INPUT", help=".pgm or .sgrid files")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--depth", type=int, help=f"cascade depth (default {CASCADE_DEPTH})")
    p.add_argument("--policy", choices=PATH_POLICIES)
    p.add_argument("--pool-blocks", dest="pool_blocks", type=int,
                   help=f"samples per pooling sub-plate per axis (default {PoolConfig.block_samples})")
    p.add_argument("--pool-factor", dest="pool_factor", type=float,
                   help=f"plate shrink factor S (default {PoolConfig.factor:g})")
    p.add_argument("--strict-pooling", dest="strict_pooling", action="store_true", default=None)
    p.add_argument("--subsample-outputs", dest="subsample_outputs", action="store_true",
                   default=None)
    p.add_argument("--format", choices=OUTPUT_FORMATS)
    p.add_argument("--n-classes", dest="n_classes", type=int)

    p = sub.add_parser("verify", help="run the numerical certification suites")
    common(p)
    p.add_argument("--grid", help="grid samples, N or N0xN1")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--suites", help=f"comma list: {','.join(SUITES)}")
    p.add_argument("--depth", type=int, help=f"cascade depth (default {VerifyConfig.max_depth})")
    p.add_argument("--pool-blocks", dest="pool_blocks", type=int)
    p.add_argument("--pool-factor", dest="pool_factor", type=float)
    p.add_argument("--strict-pooling", dest="strict_pooling", action="store_true", default=None)
    p.add_argument("--trials-contraction", dest="trials_contraction", type=int)
    p.add_argument("--trials-commutation", dest="trials_commutation", type=int)
    p.add_argument("--trials-equivariance", dest="trials_equivariance", type=int)
    p.add_argument("--energy-inputs", dest="energy_inputs", type=int)
    p.add_argument("--decay-inputs", dest="decay_inputs", type=int)

    p = sub.add_parser("bench", help="feature-extraction throughput and size accounting")
    common(p)
    p.add_argument("--grid", help="grid samples, N or N0xN1")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--modes", dest="bench_modes", metavar="MODES",
                   help="comma list of cascade modes")
    p.add_argument("--batch", dest="bench_batch", metavar="BATCH", type=int,
                   help="synthetic batch size")
    p.add_argument("--depth", type=int, help=f"cascade depth (default {CASCADE_DEPTH})")
    p.add_argument("--policy", choices=PATH_POLICIES)
    p.add_argument("--n-classes", dest="n_classes", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_flags(load_config(args.config), args)
        if cfg.depth is None:
            cfg = replace(cfg, depth=VerifyConfig.max_depth if args.command == "verify"
                          else CASCADE_DEPTH)
        if args.command == "filterbank":
            return cmd_filterbank(cfg)
        if args.command == "scatter":
            return cmd_scatter(cfg, args.inputs)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_bench(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
