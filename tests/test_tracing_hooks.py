"""The benchmark's tracer patches package attributes by name; every one must still exist."""

import importlib
from pathlib import Path

import numpy as np

from scatmaxp import cli, filterbank, scattering, verify
from scatmaxp.grid import SignalGrid, unit_plate

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracing = importlib.import_module("tracing")
    hooked = {
        "cli.build_morlet_bank": (cli, "build_morlet_bank"),
        "scattering.convolve": (scattering, "convolve"),
        "scattering.compute_tree": (scattering, "compute_tree"),
        "verify.max_pool": (verify, "max_pool"),
        "FilterBank.realize": (filterbank.FilterBank, "realize"),
    }
    originals = {name: owner.__dict__[attr] for name, (owner, attr) in hooked.items()}
    tracer = tracing.Tracer()
    # a name the tracer patches but the package lost raises KeyError on entry
    with tracing.installed(tracer):
        for name, (owner, attr) in hooked.items():
            assert owner.__dict__[attr] is not originals[name], name
        bank = filterbank.build_morlet_bank(1, 2, (8, 8))
        f = SignalGrid(unit_plate((8, 8)), np.random.default_rng(0).random((8, 8)))
        tree = scattering.compute_tree(f, bank, "maxp", 2)
    for name, (owner, attr) in hooked.items():
        assert owner.__dict__[attr] is originals[name], name
    names = [span.name for span in tracer.spans]
    assert {"filterbank.build", "scattering.tree", "pooling.max_pool"} <= set(names)
    # the cascade calls the module-level step and pool once per child, so each is traced
    children = len(tree.nodes) - 1
    assert names.count("scattering.propagate") == names.count("pooling.max_pool") == children == 6


def test_bank_contract_the_tracer_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        bank = filterbank.BankSpec(J=2, L=2).build((16, 16))
        f = SignalGrid(unit_plate((16, 16)), np.random.default_rng(1).random((16, 16)))
        tree = scattering.compute_tree(f, bank, "maxp", 2)
        bank.realize(bank.grid_shape)
    # a bank realizes its own grid while it is built, not through the traced realize
    for span in tracer.spans:
        if span.name == "filterbank.realize":
            parent = span.parent
            while parent is not None:
                assert parent.name != "filterbank.build"
                parent = parent.parent
    # tree_pre records J and L; build_post marks phi_hat seen, so the own grid is a hit
    assert type(bank.J) is int and type(bank.L) is int
    (tree_span,) = [s for s in tracer.spans if s.name == "scattering.tree"]
    assert (tree_span.attrs["J"], tree_span.attrs["L"]) == (2, 2)
    hits = [s.attrs["hit"] for s in tracer.spans if s.name == "filterbank.realize"]
    pooled_shapes = {g.shape for g in tree.nodes.values()} - {bank.grid_shape}
    assert hits[-1] and hits.count(False) == len(pooled_shapes) == 2
