"""The benchmark's tracer patches package attributes by name; every one must still exist."""

import importlib
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("output_subsample", [False, True])
@pytest.mark.parametrize("mode", ["plain", "maxp", "naivep"])
def test_one_window_span_per_node_in_node_order(monkeypatch, mode, output_subsample):
    # the tracer gives the k-th window span under a tree the depth of the k-th node
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracing = importlib.import_module("tracing")
    windowed = []
    original = scattering.window

    def recording(f, *args, **kwargs):
        windowed.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(scattering, "window", recording)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        bank = filterbank.BankSpec(J=2, L=2).build((16, 16))
        f = SignalGrid(unit_plate((16, 16)), np.random.default_rng(2).random((16, 16)))
        tree = scattering.compute_tree(f, bank, mode, 2, output_subsample=output_subsample)
    spans = [s for s in tracer.spans if s.name == "scattering.window"]
    assert all(s.parent is not None and s.parent.name == "scattering.tree" for s in spans)
    assert len(spans) == len(windowed) == len(tree.nodes)
    assert all(g is node for g, node in zip(windowed, tree.nodes.values()))
    counts = tracing.paths_per_depth(2, 2, 2, "full")
    assert [tracing._depth_of(k, counts, 0) for k in range(len(spans))] == [
        len(path) for path in tree.nodes]


@pytest.mark.parametrize("shape, L", [((16, 16), 2), ((32,), 1)])
def test_one_direct_span_per_child_inside_its_propagate_span(monkeypatch, shape, L):
    # direct propagations reach the evaluator through scattering.convolve, kept kernels or not
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        bank = filterbank.BankSpec(J=2, L=L).build(shape)
        f = SignalGrid(unit_plate(shape), np.random.default_rng(3).random(shape))
        tree = scattering.compute_tree(f, bank, "plain", 2, conv_method="direct")
    children = len(tree.nodes) - 1
    propagate = [s for s in tracer.spans if s.name == "scattering.propagate"]
    direct = [s for s in tracer.spans if s.name == "grid.direct"]
    assert len(propagate) == len(direct) == children == 2 * L + (2 * L) ** 2
    assert [s.parent for s in direct] == propagate
