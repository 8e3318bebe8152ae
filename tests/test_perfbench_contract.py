"""The benchmark's workloads run against the package at smoke size, untraced and traced.

A cheap stand-in for ``perfbench/run.py --smoke``: every step of every workload
fails no operation, and the tracer still sees each bank build.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("desk", "paper", "certify", "scatter_cli")
# bank builds the tracer counts per unit of work, as the benchmark reports them
TRACED_BUILDS = {
    # energy 1, decay 1, equivariance 1 + the L_c banks at J = 1 and 3 (J = 2's is the suite's)
    "certify": ("filterbank.build.calls", 5),
    "scatter_cli": ("cli.bank_builds_per_image", 1),
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_step_of_the_workload_fails_no_operation(name, perfbench, tmp_path):
    workloads, tracing = perfbench
    workload = workloads.make_workload(name, small=True)
    workload.prepare(1, tmp_path)
    _, attempted, failed = workload.setup()
    assert attempted > 0 and failed == 0
    untraced = workload.run_unit(0)
    assert untraced.attempted > 0 and untraced.failed == 0
    tracer = tracing.Tracer()
    tracer.unit = 0
    with tracing.installed(tracer):
        traced = workload.run_unit(0, tracer)
    assert traced.attempted > 0 and traced.failed == 0
    _, failed = workload.recheck()
    assert failed == 0
    if name in TRACED_BUILDS:
        metric, count = TRACED_BUILDS[name]
        metrics = tracing.layer_metrics(tracer, 1, traced.seconds, workload.paired_modes,
                                        traced.counters)
        assert metrics[metric] == (count, "count")
