"""The benchmark's span tracer must install on, and restore, the library as it is."""

import importlib.util
from pathlib import Path

import pytest

import diracflow
from diracflow import cli, dirac_exact, spa, specfun, trajectories

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_attribute():
    # install() looks traced methods up in each class's own __dict__, so a
    # refactor that moves one onto a base class breaks ``--trace 1`` here.
    tracing = _load("tracing")
    owners = (diracflow, cli, dirac_exact, spa, specfun, trajectories,
              trajectories.ExactVelocityField, trajectories.SpaVelocityField)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, diracflow)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, snapshot in zip(owners, before):
        assert dict(vars(owner)) == snapshot, owner
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize("workload", ["field_grid", "cli_mix"])
def test_traced_passes_check_out_and_repeat(workload, tmp_path, monkeypatch):
    # One traced pass of the workload's ops, as ``--trace 1`` runs them: a
    # refactor that changes a traced call's shape fails an op or a check.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports reference
    tracing = _load("tracing")
    wl = _load("workloads").WORKLOADS[workload](diracflow, 1, str(tmp_path / "scratch"))
    wl.prepare_checks()
    counters = []
    try:
        for _ in range(2):
            tracer = tracing.Tracer()
            tracing.install(tracer, diracflow)
            try:
                problems = [p for i in range(wl.pass_ops) for p in wl.check(i, wl.op(i))[0]]
            finally:
                tracer.uninstall()
            assert not problems
            metrics = tracing.pass_metrics(tracer)
            counters.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    finally:
        wl.cleanup()
    assert counters[0] == counters[1]
    assert counters[0]["dirac_exact.calls" if workload == "field_grid" else "cli.calls"] > 0
