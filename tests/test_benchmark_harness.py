"""The benchmark's span tracer must install on, and restore, the library as it is."""

import importlib.util
from pathlib import Path

import diracflow
from diracflow import cli, dirac_exact, spa, specfun, trajectories

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_attribute():
    # install() looks traced methods up in each class's own __dict__, so a
    # refactor that moves one onto a base class breaks ``--trace 1`` here.
    tracing = _load_tracing()
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
