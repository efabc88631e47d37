"""Span tracing of diracflow's layers from outside the library.

Wrappers are installed where each caller looks a function up (a module
attribute, or a method on a class), so the library itself is untouched and
every call through those lookups records one span: layer, name, start, end
and the index of the enclosing span.  Spans live in memory; the benchmark
writes them out when the run ends.

Layers follow diracflow's modules.  Besides spans, the hooks record the
deterministic work counters each layer reports (panels, doublings, Bessel
arguments, field calls, accepted steps, bytes written), so two runs of the
same inputs can be compared exactly.

``gaussian_amplitude`` is deliberately not wrapped: it sits inside the
quadrature integrand's hot loop and a span there would swamp the work.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "quadrature", "dirac_exact", "trajectories", "spa", "packets", "cli")

# Span names of velocity-field evaluations.
FIELD_CALLS = ("ExactVelocityField.__call__", "SpaVelocityField.__call__")


class Tracer:
    """Records spans and counters while installed; restores the library on uninstall."""

    def __init__(self):
        self.spans = []   # [layer, name, start, end, parent]
        self._stack = []
        self.counters = defaultdict(float)
        self._patches = []
        self._wrappers = {}

    # -- span recording --------------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def record_max(self, key: str, value: float) -> None:
        if value > self.counters.get(key, -math.inf):
            self.counters[key] = float(value)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.counters = defaultdict(float)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, before=None, after=None, on_error=None):
        """Return a traced version of ``fn`` that records one span per call."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            idx = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its traced version.

        A function looked up in several places gets one shared wrapper, so a
        call is traced once whichever name the caller used.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if id(original) not in self._wrappers:
            self._wrappers[id(original)] = self.wrap(original, layer, name, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._wrappers = {}

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer self time: span duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (layer, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "layer": layer, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")


# =============================================================================
# Hooks: deterministic counters per layer
# =============================================================================

def _count(key):
    def after(tracer, result, args, kwargs):
        tracer.counters[key] += 1
    return after


def _bessel_after(tracer, result, args, kwargs):
    tracer.counters["specfun.calls"] += 1
    tracer.counters["specfun.args"] += np.size(args[0])


def _quad_before(tracer, args, kwargs):
    f = args[0]
    traced_integrand = tracer.wrap(f, "dirac_exact", "integrand")

    def counted(nodes):
        tracer.counters["quadrature.integrand_nodes"] += nodes.size
        return traced_integrand(nodes)

    return (counted,) + tuple(args[1:]), kwargs


def _quad_after(tracer, result, args, kwargs):
    value, err, n_panels = result
    c = tracer.counters
    c["quadrature.calls"] += 1
    if n_panels == 0:  # empty interval: nothing integrated
        return
    n0 = max(1, int(kwargs.get("initial_panels", 8)))
    order = int(kwargs.get("order", 16))
    c["quadrature.panels"] += n_panels
    c["quadrature.doublings"] += round(math.log2(n_panels / n0))
    c["quadrature.final_nodes"] += order * n_panels
    target = np.maximum(kwargs.get("abs_tol", 1e-12), kwargs.get("rel_tol", 1e-9) * np.abs(value))
    tracer.record_max("quadrature.max_err_ratio", float(np.max(np.asarray(err) / target)))


def _quad_error(tracer, exc):
    tracer.counters["quadrature.calls"] += 1
    tracer.counters["quadrature.failures"] += 1


def _grid_after(tracer, result, args, kwargs):
    _, err = result
    s = args[1] if len(args) > 1 else kwargs["s"]
    tracer.counters["dirac_exact.calls"] += 1
    tracer.counters["dirac_exact.points"] += np.size(s)
    tracer.record_max("dirac_exact.max_err_est", float(np.max(err, initial=0.0)))


def _traj_after(tracer, result, args, kwargs):
    c = tracer.counters
    c["trajectories.calls"] += 1
    c["trajectories.steps_accepted"] += result.times.size - 1
    c["trajectories.node_events"] += len(result.node_events)


def _traj_error(tracer, exc):
    tracer.counters["trajectories.calls"] += 1
    tracer.counters["trajectories.failed"] += 1


def _ensemble_after(tracer, result, args, kwargs):
    _, summary = result
    tracer.counters["trajectories.unresolved"] += summary.n_unresolved


def _cli_after(tracer, result, args, kwargs):
    c = tracer.counters
    c["cli.calls"] += 1
    if result != 0:
        c["cli.nonzero_exit"] += 1
    argv = list(args[0])
    out = argv[argv.index("--out") + 1]
    for entry in os.scandir(out):
        # The manifest carries wall times, so its size is not deterministic.
        if entry.is_file() and entry.name != "manifest.json":
            c["cli.bytes_written"] += entry.stat().st_size


def install(tracer: Tracer, df) -> None:
    """Wrap diracflow's public functions at every place they are looked up."""
    from diracflow import cli, dirac_exact, specfun, spa, trajectories

    for fname in ("bessel_j0", "bessel_j1", "j0_first_zero"):
        after = _bessel_after if fname.startswith("bessel") else _count("specfun.calls")
        tracer.patch(specfun, fname, "specfun", fname, after=after)

    tracer.patch(dirac_exact, "integrate_panels", "quadrature", "integrate_panels",
                 before=_quad_before, after=_quad_after, on_error=_quad_error)

    for owner in (dirac_exact, df, cli, spa):
        tracer.patch(owner, "evolve_exact_grid", "dirac_exact", "evolve_exact_grid",
                     after=_grid_after)
    tracer.patch(trajectories, "evolve_exact", "dirac_exact", "evolve_exact")
    tracer.patch(trajectories.ExactVelocityField, "__call__", "dirac_exact", FIELD_CALLS[0])
    tracer.patch(trajectories.ExactVelocityField, "spinor", "dirac_exact", "ExactVelocityField.spinor")

    tracer.patch(trajectories.SpaVelocityField, "__call__", "spa", FIELD_CALLS[1],
                 after=_count("spa.field_calls"))
    tracer.patch(trajectories.SpaVelocityField, "spinor", "spa", "SpaVelocityField.spinor",
                 after=_count("spa.spinor_calls"))

    tracer.patch(trajectories, "cayley_klein_series", "packets", "cayley_klein_series",
                 after=_count("packets.calls"))
    for owner in (df, cli):
        tracer.patch(owner, "cayley_klein", "packets", "cayley_klein",
                     after=_count("packets.calls"))
        tracer.patch(owner, "bohmian_observables", "packets", "bohmian_observables",
                     after=_count("packets.calls"))

    for owner in (trajectories, df):
        tracer.patch(owner, "integrate_trajectory", "trajectories", "integrate_trajectory",
                     after=_traj_after, on_error=_traj_error)
    for owner in (df, cli):
        tracer.patch(owner, "run_ensemble", "trajectories", "run_ensemble",
                     after=_ensemble_after)
        tracer.patch(owner, "cayley_klein_along", "trajectories", "cayley_klein_along")
        tracer.patch(owner, "antipodal_clusters", "trajectories", "antipodal_clusters")
    for fname in ("barrier_check", "barrier_curves", "xy_ode_velocity"):
        tracer.patch(cli, fname, "trajectories", fname)

    tracer.patch(cli, "main", "cli", "main", after=_cli_after)


# =============================================================================
# Per-layer metrics
# =============================================================================

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "specfun.calls": ("count", "lower"),
    "specfun.args": ("count", "lower"),
    "specfun.self_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.doublings": ("count", "lower"),
    "quadrature.integrand_nodes": ("count", "lower"),
    "quadrature.useful_node_frac": ("frac", "higher"),
    "quadrature.max_err_ratio": ("1", "lower"),
    "quadrature.failures": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "dirac_exact.calls": ("count", "lower"),
    "dirac_exact.points": ("count", "lower"),
    "dirac_exact.max_err_est": ("1", "lower"),
    "dirac_exact.max_ref_err": ("1", "lower"),
    "dirac_exact.self_s": ("s", "lower"),
    "trajectories.calls": ("count", "lower"),
    "trajectories.steps_accepted": ("count", "lower"),
    "trajectories.field_calls": ("count", "lower"),
    "trajectories.field_calls_per_step": ("calls/step", "lower"),
    "trajectories.node_events": ("count", "lower"),
    "trajectories.failed": ("count", "lower"),
    "trajectories.unresolved": ("count", "lower"),
    "trajectories.self_s": ("s", "lower"),
    "spa.field_calls": ("count", "lower"),
    "spa.spinor_calls": ("count", "lower"),
    "spa.self_s": ("s", "lower"),
    "packets.calls": ("count", "lower"),
    "packets.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "cli.nonzero_exit": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (everything but the overhead)."""
    c = tracer.counters
    out = {name: float(c.get(name, 0.0)) for name in PER_LAYER if not name.endswith("_s")}
    nodes = c.get("quadrature.integrand_nodes", 0.0)
    out["quadrature.useful_node_frac"] = c.get("quadrature.final_nodes", 0.0) / nodes if nodes else 0.0
    # Field calls issued by the integrator itself (its RK stages and the
    # velocity it records per accepted step), counted from the span tree.
    spans = tracer.spans
    out["trajectories.field_calls"] = float(sum(
        1 for _, name, _, _, parent in spans
        if name in FIELD_CALLS and parent >= 0 and spans[parent][1] == "integrate_trajectory"))
    steps = c.get("trajectories.steps_accepted", 0.0)
    out["trajectories.field_calls_per_step"] = (out["trajectories.field_calls"] / steps
                                               if steps else 0.0)
    self_times = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_times.get(layer, 0.0))
    out.pop("trace.overhead_frac")
    return out
