"""Batch front end: configured experiment runs with deterministic CSV/JSON artifacts.

Subcommands
-----------
field         evaluate the exact evolved spinor on a (t, s) grid
spa-compare   sup |psi - U| over an omega ladder with the log-log slope fit
trajectories  quantum-equilibrium ensemble under the EXACT or SPA field
bloch         Bloch-sphere tracks and endpoint clustering for an ensemble
observables   <P>, <H> at configured times and Bohmian (v, p, E) along a path
barriers      hyperbola constants, zero curve, and sign checks beyond barriers

A run is configured by an INI file (section/key-value) and/or command-line
flags; flags override file values.  Every run owns its output directory
(guarded by a lockfile) and emits a manifest listing each artifact with a
sha256 checksum.  Runs compute in one process (``--workers`` has no effect)
and are deterministic: a repeated run with the same config and seed is
byte-identical (wall-times live only in the manifest).

Exit codes: 0 success, 1 internal error, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .dirac_exact import QuadConfig, evolve_exact_grid
from .errors import DiracflowError, IntegrationError, ValidationError, as_real
from .packets import (
    CayleyKlein,
    PacketParams,
    bloch_vector,
    bohmian_observables,
    cayley_klein,
    expected_energy,
    expected_momentum,
    make_initial_packet,
    momentum_band,
    spa_regime_report,
    truncation_half_width,
)
from .spa import SpaParams, error_scaling, sup_error_at_omega
from .trajectories import (
    UNRESOLVED,
    _make_field,
    antipodal_clusters,
    barrier_check,
    barrier_curves,
    cayley_klein_along,
    run_ensemble,
    xy_ode_velocity,
)

CSV_SCHEMA = "diracflow-csv-v1"
JSON_SCHEMA = "diracflow-json-v1"
OUTPUT_ROOT_ENV = "DIRACFLOW_OUT"
LOCK_NAME = ".diracflow.lock"
# Most points in one position grid, and in the barriers' x-by-offset cells: at
# peak a field position costs about 1.2 kB and a barrier cell about 64 B.
MAX_GRID_POINTS = 10**5

__all__ = ["main", "RunConfig"]


# =============================================================================
# Configuration
# =============================================================================

@dataclass
class RunConfig:
    """Raw run configuration: a command plus string-valued sections.

    Values stay strings until validated, so the manifest records them as
    the INI file and ``--set`` gave them.
    """

    command: str
    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # -- typed access ---------------------------------------------------------

    def _raw(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def _parse(self, section, key, default, parse, expected: str, bound=None):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            value = parse(raw)
        except ValueError:
            raise ValidationError(f"[{section}] {key} must be {expected}, got {raw!r}")
        # Outside the try: as_real's ValidationError is a ValueError too.
        if bound is not None:
            as_real(value, f"[{section}] {key}", error=ValidationError, **bound)
        return value

    def get_float(self, section, key, default=None, **bound) -> Optional[float]:
        return self._parse(section, key, default, float, "a finite number", bound)

    def get_int(self, section, key, default=None) -> Optional[int]:
        return self._parse(section, key, default, int, "an integer")

    def get_str(self, section, key, default=None) -> Optional[str]:
        return self._raw(section, key, default)

    def get_floats(self, section, key, default=None, **bound) -> Optional[List[float]]:
        return self._parse(section, key, default,
                           lambda raw: [float(tok) for tok in raw.replace(",", " ").split()],
                           "a list of finite numbers", bound)

    def get_grid(self, section, name, lo, hi=None, count=None) -> np.ndarray:
        """Evenly spaced ``lo .. {name}_max`` with ``{name}_count`` points.

        ``lo`` is the resolved lower bound; ``hi`` and ``count`` are the
        defaults, and a key without one is required.
        """
        hi = self.get_float(section, f"{name}_max", hi)
        count = self.get_int(section, f"{name}_count", count)
        if lo is None or hi is None or count is None:
            raise ValidationError(f"[{section}] needs {name}_min, {name}_max, {name}_count")
        if count < 1 or hi < lo:
            raise ValidationError(
                f"[{section}] needs {name}_count >= 1 and {name}_max >= {lo!r}")
        if count > MAX_GRID_POINTS:
            raise ValidationError(
                f"[{section}] {name}_count must be <= {MAX_GRID_POINTS}, got {count}")
        return np.linspace(lo, hi, count)

    def set(self, section: str, key: str, value) -> None:
        self.sections.setdefault(section, {})[key] = (
            value if isinstance(value, str) else repr(value))

    # -- parsing --------------------------------------------------------------

    @classmethod
    def from_ini(cls, text: str, command: Optional[str] = None) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValidationError(f"malformed config file: {exc}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
        cmd = command or sections.get("run", {}).pop("command", None)
        sections.get("run", {}).pop("command", None)
        if cmd is None:
            raise ValidationError("config must name a command ([run] command = ...)")
        return cls(command=cmd, sections=sections)

    # -- domain objects -------------------------------------------------------

    def packet(self) -> PacketParams:
        sec = "packet"
        kind = self.get_str(sec, "kind", "bloch")
        sigma = self.get_float(sec, "sigma")
        k0 = self.get_float(sec, "k0")
        mass = self.get_float(sec, "mass")
        if sigma is None or k0 is None or mass is None:
            raise ValidationError("[packet] needs sigma, k0, and mass")
        if kind == "bloch":
            theta0 = self.get_float(sec, "theta0")
            omega0 = self.get_float(sec, "omega0", 0.0)
            if theta0 is None:
                raise ValidationError("[packet] kind=bloch needs theta0")
            return PacketParams(sigma=sigma, k0=k0, theta0=theta0, omega0=omega0,
                                mass=mass)
        if kind == "eigen":
            sign = self.get_int(sec, "energy_sign", +1)
            return PacketParams.energy_eigen(sigma, k0, mass, sign)
        if kind == "mixed":
            vartheta = self.get_float(sec, "vartheta")
            if vartheta is None:
                raise ValidationError("[packet] kind=mixed needs vartheta")
            return PacketParams.mixed_energy_eigen(sigma, k0, mass, vartheta)
        raise ValidationError(f"[packet] unknown kind {kind!r} (bloch|eigen|mixed)")

    def quad(self) -> QuadConfig:
        return QuadConfig(
            rel_tol=self.get_float("quadrature", "rel_tol", 1e-9),
            abs_tol=self.get_float("quadrature", "abs_tol", 1e-12),
            max_panels=self.get_int("quadrature", "max_panels", 2**20),
        )


# =============================================================================
# Artifact writing
# =============================================================================

def _stack_blocks(blocks, width: int):
    """Concatenate row blocks given as column tuples; ``width`` empty columns if none."""
    return [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * width


def _dump_json(doc: dict) -> bytes:
    # numpy scalars and arrays serialize through their Python equivalents.
    return (json.dumps(doc, sort_keys=True, indent=2, default=lambda o: o.tolist())
            + "\n").encode()


class RunWriter:
    """Owns a run directory: lockfile, artifacts, phase timings, manifest."""

    def __init__(self, out_dir: Path, config: RunConfig, seed: Optional[int]):
        self.dir = out_dir
        self.config = config
        self.seed = seed
        self.artifacts: Dict[str, str] = {}
        self.phases: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = self.dir / LOCK_NAME
        try:
            fd = os.open(self._lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ValidationError(
                f"run directory {self.dir} is locked by another process "
                f"(remove {LOCK_NAME} if stale)")
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))

    def release(self) -> None:
        self._lock.unlink(missing_ok=True)

    def _register(self, name: str, data: bytes) -> None:
        (self.dir / name).write_bytes(data)
        self.artifacts[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, label: str, header: Sequence[str], columns) -> None:
        """One row per index of the equal-length ``columns`` (arrays or sequences).

        Each column becomes Python floats or ints in one ``tolist()`` call;
        ``str`` of a float is its shortest round-trip repr.
        """
        cells = [map(str, np.asarray(col).tolist()) for col in columns]
        lines = [f"# {CSV_SCHEMA} {label}", ",".join(header)]
        lines.extend(map(",".join, zip(*cells)))
        self._register(name, ("\n".join(lines) + "\n").encode())

    def write_json(self, name: str, label: str, payload: dict) -> None:
        self._register(name, _dump_json({"schema": f"{JSON_SCHEMA} {label}", **payload}))

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = time.perf_counter() - t0

    def finish(self) -> None:
        manifest = {
            "schema": f"{JSON_SCHEMA} manifest",
            "tool": "diracflow",
            "version": __version__,
            "command": self.config.command,
            "seed": self.seed,
            "config": self.config.sections,
            "phases_seconds": self.phases,
            "artifacts": self.artifacts,
            "notes": self.notes,
        }
        (self.dir / "manifest.json").write_bytes(_dump_json(manifest))


# =============================================================================
# Commands
# =============================================================================

def _spinor_columns(t: float, s: np.ndarray, psi, err: np.ndarray):
    return (np.full(s.size, t), s, psi.minus.real, psi.minus.imag, psi.plus.real,
            psi.plus.imag, psi.density, psi.current, psi.velocity, err.sum(axis=0))


@contextlib.contextmanager
def _warnings_to_stderr():
    """Collect the warnings raised inside; print the first as one stderr line.

    Warning filters still apply, so a filtered-out warning prints nothing.
    """
    with warnings.catch_warnings(record=True) as caught:
        yield caught
    for w in caught[:1]:
        print(f"diracflow: warning: {w.message}", file=sys.stderr)


# ``series`` holds each trajectory's Cayley-Klein series, None where it failed.
_Ensemble = namedtuple("_Ensemble", "t_final trajs summary field series")


def _bloch_ensemble(cfg: RunConfig, writer: RunWriter, seed: int, sec: str,
                    data: PacketParams, n_default: int) -> _Ensemble:
    """Run the [sec] ensemble, report failed members on stderr, take each series once."""
    quad = cfg.quad()
    n = cfg.get_int(sec, "n", n_default)
    t_final = cfg.get_float(sec, "t_final", 8.0)
    mode = cfg.get_str(sec, "field", "SPA")
    tol = cfg.get_float(sec, "tol", 1e-8)
    with writer.phase("ensemble"), _warnings_to_stderr() as caught:
        trajs, summary = run_ensemble(n, data, t_final, field_mode=mode,
                                      seed=seed, tol=tol, quad=quad)
    if caught:
        writer.notes["ensemble_warnings"] = [str(w.message) for w in caught]
    writer.notes["failed_trajectories"] = summary.n_failed
    if summary.n_failed:
        first = next(traj.error for traj in trajs if traj.error is not None)
        print(f"diracflow: numerical failure: {summary.n_failed} of {summary.n} "
              f"trajectories failed: {first}", file=sys.stderr)
    fieldh = _make_field(data, mode, quad)
    with writer.phase("bloch_series"), _warnings_to_stderr():
        series = [None if traj.error is not None else cayley_klein_along(traj, fieldh.spinors)
                  for traj in trajs]
    return _Ensemble(t_final, trajs, summary, fieldh, series)


def _bohmian_or_none(psi, mass: float):
    """Local Bohmian (v, p, E) of a spinor, or None where they are undefined."""
    try:
        return bohmian_observables(cayley_klein(psi), mass)
    except DiracflowError:
        return None


def cmd_field(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    data = cfg.packet()
    quad = cfg.quad()
    t_values = cfg.get_floats("grid", "t_values", at_least=0)
    if not t_values:
        raise ValidationError("[grid] needs t_values")
    s = cfg.get_grid("grid", "s", cfg.get_float("grid", "s_min"))
    blocks = []
    failures = []
    with writer.phase("field"), _warnings_to_stderr():
        for t in t_values:
            try:
                psi, err = evolve_exact_grid(t, s, data, quad)
                blocks.append(_spinor_columns(t, s, psi, err))
            except IntegrationError as exc:
                failures.append(exc)
                if exc.partial is not None:
                    writer.notes[f"partial_failure_t={t!r}"] = str(exc)
                blocks.append((np.full(s.size, t), s, *[np.full(s.size, np.nan)] * 8))
    writer.write_csv("field.csv", "field",
                     ["t", "s", "re_minus", "im_minus", "re_plus", "im_plus",
                      "rho", "j", "v", "err_est"], _stack_blocks(blocks, 10))
    writer.notes["failed_slices"] = len(failures)
    if failures:
        print(f"diracflow: numerical failure: {len(failures)} of {len(t_values)} "
              f"time slices failed: {failures[0]}", file=sys.stderr)
    return 3 if failures else 0


def cmd_spa_compare(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    sec = "spa_compare"
    p0 = cfg.get_float(sec, "p0")
    sigma = cfg.get_float(sec, "sigma")
    vartheta = cfg.get_float(sec, "vartheta", 0.0)
    t = cfg.get_float(sec, "t", above=0)
    ladder = cfg.get_floats(sec, "omega_ladder")
    if p0 is None or sigma is None or t is None or not ladder:
        raise ValidationError("[spa_compare] needs p0, sigma, t, omega_ladder")
    if len(ladder) >= 3:
        ratios = np.diff(np.log(ladder))
        if not np.allclose(ratios, ratios[0], rtol=1e-6):
            raise ValidationError("[spa_compare] omega_ladder must be geometric")
    s_grid = cfg.get_grid(sec, "s", cfg.get_float(sec, "s_min", -1.5), 1.5, 101)
    quad = cfg.quad()
    params = SpaParams(p0=p0, sigma=sigma, omega=ladder[0], vartheta=vartheta)
    payload: dict = {"omegas": ladder, "t": t}
    with writer.phase("spa_compare"):
        if len(ladder) >= 4:
            result = error_scaling(params, t, ladder, s_grid, quad)
            sups = list(result.sup_errors)
            payload["slope"] = result.slope
            payload["intercept"] = result.intercept
            payload["flagged"] = None
        else:
            sups = [sup_error_at_omega(params, w, t, s_grid, quad) for w in ladder]
            payload["slope"] = None
            payload["intercept"] = None
            payload["flagged"] = "ladder too short for a slope fit (need >= 4 rungs)"
    payload["sup_errors"] = sups
    writer.write_csv("spa_compare.csv", "spa-compare", ["omega", "sup_err"],
                     [ladder, sups])
    writer.write_json("spa_compare.json", "spa-compare", payload)
    return 0


def _asymptotic_stats(trajs, fieldh, mass: float) -> dict:
    # Failed trajectories stay UNRESOLVED, so only integrated ones count.
    stats = {"RIGHT": [], "LEFT": []}
    for traj in trajs:
        if traj.classification != UNRESOLVED:
            obs = _bohmian_or_none(fieldh.spinor(traj.times[-1], traj.positions[-1]), mass)
            if obs is not None:
                stats[traj.classification].append(obs)
    out = {}
    for side, obs in stats.items():
        if obs:
            _, p, e = zip(*obs)
            out[side] = {"mean_p": float(np.mean(p)), "mean_E": float(np.mean(e)),
                         "std_p": float(np.std(p)), "std_E": float(np.std(e))}
    return out


def cmd_trajectories(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    data = cfg.packet()
    # The report goes to the manifest, its warning to one stderr line.
    with _warnings_to_stderr():
        writer.notes["spa_regime"] = spa_regime_report(data)
    run = _bloch_ensemble(cfg, writer, seed, "trajectories", data, 50)
    summary = run.summary
    with writer.phase("summary"), _warnings_to_stderr():
        for i, (traj, ck) in enumerate(zip(run.trajs, run.series)):
            if ck is None:
                continue
            columns = [traj.times, traj.positions, traj.velocities,
                       ck["r"], ck["theta"], ck["omega"], ck["phi"]]
            writer.write_csv(f"traj_{i:04d}.csv", "trajectory",
                             ["t", "q", "v", "R", "Theta", "Omega", "Phi"], columns)
        payload = {
            "n": summary.n,
            "v0": summary.v0,
            "counts": {"RIGHT": summary.n_right, "LEFT": summary.n_left,
                       "UNRESOLVED": summary.n_unresolved,
                       "FAILED": summary.n_failed},
            "monotone_in_q0": summary.monotone,
            "s0": summary.s0_estimate,
            "s0_bracket": summary.s0_bracket,
            "classifications": [
                {"index": i, "q0": t.q0, "classification": t.classification,
                 "asymptotic_velocity": t.asymptotic_velocity,
                 "error": t.error} for i, t in enumerate(run.trajs)],
            "asymptotic_observables": _asymptotic_stats(run.trajs, run.field, data.mass),
        }
        writer.write_json("summary.json", "trajectories", payload)
    return 3 if summary.n_failed else 0


def cmd_bloch(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    run = _bloch_ensemble(cfg, writer, seed, "bloch", cfg.packet(), 100)
    blocks = []
    endpoints = []
    for i, (traj, ck) in enumerate(zip(run.trajs, run.series)):
        if ck is None:
            continue
        nx, ny, nz = bloch_vector(CayleyKlein(**ck))
        blocks.append((np.full(traj.times.size, i), traj.times, nx, ny, nz))
        endpoints.append((nx[-1], ny[-1], nz[-1]))
    writer.write_csv("bloch.csv", "bloch", ["traj", "t", "nx", "ny", "nz"],
                     _stack_blocks(blocks, 5))
    # When every member failed there are no endpoints to cluster.
    report = antipodal_clusters(np.asarray(endpoints)) if endpoints else {
        "n_clusters": 0, "angular_radii": [], "centers": []}
    writer.write_json("bloch_summary.json", "bloch", {
        "n": run.summary.n,
        "t_final": run.t_final,
        "n_clusters": report["n_clusters"],
        "angular_radii": report["angular_radii"],
        "antipodal_angle": report.get("antipodal_angle"),
        "max_norm_error": (float(np.max(np.abs(report["norms"] - 1.0)))
                           if endpoints else None),
        "centers": [list(c) for c in report["centers"]],
    })
    return 3 if run.summary.n_failed else 0


def cmd_observables(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    data = cfg.packet()
    quad = cfg.quad()
    sec = "observables"
    times = cfg.get_floats(sec, "times", [0.0], at_least=0)
    quad_tol = cfg.get_float(sec, "quad_tol", 1e-6, above=0)
    q0 = cfg.get_float(sec, "trajectory_q0")
    if q0 is not None:
        mode = cfg.get_str(sec, "field", "SPA")
        t_final = cfg.get_float(sec, "t_final", 4.0, above=0)
        fieldh = _make_field(data, mode, quad)
    payload: dict = {"times": times, "momentum": {}, "energy_t0": None}
    band = momentum_band(data)
    with writer.phase("expectations"):
        for t in times:
            def fn(s, tt=t):
                return evolve_exact_grid(tt, s, data, quad)[0]
            half = truncation_half_width(data, t)
            payload["momentum"][repr(float(t))] = expected_momentum(fn, quad_tol, half, band)
        payload["energy_t0"] = expected_energy(
            make_initial_packet(data), data.mass, quad_tol,
            truncation_half_width(data, 0.0), band)
        payload["energy_t0_analytic"] = (
            data.k0 * np.cos(data.theta0)
            + data.mass * np.sin(data.theta0) * np.cos(data.omega0))
    if q0 is not None:
        from .trajectories import integrate_trajectory
        undefined = (float("nan"),) * 3
        with writer.phase("trajectory"), _warnings_to_stderr():
            traj = integrate_trajectory(q0, (0.0, t_final), fieldh, tol=1e-8)
            samples = []
            for t, s in zip(traj.times, traj.positions):
                v, p, e = _bohmian_or_none(fieldh.spinor(t, s), data.mass) or undefined
                samples.append({"t": t, "q": s, "v": v, "p": p, "E": e})
            payload["trajectory"] = {"q0": q0, "field": mode.upper(),
                                     "node_events": len(traj.node_events), "samples": samples}
        n_undefined = sum(not np.isfinite([x["v"], x["p"], x["E"]]).all() for x in samples)
        if traj.node_events or n_undefined:
            print(f"diracflow: warning: the trajectory met {len(traj.node_events)} node events and "
                  f"{n_undefined} of its {len(samples)} samples have undefined v, p or E",
                  file=sys.stderr)
    writer.write_json("observables.json", "observables", payload)
    return 0


def cmd_barriers(cfg: RunConfig, writer: RunWriter, seed: int) -> int:
    sec = "barriers"
    theta_values = cfg.get_floats(sec, "theta0_values")
    if not theta_values:
        raise ValidationError("[barriers] needs theta0_values")
    # ln tan(theta0 / 2) is -inf where theta0 / 2 rounds to 0.
    if not all(0.0 < theta0 / 2 and theta0 < np.pi for theta0 in theta_values):
        raise ValidationError(f"[barriers] theta0_values must lie in (0, pi), with theta0 / 2 > 0, "
                              f"got {theta_values}")
    a_omegas = cfg.get_floats(sec, "a_omegas", [1.0, 3.7, 10.0])
    if not a_omegas:
        raise ValidationError("[barriers] needs a_omegas")
    x = cfg.get_grid(sec, "x", cfg.get_float(sec, "x_min", 0.2, above=0), 5.0, 50)
    offsets = cfg.get_grid(sec, "offset", 0.0, 3.0, 50)
    if x.size * offsets.size > MAX_GRID_POINTS:
        raise ValidationError(f"[barriers] x_count * offset_count must be <= {MAX_GRID_POINTS}, "
                              f"got {x.size} * {offsets.size}")
    reports = []
    blocks = []
    with writer.phase("barriers"), _warnings_to_stderr():
        for theta0 in theta_values:
            spec = barrier_curves(theta0)
            report = barrier_check(spec, a_omegas, x, offsets)
            reports.append({"theta0": theta0, "c_plus": spec.c_plus,
                            "c_minus": spec.c_minus, **report})
            eta = np.tan(theta0 / 2)
            tan0 = np.tan(theta0)
            c = np.cos(a_omegas[0] * x)
            # ln(eta / (tan0 c + sqrt(1 + tan0^2 c^2))), without its cancellation.
            y0 = (np.log(eta) - np.arcsinh(tan0 * c)) / x
            blocks.append((np.full(x.size, theta0), x, spec.b_minus(x), spec.b_plus(x),
                           y0, xy_ode_velocity(x, y0, theta0, a_omegas[0])))
    writer.write_csv("barriers.csv", "barriers",
                     ["theta0", "x", "b_minus", "b_plus", "y0", "F_at_y0"],
                     _stack_blocks(blocks, 6))
    writer.write_json("barriers.json", "barriers", {"reports": reports})
    return 3 if any(r["violations"] for r in reports) else 0


# Each command takes (config, writer, seed) and returns the exit code.
COMMANDS: Dict[str, Callable[[RunConfig, RunWriter, int], int]] = {
    "field": cmd_field,
    "spa-compare": cmd_spa_compare,
    "trajectories": cmd_trajectories,
    "bloch": cmd_bloch,
    "observables": cmd_observables,
    "barriers": cmd_barriers,
}


# =============================================================================
# Argument parsing and dispatch
# =============================================================================

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="diracflow",
        description="Dirac wave-packet evolution, Bohmian trajectories, and SPA experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file")
    common.add_argument("--out", type=Path, help="output run directory")
    common.add_argument("--seed", type=int, help="master seed for ensembles")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect (>= 1)")
    common.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override one config value (repeatable)")
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _apply_overrides(cfg: RunConfig, overrides: Sequence[str]) -> None:
    for item in overrides:
        try:
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ValidationError(f"--set expects SEC.KEY=VALUE, got {item!r}")
        cfg.set(section.strip(), key.strip(), value.strip())


def _resolve_out(args, cfg: RunConfig) -> Path:
    if args.out is not None:
        return args.out
    configured = cfg.get_str("run", "out")
    if configured:
        return Path(configured)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return root / f"{cfg.command}-run"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = RunConfig.from_ini(args.config.read_text(encoding="utf-8"),
                                     command=args.command)
        else:
            cfg = RunConfig(command=args.command)
        _apply_overrides(cfg, args.set)
        seed = args.seed if args.seed is not None else cfg.get_int("run", "seed", 0)
        if seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {seed}")
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        writer = RunWriter(_resolve_out(args, cfg), cfg, seed)
    except (DiracflowError, OSError, ValueError) as exc:
        # An unreadable config or an uncreatable run directory is an input error.
        print(f"diracflow: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        code = COMMANDS[cfg.command](cfg, writer, seed)
        writer.finish()
        return code
    except (ValidationError, OSError) as exc:
        print(f"diracflow: configuration error: {exc}", file=sys.stderr)
        return 2
    except DiracflowError as exc:
        print(f"diracflow: numerical failure: {exc}", file=sys.stderr)
        writer.notes["failure"] = str(exc)
        writer.finish()
        return 3
    except Exception as exc:
        print(f"diracflow: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        writer.release()


if __name__ == "__main__":
    sys.exit(main())
