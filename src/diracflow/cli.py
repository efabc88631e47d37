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
sha256 checksum.  Artifacts are deterministic: a repeated run with the same
config and seed is byte-identical regardless of worker count (wall-times
live only in the manifest).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .dirac_exact import QuadConfig, evolve_exact_grid
from .errors import DiracflowError, IntegrationError, ValidationError
from .packets import (
    PacketParams,
    bohmian_observables,
    cayley_klein,
    expected_energy,
    expected_momentum,
    make_initial_packet,
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

__all__ = ["main", "RunConfig"]


# =============================================================================
# Configuration
# =============================================================================

def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


@dataclass
class RunConfig:
    """Raw run configuration: a command plus string-valued sections.

    Values stay strings until validated, so a config round-trips through the
    INI form losslessly.
    """

    command: str
    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # -- typed access ---------------------------------------------------------

    def _raw(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def _parse(self, section, key, default, parse, expected: str):
        raw = self._raw(section, key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError:
            raise ValidationError(f"[{section}] {key} must be {expected}, got {raw!r}")

    def get_float(self, section, key, default=None) -> Optional[float]:
        return self._parse(section, key, default, _finite_float, "a finite number")

    def get_int(self, section, key, default=None) -> Optional[int]:
        return self._parse(section, key, default, int, "an integer")

    def get_str(self, section, key, default=None) -> Optional[str]:
        raw = self._raw(section, key)
        return default if raw is None else raw

    def get_floats(self, section, key, default=None) -> Optional[List[float]]:
        return self._parse(
            section, key, default,
            lambda raw: [_finite_float(tok) for tok in raw.replace(",", " ").split()],
            "a list of finite numbers")

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
        return np.linspace(lo, hi, count)

    def set(self, section: str, key: str, value) -> None:
        self.sections.setdefault(section, {})[key] = (
            value if isinstance(value, str) else repr(value))

    # -- (de)serialization ----------------------------------------------------

    def to_ini(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser["run"] = {"command": self.command}
        for name in sorted(self.sections):
            if name == "run":
                merged = {"command": self.command, **self.sections[name]}
                parser["run"] = dict(sorted(merged.items()))
            else:
                parser[name] = dict(sorted(self.sections[name].items()))
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

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
            oscillation_guard=self.get_float("quadrature", "oscillation_guard", 8.0),
        )


# =============================================================================
# Artifact writing
# =============================================================================

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


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

    def write_csv(self, name: str, label: str, columns: Sequence[str], rows) -> None:
        buf = io.StringIO()
        buf.write(f"# {CSV_SCHEMA} {label}\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        self._register(name, buf.getvalue().encode())

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

def _spinor_rows(t: float, s: np.ndarray, psi, err: np.ndarray):
    rho = psi.density
    cur = psi.current
    v = np.where(rho > 0, cur / np.where(rho > 0, rho, 1.0), 0.0)
    err_total = err.sum(axis=0)
    for i in range(s.size):
        yield (t, s[i], psi.minus[i].real, psi.minus[i].imag,
               psi.plus[i].real, psi.plus[i].imag, rho[i], cur[i], v[i],
               err_total[i])


# ``series`` holds each trajectory's Cayley-Klein series, None where it failed.
_Ensemble = namedtuple("_Ensemble", "t_final trajs summary spinor series")


def _bloch_ensemble(cfg: RunConfig, writer: RunWriter, sec: str, data: PacketParams,
                    n_default: int, seed: int, workers: int) -> _Ensemble:
    """Run the [sec] ensemble and take each trajectory's Cayley-Klein series once."""
    quad = cfg.quad()
    n = cfg.get_int(sec, "n", n_default)
    t_final = cfg.get_float(sec, "t_final", 8.0)
    mode = cfg.get_str(sec, "field", "SPA")
    tol = cfg.get_float(sec, "tol", 1e-8)
    with writer.phase("ensemble"):
        trajs, summary = run_ensemble(n, data, t_final, field_mode=mode,
                                      seed=seed, workers=workers, tol=tol, quad=quad)
    writer.notes["failed_trajectories"] = summary.n_failed
    spinor = _make_field(data, mode, quad).spinor
    with writer.phase("bloch_series"):
        series = [None if traj.error is not None else cayley_klein_along(traj, spinor)
                  for traj in trajs]
    return _Ensemble(t_final, trajs, summary, spinor, series)


def _bohmian_or_none(psi, mass: float):
    """Local Bohmian (v, p, E) of a spinor, or None where they are undefined."""
    try:
        return bohmian_observables(cayley_klein(psi), mass)
    except DiracflowError:
        return None


def cmd_field(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    data = cfg.packet()
    quad = cfg.quad()
    t_values = cfg.get_floats("grid", "t_values")
    if not t_values:
        raise ValidationError("[grid] needs t_values")
    if any(t < 0 for t in t_values):
        raise ValidationError("[grid] t_values must be >= 0")
    s = cfg.get_grid("grid", "s", cfg.get_float("grid", "s_min"))
    rows = []
    failures = 0
    with writer.phase("field"):
        for t in t_values:
            try:
                psi, err = evolve_exact_grid(t, s, data, quad)
                rows.extend(_spinor_rows(t, s, psi, err))
            except IntegrationError as exc:
                failures += 1
                nan = float("nan")
                if exc.partial is not None:
                    writer.notes[f"partial_failure_t={t!r}"] = str(exc)
                rows.extend((t, si, nan, nan, nan, nan, nan, nan, nan, nan)
                            for si in s)
    writer.write_csv("field.csv", "field",
                     ["t", "s", "re_minus", "im_minus", "re_plus", "im_plus",
                      "rho", "j", "v", "err_est"], rows)
    writer.notes["failed_slices"] = failures
    return 3 if failures else 0


def cmd_spa_compare(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    sec = "spa_compare"
    p0 = cfg.get_float(sec, "p0")
    sigma = cfg.get_float(sec, "sigma")
    vartheta = cfg.get_float(sec, "vartheta", 0.0)
    t = cfg.get_float(sec, "t")
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
            result = error_scaling(params, t, ladder, s_grid, quad, workers=workers)
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
                     zip(ladder, sups))
    writer.write_json("spa_compare.json", "spa-compare", payload)
    return 0


def _asymptotic_stats(trajs, spinor_field, mass: float) -> dict:
    # Failed trajectories stay UNRESOLVED, so only integrated ones count.
    stats = {"RIGHT": [], "LEFT": []}
    for traj in trajs:
        if traj.classification != UNRESOLVED:
            obs = _bohmian_or_none(spinor_field(traj.times[-1], traj.positions[-1]), mass)
            if obs is not None:
                stats[traj.classification].append(obs)
    out = {}
    for side, obs in stats.items():
        if obs:
            _, p, e = zip(*obs)
            out[side] = {"mean_p": float(np.mean(p)), "mean_E": float(np.mean(e)),
                         "std_p": float(np.std(p)), "std_E": float(np.std(e))}
    return out


def cmd_trajectories(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    data = cfg.packet()
    writer.notes["spa_regime"] = spa_regime_report(data)
    run = _bloch_ensemble(cfg, writer, "trajectories", data, 50, seed, workers)
    summary = run.summary
    with writer.phase("summary"):
        for i, (traj, ck) in enumerate(zip(run.trajs, run.series)):
            if ck is None:
                continue
            rows = zip(traj.times, traj.positions, traj.velocities,
                       ck["r"], ck["theta"], ck["omega"], ck["phi"])
            writer.write_csv(f"traj_{i:04d}.csv", "trajectory",
                             ["t", "q", "v", "R", "Theta", "Omega", "Phi"], rows)
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
            "asymptotic_observables": _asymptotic_stats(run.trajs, run.spinor, data.mass),
        }
        writer.write_json("summary.json", "trajectories", payload)
    return 3 if summary.n_failed else 0


def cmd_bloch(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    run = _bloch_ensemble(cfg, writer, "bloch", cfg.packet(), 100, seed, workers)
    rows = []
    endpoints = []
    for i, (traj, ck) in enumerate(zip(run.trajs, run.series)):
        if ck is None:
            continue
        st = np.sin(ck["theta"])
        nx = st * np.cos(ck["omega"])
        ny = st * np.sin(ck["omega"])
        nz = np.cos(ck["theta"])
        rows.extend(zip([i] * traj.times.size, traj.times, nx, ny, nz))
        endpoints.append((nx[-1], ny[-1], nz[-1]))
    writer.write_csv("bloch.csv", "bloch", ["traj", "t", "nx", "ny", "nz"], rows)
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


def cmd_observables(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    data = cfg.packet()
    quad = cfg.quad()
    sec = "observables"
    times = cfg.get_floats(sec, "times", [0.0])
    if any(t < 0 for t in times):
        raise ValidationError("[observables] times must be >= 0")
    quad_tol = cfg.get_float(sec, "quad_tol", 1e-6)
    q0 = cfg.get_float(sec, "trajectory_q0")
    if q0 is not None:
        mode = cfg.get_str(sec, "field", "SPA")
        t_final = cfg.get_float(sec, "t_final", 4.0)
        if not t_final > 0:
            raise ValidationError(f"[observables] t_final must be > 0, got {t_final!r}")
        fieldh = _make_field(data, mode, quad)
    payload: dict = {"times": times, "momentum": {}, "energy_t0": None}
    with writer.phase("expectations"):
        for t in times:
            if t == 0:
                fn = make_initial_packet(data)
            else:
                def fn(s, tt=t):
                    return evolve_exact_grid(tt, s, data, quad)[0]
            half = truncation_half_width(data, t)
            payload["momentum"][repr(float(t))] = expected_momentum(fn, quad_tol, half)
        payload["energy_t0"] = expected_energy(
            make_initial_packet(data), data.mass, quad_tol,
            truncation_half_width(data, 0.0))
        payload["energy_t0_analytic"] = (
            data.k0 * np.cos(data.theta0)
            + data.mass * np.sin(data.theta0) * np.cos(data.omega0))
    if q0 is not None:
        from .trajectories import integrate_trajectory
        undefined = (float("nan"),) * 3
        with writer.phase("trajectory"):
            traj = integrate_trajectory(q0, (0.0, t_final), fieldh, tol=1e-8)
            samples = []
            for t, s in zip(traj.times, traj.positions):
                v, p, e = _bohmian_or_none(fieldh.spinor(t, s), data.mass) or undefined
                samples.append({"t": t, "q": s, "v": v, "p": p, "E": e})
            payload["trajectory"] = {"q0": q0, "field": mode.upper(),
                                     "samples": samples}
    writer.write_json("observables.json", "observables", payload)
    return 0


def cmd_barriers(cfg: RunConfig, writer: RunWriter, seed: int, workers: int) -> int:
    sec = "barriers"
    theta_values = cfg.get_floats(sec, "theta0_values")
    if not theta_values:
        raise ValidationError("[barriers] needs theta0_values")
    a_omegas = cfg.get_floats(sec, "a_omegas", [1.0, 3.7, 10.0])
    x = cfg.get_grid(sec, "x", cfg.get_float(sec, "x_min", 0.2), 5.0, 50)
    offsets = cfg.get_grid(sec, "offset", 0.0, 3.0, 50)
    reports = []
    rows = []
    with writer.phase("barriers"):
        for theta0 in theta_values:
            spec = barrier_curves(theta0)
            report = barrier_check(spec, a_omegas, x, offsets)
            reports.append({"theta0": theta0, "c_plus": spec.c_plus,
                            "c_minus": spec.c_minus, **report})
            eta = np.tan(theta0 / 2)
            tan0 = np.tan(theta0)
            for a_omega in a_omegas[:1]:
                c = np.cos(a_omega * x)
                y0 = np.log(eta / (tan0 * c + np.sqrt(1 + tan0**2 * c**2))) / x
                for xi, b_m, b_p, y0i in zip(x, spec.b_minus(x), spec.b_plus(x), y0):
                    rows.append((theta0, xi, b_m, b_p, y0i,
                                 xy_ode_velocity(xi, y0i, theta0, a_omega)))
    writer.write_csv("barriers.csv", "barriers",
                     ["theta0", "x", "b_minus", "b_plus", "y0", "F_at_y0"], rows)
    writer.write_json("barriers.json", "barriers", {"reports": reports})
    return 3 if any(r["violations"] for r in reports) else 0


# Each command takes (config, writer, seed, workers) and returns the exit code.
COMMANDS: Dict[str, Callable[[RunConfig, RunWriter, int, int], int]] = {
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

def _build_parser() -> argparse.ArgumentParser:
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
                        help="parallel workers for ensembles/ladders (>= 1)")
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
            if not args.config.exists():
                raise ValidationError(f"config file {args.config} does not exist")
            cfg = RunConfig.from_ini(args.config.read_text(), command=args.command)
        else:
            cfg = RunConfig(command=args.command)
        _apply_overrides(cfg, args.set)
        seed = args.seed if args.seed is not None else cfg.get_int("run", "seed", 0)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        writer = RunWriter(_resolve_out(args, cfg), cfg, seed)
    except DiracflowError as exc:
        print(f"diracflow: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        code = COMMANDS[cfg.command](cfg, writer, seed, args.workers)
        writer.finish()
        return code
    except ValidationError as exc:
        print(f"diracflow: configuration error: {exc}", file=sys.stderr)
        return 2
    except DiracflowError as exc:
        print(f"diracflow: numerical failure: {exc}", file=sys.stderr)
        writer.notes["failure"] = str(exc)
        writer.finish()
        return 3
    finally:
        writer.release()


if __name__ == "__main__":
    sys.exit(main())
