"""The benchmark's workloads: inputs from a seed, the op each one times, and its checks.

Every op calls diracflow's public API the way a user does: one process,
``workers=1``, the default ``QuadConfig`` (rel_tol 1e-9) and the default RK
tolerance (1e-8).  Op ``i`` of a workload is a pure function of the seed
and ``i``, so any prefix of ops can be replayed exactly.

A check returns the list of problems it found (empty when the op passed)
and the worst error of the op's exact-field output against the independent
reference in ``reference.py`` (``None`` when the op computes no exact
field).  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

from reference import SpectralSolution

FIG3 = dict(sigma=1.0, k0=10.0, theta0=math.pi / 2, omega0=0.0, mass=3.0)

# Field values must match the spectral propagator to this absolute error.
FIELD_TOL = 1e-9
# Bloch vectors along a trajectory are unit vectors to this accuracy.
BLOCH_NORM_TOL = 1e-9
# SPA ensembles of the CLI: the endpoint velocity against +-v0, Bohmian p and
# E against k0 and +-E0, and the angle between the endpoint clusters and
# antipodality.
V_END_TOL = 0.02
P_E_TOL = 1e-6
ANTIPODAL_TOL = 0.1


def _stream(seed: int, i: int) -> np.random.Generator:
    """Independent generator for input ``i`` of a seeded workload."""
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


class Workload:
    """Base: a rotating list of cases, ops indexed from 0."""

    name = ""
    cases: list = []
    # Ops that make up one traced pass (a fixed prefix of the op sequence).
    pass_ops = 1

    def __init__(self, df, seed: int, scratch: str):
        self.df = df
        self.seed = seed
        self.scratch = scratch

    def case_of(self, i: int) -> str:
        return self.cases[i % len(self.cases)]

    def warmup_ops(self) -> list:
        """One op index per distinct case, run once, untimed, during set-up."""
        return [self.cases.index(c) for c in dict.fromkeys(self.cases)]

    def prepare_checks(self) -> None:
        """Build the references; runs after set-up is timed."""

    def cleanup(self) -> None:
        pass


# =============================================================================
# field_grid
# =============================================================================

class FieldGrid(Workload):
    """One ``evolve_exact_grid`` call per op over seven (packet, t, grid) cases.

    FIG3 at t in {0.5, 2, 8} on 64 points spanning both packets, and the
    macroscopic ladder (sigma 0.2, p0 1) at t = 1 for omega in {50 .. 400}
    on 33 points in [-1.5, 1.5].  Each grid is shifted by a seeded fraction
    of its spacing.  omega * t, which sets the quadrature's panel count,
    runs from 1.5 to 400.
    """

    name = "field_grid"
    cases = ["fig3_t0.5", "fig3_t2", "fig3_t8", "macro_w50", "macro_w100", "macro_w200",
             "macro_w400"]
    pass_ops = 7

    def __init__(self, df, seed, scratch):
        super().__init__(df, seed, scratch)
        fig3 = df.PacketParams(**FIG3)
        v0 = FIG3["k0"] / math.hypot(FIG3["k0"], FIG3["mass"])
        self.inputs = []
        for j, case in enumerate(self.cases):
            u = float(_stream(seed, j).random())
            if case.startswith("fig3"):
                t = float(case.split("_t")[1])
                half = v0 * t + 5.0
                s = np.linspace(-half, half, 64)
                data = fig3
            else:
                t = 1.0
                s = np.linspace(-1.5, 1.5, 33)
                data = df.PacketParams.macroscopic(0.2, 1.0, float(case.split("_w")[1]))
            s = s + u * (s[1] - s[0])
            self.inputs.append((t, s, data))
        self.refs = None

    def op(self, i):
        t, s, data = self.inputs[i % len(self.cases)]
        return self.df.evolve_exact_grid(t, s, data)

    def prepare_checks(self):
        self.refs = []
        for t, s, data in self.inputs:
            self.refs.append(SpectralSolution(data, t).spinor(s))

    def check(self, i, out):
        psi, err = out
        ref_m, ref_p = self.refs[i % len(self.cases)]
        worst = float(max(np.max(np.abs(psi.minus - ref_m)), np.max(np.abs(psi.plus - ref_p))))
        problems = []
        if not worst <= FIELD_TOL:
            problems.append(f"{self.case_of(i)}: max |psi - ref| = {worst:.3e} > {FIELD_TOL:g}")
        if not np.all(np.isfinite(err)):
            problems.append(f"{self.case_of(i)}: non-finite error estimate")
        return problems, worst


# =============================================================================
# cli_mix
# =============================================================================

_FIG3_SET = ["--set", "packet.sigma=1.0", "--set", "packet.k0=10.0",
             "--set", f"packet.theta0={math.pi / 2!r}", "--set", "packet.omega0=0.0",
             "--set", "packet.mass=3.0"]


class CliMix(Workload):
    """One in-process ``diracflow.cli.main`` run into a fresh directory per op.

    Four small runs keep the numerics light so the CLI's own work (config
    parsing, lockfile, CSV/JSON formatting, sha256 manifest) shows.  The
    rotation visits ``barriers`` twice per cycle, so the median and 90th
    percentile of the latency mix fall inside one case's band rather than
    on the edge between two.

    The ``trajectories`` and ``bloch`` runs are SPA ensembles, so their
    artifacts are also checked against the paper's headline physics.  Their
    cost depends on the eight q0 an ensemble seed draws (up to 1.8x between
    seeds), so each rotation uses the next of many ensemble seeds and a run
    averages over all of them.  A 30 s run makes about 80 rotations, so
    each ensemble seed runs several times and the byte-identity check
    applies to it.
    """

    name = "cli_mix"
    cases = ["field", "barriers", "trajectories", "barriers", "bloch"]
    pass_ops = 5
    ENSEMBLE_SEEDS = 20

    def __init__(self, df, seed, scratch):
        super().__init__(df, seed, scratch)
        from diracflow import cli
        self.cli = cli
        rng = _stream(seed, 0)
        cli_seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=self.ENSEMBLE_SEEDS)]
        shift = float(rng.random()) * 0.25
        # barrier_check's sign test holds for theta0 in (0, pi/2); above pi/2
        # it flags every sampled point (see README.md), so both draws stay below.
        theta = [math.pi * float(u) for u in (rng.uniform(0.05, 0.25), rng.uniform(0.25, 0.45))]
        self.field_s = np.linspace(-8.0 + shift, 8.0 + shift, 64)
        field = ["field", *_FIG3_SET, "--set", "grid.t_values=0.5,2.0",
                 "--set", f"grid.s_min={float(self.field_s[0])!r}",
                 "--set", f"grid.s_max={float(self.field_s[-1])!r}", "--set", "grid.s_count=64"]
        barriers = ["barriers", "--set", f"barriers.theta0_values={theta[0]!r},{theta[1]!r}"]
        # argv per config_of(i): (case, ensemble seed index).
        self.argv = {("field", 0): field, ("barriers", 0): barriers}
        for k, cli_seed in enumerate(cli_seeds):
            self.argv["trajectories", k] = [
                "trajectories", "--seed", str(cli_seed), *_FIG3_SET,
                "--set", "trajectories.n=8", "--set", "trajectories.t_final=8.0"]
            self.argv["bloch", k] = ["bloch", "--seed", str(cli_seed + 1), *_FIG3_SET,
                                     "--set", "bloch.n=8"]
        self.first = {}
        self.field_refs = None
        os.makedirs(scratch, exist_ok=True)

    def prepare_checks(self):
        data = self.df.PacketParams(**FIG3)
        self.field_refs = {t: SpectralSolution(data, t).spinor(self.field_s) for t in (0.5, 2.0)}

    def field_error(self, path: str) -> float:
        """Worst |psi - reference| over the values field.csv holds."""
        rows = np.loadtxt(os.path.join(path, "field.csv"), delimiter=",", skiprows=2)
        worst = 0.0
        for t, (ref_m, ref_p) in self.field_refs.items():
            block = rows[rows[:, 0] == t]
            if block.shape[0] != self.field_s.size:
                return math.inf
            worst = max(worst, float(np.max(np.abs(block[:, 2] + 1j * block[:, 3] - ref_m))),
                        float(np.max(np.abs(block[:, 4] + 1j * block[:, 5] - ref_p))))
        return worst

    def ensemble_problems(self, path: str) -> list:
        """Headline physics of a ``trajectories`` run, from its artifacts."""
        with open(os.path.join(path, "summary.json")) as fh:
            summary = json.load(fh)
        v0 = FIG3["k0"] / math.hypot(FIG3["k0"], FIG3["mass"])
        e0 = math.hypot(FIG3["k0"], FIG3["mass"])
        counts = summary["counts"]
        problems = []
        if counts["FAILED"] or counts["UNRESOLVED"]:
            problems.append(f"{counts['FAILED']} failed, {counts['UNRESOLVED']} unresolved")
        if not summary["monotone_in_q0"]:
            problems.append("escape side not monotone in q0")
        if counts["LEFT"] and counts["RIGHT"] and summary["s0"] is None:
            problems.append("no single bifurcation point")
        for row in summary["classifications"]:
            sign = {"RIGHT": 1.0, "LEFT": -1.0}.get(row["classification"])
            if sign is None:
                continue
            # The integrator's own velocity at t_final, not the windowed mean
            # classify_trajectory already matched against +-v0.
            traj = np.loadtxt(os.path.join(path, f"traj_{row['index']:04d}.csv"),
                              delimiter=",", skiprows=2)
            v_end = float(traj[-1, 2])
            if not abs(v_end - sign * v0) <= V_END_TOL:
                problems.append(f"q0 {row['q0']:.4f}: endpoint velocity {v_end:.5f} vs "
                                f"{sign * v0:.5f}")
        for side, sign in (("RIGHT", 1.0), ("LEFT", -1.0)):
            if not counts[side]:
                continue
            obs = summary["asymptotic_observables"][side]
            # Mean and spread over the side's trajectories: each lies within
            # |mean - target| + std * sqrt(n) of its target.
            spread = math.sqrt(counts[side])
            p_off = abs(obs["mean_p"] - FIG3["k0"]) + obs["std_p"] * spread
            e_off = abs(obs["mean_E"] - sign * e0) + obs["std_E"] * spread
            if not p_off <= P_E_TOL:
                problems.append(f"{side}: p_inf off k0 by up to {p_off:.3e}")
            if not e_off <= P_E_TOL:
                problems.append(f"{side}: E_inf off {sign * e0:.6f} by up to {e_off:.3e}")
        return problems

    def bloch_problems(self, path: str) -> list:
        """Unit Bloch vectors and antipodal endpoint clusters of a ``bloch`` run."""
        with open(os.path.join(path, "bloch_summary.json")) as fh:
            summary = json.load(fh)
        problems = []
        if not summary["max_norm_error"] <= BLOCH_NORM_TOL:
            problems.append(f"Bloch norm off 1 by {summary['max_norm_error']:.3e}")
        if summary["n_clusters"] == 2 and not summary["antipodal_angle"] <= ANTIPODAL_TOL:
            problems.append(f"endpoint clusters {summary['antipodal_angle']} from antipodal")
        return problems

    def out_dir(self, i: int) -> str:
        return os.path.join(self.scratch, f"op{i:07d}")

    def config_of(self, i: int) -> tuple:
        """(case, ensemble seed index) of op ``i``."""
        case = self.case_of(i)
        k = (i // len(self.cases)) % self.ENSEMBLE_SEEDS if case in ("trajectories", "bloch") else 0
        return case, k

    def op(self, i):
        out = self.out_dir(i)
        return self.cli.main([*self.argv[self.config_of(i)], "--out", out]), out

    def check(self, i, out):
        code, path = out
        case = self.case_of(i)
        problems = []
        ref_err = None
        try:
            if code != 0:
                return [f"op {i} ({case}): exit code {code}"], None
            if os.path.exists(os.path.join(path, self.cli.LOCK_NAME)):
                problems.append(f"op {i} ({case}): lockfile left behind")
            with open(os.path.join(path, "manifest.json")) as fh:
                listed = json.load(fh)["artifacts"]
            digests = {}
            for name in sorted(os.listdir(path)):
                if name == "manifest.json":
                    continue
                with open(os.path.join(path, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            if digests != listed:
                problems.append(f"op {i} ({case}): manifest checksums do not match the artifacts")
            first = self.first.setdefault(self.config_of(i), digests)
            if digests != first:
                problems.append(f"op {i} ({case}): artifacts differ from the first run")
            if case == "field":
                ref_err = self.field_error(path)
                if not ref_err <= FIELD_TOL:
                    problems.append(f"op {i} (field): field.csv off the reference by {ref_err:.3e}")
            elif case == "trajectories":
                problems.extend(f"op {i} (trajectories): {p}" for p in self.ensemble_problems(path))
            elif case == "bloch":
                problems.extend(f"op {i} (bloch): {p}" for p in self.bloch_problems(path))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        return problems, ref_err

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FieldGrid, CliMix)}
