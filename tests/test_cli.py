import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracflow import PacketParams, make_initial_packet
from diracflow.cli import LOCK_NAME, RunConfig, main

FIG3 = [
    "--set", "packet.sigma=1.0",
    "--set", "packet.k0=10.0",
    "--set", "packet.theta0=1.5707963267948966",
    "--set", "packet.omega0=0.0",
    "--set", "packet.mass=3.0",
]


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# diracflow-csv-v1")
    header = lines[1].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2:]]
    return header, rows


def artifact_bytes(run_dir: Path):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
            if p.name not in ("manifest.json", LOCK_NAME)}


# =============================================================================
# Configuration
# =============================================================================

def test_config_round_trip():
    cfg = RunConfig(command="trajectories")
    cfg.set("packet", "sigma", 1.0)
    cfg.set("packet", "k0", 10.0)
    cfg.set("trajectories", "n", 50)
    cfg.set("run", "seed", 7)
    back = RunConfig.from_ini(cfg.to_ini())
    assert back.command == cfg.command
    assert back.sections == cfg.sections


def test_config_file_and_flag_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\ncommand = field\nseed = 3\n"
        "[packet]\nsigma = 1.0\nk0 = 2.0\ntheta0 = 0.5\nomega0 = 0.0\nmass = 1.0\n"
        "[grid]\nt_values = 0.0\ns_min = -1.0\ns_max = 1.0\ns_count = 3\n")
    out = tmp_path / "run-out"
    code = run_cli("field", "--config", ini, "--out", out,
                   "--set", "grid.s_count=5")
    assert code == 0
    _, rows = read_csv(out / "field.csv")
    assert len(rows) == 5


@pytest.mark.parametrize("override, fragment", [
    ("packet.sigma=-1.0", "sigma"),
    ("packet.theta0=9.9", "theta0"),
    ("packet.sigma=abc", "number"),
    ("grid.s_count=0", "s_count"),
])
def test_config_validation_is_actionable(tmp_path, capsys, override, fragment):
    code = run_cli("field", "--out", tmp_path / "v", *FIG3,
                   "--set", "grid.t_values=0.0", "--set", "grid.s_min=-1",
                   "--set", "grid.s_max=1", "--set", "grid.s_count=3",
                   "--set", override)
    assert code == 2
    assert fragment in capsys.readouterr().err


GRID = ["--set", "grid.s_min=-1", "--set", "grid.s_max=1", "--set", "grid.s_count=3"]

# Each non-finite override with a command that reads it; every other value is valid.
NON_FINITE_CASES = {
    "trajectories.t_final": ["trajectories", *FIG3, "--set", "trajectories.n=2"],
    "bloch.t_final": ["bloch", *FIG3, "--set", "bloch.n=2"],
    "grid.t_values": ["field", *FIG3, *GRID],
    "quadrature.rel_tol": ["field", *FIG3, *GRID, "--set", "grid.t_values=0.5"],
}


def run_cli_subprocess(out: Path, args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh process; the 30 s timeout makes a hang fail the test."""
    import diracflow
    src = str(Path(diracflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "diracflow.cli", *args, "--out", str(out)],
        capture_output=True, text=True, timeout=30, env=env)


def assert_rejected_in_subprocess(out: Path, args, name: str) -> None:
    """Exit 2 naming ``name``, no traceback and no lockfile, from a fresh process."""
    proc = run_cli_subprocess(out, args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert name in proc.stderr
    assert not (out / LOCK_NAME).exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(NON_FINITE_CASES))
def test_non_finite_values_rejected(tmp_path, key, value):
    assert_rejected_in_subprocess(
        tmp_path / "nf", [*NON_FINITE_CASES[key], "--set", f"{key}={value}"],
        key.split(".")[1])


# Each bad grid count with a command that reads it; every other value is valid.
BAD_GRID_CASES = {
    "barriers.x_count=-1": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "barriers.offset_count=0": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "spa_compare.s_count=0": ["spa-compare", "--set", "spa_compare.p0=1.0",
                              "--set", "spa_compare.sigma=0.2",
                              "--set", "spa_compare.t=1.0",
                              "--set", "spa_compare.omega_ladder=60"],
}


@pytest.mark.parametrize("override", sorted(BAD_GRID_CASES))
def test_bad_grid_counts_rejected(tmp_path, override):
    key = override.split("=")[0].split(".")[1]
    assert_rejected_in_subprocess(
        tmp_path / "grid", [*BAD_GRID_CASES[override], "--set", override], key)


@pytest.mark.parametrize("workers", ["0", "-3"], ids=["flag-0", "flag-neg"])
def test_bad_worker_counts_rejected(tmp_path, capsys, workers):
    out = tmp_path / "w"
    code = run_cli("trajectories", "--out", out, *FIG3, "--set", "trajectories.n=2",
                   "--set", "trajectories.t_final=0.5", "--workers", workers)
    assert code == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_missing_grid_rejected(tmp_path, capsys):
    code = run_cli("field", "--out", tmp_path / "g", *FIG3)
    assert code == 2
    assert "t_values" in capsys.readouterr().err


def test_non_geometric_ladder_rejected(tmp_path, capsys):
    code = run_cli("spa-compare", "--out", tmp_path / "l",
                   "--set", "spa_compare.p0=1.0",
                   "--set", "spa_compare.sigma=0.2",
                   "--set", "spa_compare.t=1.0",
                   "--set", "spa_compare.omega_ladder=50 100 170 400")
    assert code == 2
    assert "geometric" in capsys.readouterr().err


# =============================================================================
# field
# =============================================================================

def test_field_single_point_at_t0(tmp_path):
    out = tmp_path / "f0"
    code = run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=0.0",
                   "--set", "grid.s_min=0.25", "--set", "grid.s_max=0.25",
                   "--set", "grid.s_count=1")
    assert code == 0
    header, rows = read_csv(out / "field.csv")
    data = PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    pk = make_initial_packet(data)(0.25)
    row = dict(zip(header, rows[0]))
    assert row["re_minus"] == pytest.approx(pk.minus.real, abs=1e-15)
    assert row["im_plus"] == pytest.approx(pk.plus.imag, abs=1e-15)
    assert row["rho"] == pytest.approx(abs(pk.minus) ** 2 + abs(pk.plus) ** 2)
    assert row["err_est"] == 0.0


def test_field_rerun_is_byte_identical(tmp_path):
    args = ("field", *FIG3,
            "--set", "grid.t_values=0.0 0.4",
            "--set", "grid.s_min=-3", "--set", "grid.s_max=3",
            "--set", "grid.s_count=41")
    assert run_cli(*args, "--out", tmp_path / "a") == 0
    assert run_cli(*args, "--out", tmp_path / "b") == 0
    assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")


def test_field_norm_column(tmp_path):
    out = tmp_path / "norm"
    code = run_cli("field", "--out", out,
                   "--set", "packet.sigma=1.0", "--set", "packet.k0=3.0",
                   "--set", "packet.theta0=1.2", "--set", "packet.omega0=0.0",
                   "--set", "packet.mass=2.0",
                   "--set", "grid.t_values=0.5",
                   "--set", "grid.s_min=-14", "--set", "grid.s_max=14",
                   "--set", "grid.s_count=2801")
    assert code == 0
    header, rows = read_csv(out / "field.csv")
    arr = np.array(rows)
    s = arr[:, header.index("s")]
    rho = arr[:, header.index("rho")]
    assert np.trapezoid(rho, s) == pytest.approx(1.0, abs=1e-4)


def test_field_manifest_checksums(tmp_path):
    out = tmp_path / "m"
    assert run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=0.0",
                   "--set", "grid.s_min=-1", "--set", "grid.s_max=1",
                   "--set", "grid.s_count=5") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    import hashlib
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert emitted == set(manifest["artifacts"])
    assert not (out / LOCK_NAME).exists()


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRACFLOW_OUT", str(tmp_path / "root"))
    code = run_cli("field", *FIG3,
                   "--set", "grid.t_values=0.0", "--set", "grid.s_min=-1",
                   "--set", "grid.s_max=1", "--set", "grid.s_count=3")
    assert code == 0
    assert (tmp_path / "root" / "field-run" / "field.csv").exists()


def test_locked_directory_rejected(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / LOCK_NAME).write_text("999")
    code = run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=0.0", "--set", "grid.s_min=-1",
                   "--set", "grid.s_max=1", "--set", "grid.s_count=3")
    assert code == 2
    assert "locked" in capsys.readouterr().err


def test_field_numerical_failure_flags_rows(tmp_path):
    out = tmp_path / "fail"
    code = run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=1.0",
                   "--set", "grid.s_min=-1", "--set", "grid.s_max=1",
                   "--set", "grid.s_count=3",
                   "--set", "quadrature.max_panels=8")
    assert code == 3
    _, rows = read_csv(out / "field.csv")
    assert all(np.isnan(row[-1]) for row in rows)


# =============================================================================
# spa-compare
# =============================================================================

def test_spa_compare_short_ladder_flagged(tmp_path):
    out = tmp_path / "short"
    code = run_cli("spa-compare", "--out", out,
                   "--set", "spa_compare.p0=1.0",
                   "--set", "spa_compare.sigma=0.2",
                   "--set", "spa_compare.t=1.0",
                   "--set", "spa_compare.omega_ladder=60",
                   "--set", "spa_compare.s_count=31")
    assert code == 0
    doc = json.loads((out / "spa_compare.json").read_text())
    assert doc["slope"] is None
    assert doc["flagged"]
    assert all(e > 0 for e in doc["sup_errors"])
    header, rows = read_csv(out / "spa_compare.csv")
    assert header == ["omega", "sup_err"]
    assert rows[0][1] > 0


# =============================================================================
# trajectories
# =============================================================================

def test_trajectories_artifacts_and_summary(tmp_path):
    out = tmp_path / "traj"
    code = run_cli("trajectories", "--out", out, "--seed", "5", *FIG3,
                   "--set", "trajectories.n=4",
                   "--set", "trajectories.t_final=6.0")
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    counts = doc["counts"]
    assert counts["RIGHT"] + counts["LEFT"] + counts["UNRESOLVED"] == 4
    assert doc["v0"] == pytest.approx(10 / np.sqrt(109))
    for i in range(4):
        header, rows = read_csv(out / f"traj_{i:04d}.csv")
        assert header == ["t", "q", "v", "R", "Theta", "Omega", "Phi"]
        assert rows[0][0] == 0.0


def test_trajectories_s0_stable_across_seeds(tmp_path):
    docs = []
    for seed in (3, 4):
        out = tmp_path / f"s{seed}"
        assert run_cli("trajectories", "--out", out, "--seed", seed, *FIG3,
                       "--set", "trajectories.n=24",
                       "--set", "trajectories.t_final=6.0") == 0
        docs.append(json.loads((out / "summary.json").read_text()))
    a, b = docs
    assert a["classifications"][0]["q0"] != b["classifications"][0]["q0"]
    # Both brackets straddle the same bifurcation point.
    tol = 0.5 * (a["s0_bracket"][1] - a["s0_bracket"][0]) \
        + 0.5 * (b["s0_bracket"][1] - b["s0_bracket"][0])
    assert abs(a["s0"] - b["s0"]) <= tol + 1e-12


# =============================================================================
# bloch
# =============================================================================

def test_bloch_norms_and_clusters(tmp_path):
    out = tmp_path / "bloch"
    code = run_cli("bloch", "--out", out, "--seed", "2", *FIG3,
                   "--set", "bloch.n=12", "--set", "bloch.t_final=8.0")
    assert code == 0
    header, rows = read_csv(out / "bloch.csv")
    arr = np.array(rows)
    norms = np.linalg.norm(arr[:, 2:5], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    doc = json.loads((out / "bloch_summary.json").read_text())
    assert doc["n_clusters"] == 2
    assert doc["antipodal_angle"] <= 0.1


def test_bloch_with_every_member_failed(tmp_path):
    # A panel budget of 8 fails every EXACT trajectory: nothing to cluster.
    out = tmp_path / "bloch-failed"
    proc = run_cli_subprocess(out, [
        "bloch", *FIG3, "--set", "bloch.n=2", "--set", "bloch.t_final=0.5",
        "--set", "bloch.field=EXACT", "--set", "quadrature.max_panels=8"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["failed_trajectories"] == 2
    doc = json.loads((out / "bloch_summary.json").read_text())
    assert doc["n_clusters"] == 0
    assert not (out / LOCK_NAME).exists()


# =============================================================================
# observables
# =============================================================================

def test_observables_values(tmp_path):
    out = tmp_path / "obs"
    code = run_cli("observables", "--out", out, *FIG3,
                   "--set", "observables.times=0.0 0.3",
                   "--set", "observables.quad_tol=1e-6")
    assert code == 0
    doc = json.loads((out / "observables.json").read_text())
    for value in doc["momentum"].values():
        assert value == pytest.approx(10.0, abs=1e-4)
    assert doc["energy_t0"] == pytest.approx(doc["energy_t0_analytic"], abs=1e-6)
    assert doc["energy_t0_analytic"] == pytest.approx(3.0)


def test_observables_eigen_energy(tmp_path):
    out = tmp_path / "eig"
    code = run_cli("observables", "--out", out,
                   "--set", "packet.kind=eigen",
                   "--set", "packet.sigma=1.0", "--set", "packet.k0=3.0",
                   "--set", "packet.mass=2.0", "--set", "packet.energy_sign=-1",
                   "--set", "observables.times=0.0",
                   "--set", "observables.quad_tol=1e-8")
    assert code == 0
    doc = json.loads((out / "observables.json").read_text())
    assert doc["energy_t0"] == pytest.approx(-np.sqrt(13.0), abs=1e-6)


def test_observables_trajectory_block(tmp_path):
    out = tmp_path / "obstraj"
    code = run_cli("observables", "--out", out, *FIG3,
                   "--set", "observables.times=0.0",
                   "--set", "observables.trajectory_q0=1.5",
                   "--set", "observables.t_final=6.0")
    assert code == 0
    doc = json.loads((out / "observables.json").read_text())
    samples = doc["trajectory"]["samples"]
    assert samples[0]["q"] == pytest.approx(1.5)
    late = samples[-1]
    assert late["p"] == pytest.approx(10.0, rel=0.01)
    assert late["E"] == pytest.approx(np.sqrt(109.0), rel=0.01)


@pytest.mark.parametrize("t_final", ["-1", "0"])
def test_observables_rejects_non_positive_t_final(tmp_path, capsys, t_final):
    out = tmp_path / "obsback"
    code = run_cli("observables", "--out", out, *FIG3,
                   "--set", "observables.trajectory_q0=0.1",
                   "--set", f"observables.t_final={t_final}")
    assert code == 2
    assert "t_final" in capsys.readouterr().err
    assert not (out / LOCK_NAME).exists()
    assert not (out / "observables.json").exists()


def test_observables_unknown_field_rejected(tmp_path, capsys):
    out = tmp_path / "obsbogus"
    code = run_cli("observables", "--out", out, *FIG3,
                   "--set", "observables.trajectory_q0=0.1",
                   "--set", "observables.field=bogus")
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert not (out / LOCK_NAME).exists()
    assert not (out / "observables.json").exists()


# =============================================================================
# barriers
# =============================================================================

def test_barriers_command(tmp_path):
    out = tmp_path / "bar"
    code = run_cli("barriers", "--out", out,
                   "--set", f"barriers.theta0_values={np.pi/8} {np.pi/4} {3*np.pi/8}")
    assert code == 0
    doc = json.loads((out / "barriers.json").read_text())
    by_theta = {round(r["theta0"], 6): r for r in doc["reports"]}
    assert by_theta[round(np.pi / 4, 6)]["c_plus"] == 0.0
    assert all(r["violations"] == 0 for r in doc["reports"])
    header, rows = read_csv(out / "barriers.csv")
    f_idx = header.index("F_at_y0")
    assert max(abs(r[f_idx]) for r in rows) <= 1e-12
