import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracflow import PacketParams, QuadConfig, ValidationError, make_initial_packet
from diracflow.cli import LOCK_NAME, MAX_GRID_POINTS, RunConfig, RunWriter, main
from diracflow.spa import SpaParams, error_scaling
from diracflow.trajectories import MAX_ENSEMBLE_SIZE

from _oracles import massless_transport

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


def test_in_process_runs_keep_their_own_overrides(tmp_path):
    # The parser is built once per process: a second main() call sees only
    # its own --set values, not the first call's.
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("field", "--out", first, *FIG3, *GRID, "--set", "grid.t_values=0.5",
                   "--set", "quadrature.rel_tol=1e-8", "--seed", "4") == 0
    assert run_cli("field", "--out", second, *FIG3, "--set", "grid.t_values=0.0",
                   "--set", "grid.s_min=-2", "--set", "grid.s_max=2",
                   "--set", "grid.s_count=2") == 0
    manifest = json.loads((second / "manifest.json").read_text())
    assert "quadrature" not in manifest["config"]
    assert manifest["config"]["grid"] == {"t_values": "0.0", "s_min": "-2", "s_max": "2",
                                          "s_count": "2"}
    assert manifest["seed"] == 0
    _, rows = read_csv(second / "field.csv")
    assert [row[:2] for row in rows] == [[0.0, -2.0], [0.0, 2.0]]


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
    return proc


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


SPA_COMPARE = ["spa-compare", "--set", "spa_compare.p0=1.0", "--set", "spa_compare.sigma=0.2",
               "--set", "spa_compare.t=1.0"]
# Each count above its bound with a command that reads it; the trajectories
# packet is inside the SPA regime, so no regime warning precedes the error.
COUNT_CASES = {
    "grid.s_count=100000000": ["field", *FIG3, "--set", "grid.t_values=0.5",
                               "--set", "grid.s_min=-1", "--set", "grid.s_max=1"],
    "spa_compare.s_count=100000000": [*SPA_COMPARE, "--set", "spa_compare.omega_ladder=60"],
    "barriers.x_count=100000000": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "barriers.offset_count=100000000": ["barriers", "--set", "barriers.theta0_values=0.5"],
    # 2001 x points by the default 50 offsets.
    "barriers.x_count=2001": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "trajectories.n=100000000": ["trajectories", *FIG3, "--set", "packet.sigma=0.1",
                                 "--set", "packet.k0=1000"],
    "bloch.n=100000000": ["bloch", *FIG3],
}


@pytest.mark.parametrize("override", sorted(COUNT_CASES))
def test_counts_above_their_bound_rejected(tmp_path, capsys, override):
    # Refused before anything is allocated: fast, with one line.
    out = tmp_path / "count"
    start = time.perf_counter()
    code = run_cli(*COUNT_CASES[override], "--out", out, "--set", override)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("diracflow: configuration error: ")
    assert err.count("\n") == 1
    assert override.split("=")[0].split(".")[1].replace("_count", "") in err
    assert not (out / LOCK_NAME).exists()


def test_grid_count_bound_is_inclusive():
    cfg = RunConfig(command="field")
    cfg.set("grid", "s_count", MAX_GRID_POINTS)
    assert cfg.get_grid("grid", "s", -1.0, 1.0).size == MAX_GRID_POINTS
    cfg.set("grid", "s_count", MAX_GRID_POINTS + 1)
    with pytest.raises(ValidationError, match=f"s_count must be <= {MAX_GRID_POINTS}"):
        cfg.get_grid("grid", "s", -1.0, 1.0)


@pytest.mark.parametrize("command", ["trajectories", "bloch", "observables"])
def test_tiny_mass_spa_runs_rejected_in_subprocess(tmp_path, command):
    # p0 = k0 / m = 1e301 has an overflowing square; the SPA velocity would
    # be NaN, which used to hang the integrator.
    args = [command, *FIG3, "--set", "packet.mass=1e-300", "--set", f"{command}.n=2",
            "--set", "observables.trajectory_q0=0.3"]
    assert_rejected_in_subprocess(tmp_path / "tiny-mass", args, "p0^2 must be a finite float")


# Each out-of-range value with a command that reads it; every other value is valid.
OUT_OF_RANGE_CASES = {
    # 2 pi sigma^2 underflows to 0, or sigma^2 overflows.
    "packet.sigma=1e-300": ["field", *FIG3, *GRID, "--set", "grid.t_values=0.5"],
    "packet.sigma=1e200": ["trajectories", *FIG3, "--set", "trajectories.n=2"],
    "barriers.theta0_values=0": ["barriers"],
    "barriers.theta0_values=0.5 3.141592653589793": ["barriers"],
    "observables.quad_tol=0": ["observables", *FIG3],
    "observables.times=-1": ["observables", *FIG3],
    "observables.t_final=0": ["observables", *FIG3, "--set", "observables.trajectory_q0=0.3"],
    "grid.t_values=-1": ["field", *FIG3, *GRID],
    # One rung, so the command's own check, not error_scaling's, refuses it.
    "spa_compare.t=-1": [*SPA_COMPARE, "--set", "spa_compare.omega_ladder=60"],
    # Before its bound, a negative ladder reached np.log.
    "spa_compare.omega_ladder=-10 -20 -40": [*SPA_COMPARE],
    # The barrier curves need x > 0; no oscillation rate would check nothing.
    "barriers.x_min=0": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "barriers.x_min=-1": ["barriers", "--set", "barriers.theta0_values=0.5"],
    "barriers.a_omegas=": ["barriers", "--set", "barriers.theta0_values=0.5"],
}


@pytest.mark.parametrize("override", sorted(OUT_OF_RANGE_CASES))
def test_out_of_range_values_rejected(tmp_path, override):
    key = override.split("=")[0].split(".")[1]
    proc = assert_rejected_in_subprocess(
        tmp_path / "range", [*OUT_OF_RANGE_CASES[override], "--set", override], key)
    assert proc.stderr.startswith("diracflow: configuration error:")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("case", ["out-is-file", "config-is-dir", "config-not-utf8",
                                  "config-missing"])
def test_unreadable_inputs_rejected(tmp_path, case):
    # OS-level failures reading the config or creating the run directory are
    # configuration errors: exit 2 with one line, no traceback.
    out = tmp_path / "run"
    config = tmp_path / "run.ini"
    if case == "out-is-file":
        out.write_text("not a directory\n")
        config.write_text("[barriers]\ntheta0_values = 0.5\n")
    elif case == "config-is-dir":
        config.mkdir()
    elif case == "config-not-utf8":
        config.write_bytes(b"[barriers]\ntheta0_values = 0.5 \xff\xfe\n")
    name = {"out-is-file": str(out), "config-not-utf8": "utf-8"}.get(case, str(config))
    assert_rejected_in_subprocess(out, ["barriers", "--config", str(config)], name)
    assert not (out.is_dir() and any(out.iterdir()))


@pytest.mark.parametrize("workers", ["0", "-3"], ids=["flag-0", "flag-neg"])
def test_bad_worker_counts_rejected(tmp_path, capsys, workers):
    out = tmp_path / "w"
    code = run_cli("trajectories", "--out", out, *FIG3, "--set", "trajectories.n=2",
                   "--set", "trajectories.t_final=0.5", "--workers", workers)
    assert code == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--set", "run.seed=-3"]],
                         ids=["flag", "set"])
@pytest.mark.parametrize("command", ["trajectories", "bloch"])
def test_negative_seed_rejected(tmp_path, capsys, command, seed):
    # Refused with the other flags, before the run directory is made.
    out = tmp_path / "seed"
    code = run_cli(command, "--out", out, *FIG3, "--set", f"{command}.n=2",
                   "--set", f"{command}.t_final=0.5", *seed)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("diracflow: configuration error: seed must be a non-negative integer")
    assert err.count("\n") == 1
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
# Error contract: random values for the keys each command reads
# =============================================================================

# A cheap valid run of each command; a fuzz example overrides keys on top.
FUZZ_BASE = {
    "field": [*FIG3, *GRID, "--set", "grid.t_values=0.5"],
    "spa-compare": [*SPA_COMPARE[1:], "--set", "spa_compare.omega_ladder=60",
                    "--set", "spa_compare.s_count=5"],
    "trajectories": [*FIG3, "--set", "trajectories.n=2", "--set", "trajectories.t_final=0.5"],
    "bloch": [*FIG3, "--set", "bloch.n=2", "--set", "bloch.t_final=0.5"],
    "observables": [*FIG3, "--set", "observables.times=0.5",
                    "--set", "observables.trajectory_q0=0.5", "--set", "observables.t_final=0.5"],
    "barriers": ["--set", "barriers.theta0_values=0.5", "--set", "barriers.x_count=5",
                 "--set", "barriers.offset_count=5"],
}
# Value kinds: tiny, huge, negative, zero, NaN, non-numeric and empty.
FUZZ_VALUES = ["1e-300", "5e-324", "1e300", "1.7e308", "-1", "-2.5", "0", "-0.0", "nan",
               "abc", "1,x", ""]
# Counts at their bounds and just above, for the count keys (n and *_count).
FUZZ_COUNTS = [str(v) for v in (MAX_GRID_POINTS, MAX_GRID_POINTS + 1,
                                MAX_ENSEMBLE_SIZE, MAX_ENSEMBLE_SIZE + 1)]
# Longest a fuzzed run may take; the slowest, a bloch or trajectories run at
# MAX_ENSEMBLE_SIZE members, took 5-9 s on a 2-core x86-64 host.
FUZZ_SECONDS = 60


class _Overran(BaseException):
    """Raised by the alarm in a fuzzed run; no handler in main() catches it."""


def _keys_read(command: str, out: Path) -> list:
    """The (section, key) pairs the base run of ``command`` asks RunConfig for."""
    seen = set()
    raw = RunConfig._raw

    def recording(self, section, key, default=None):
        seen.add((section, key))
        return raw(self, section, key, default)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(RunConfig, "_raw", recording)
        assert main([command, *FUZZ_BASE[command], "--out", str(out)]) == 0
    shutil.rmtree(out)
    return sorted(seen)


@pytest.fixture(scope="module")
def keys_read(tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    return {command: _keys_read(command, root / command) for command in FUZZ_BASE}


def _alarm(signum, frame):
    raise _Overran


# Derandomized: every run draws the same examples, so the suite's time does
# not depend on which inputs a run happens to draw.
@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_inputs_keep_the_error_contract(tmp_path, keys_read, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_BASE)), label="command")
    overrides = []
    for section, key in data.draw(st.lists(st.sampled_from(keys_read[command]), min_size=1,
                                           max_size=3, unique=True), label="keys"):
        counts = FUZZ_COUNTS if key == "n" or key.endswith("_count") else []
        overrides += ["--set", f"{section}.{key}=" + data.draw(
            st.sampled_from(FUZZ_VALUES + counts), label=f"{section}.{key}")]
    seed = data.draw(st.sampled_from([None, "0", "-1", "3", str(2**70)]), label="--seed")
    out = tmp_path / f"fuzz-{time.monotonic_ns()}"
    argv = [command, *FUZZ_BASE[command], *overrides, "--out", str(out)]
    argv += [] if seed is None else ["--seed", seed]
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(FUZZ_SECONDS)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except _Overran:
        pytest.fail(f"{argv} ran for over {FUZZ_SECONDS} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not (out / LOCK_NAME).exists()
    shutil.rmtree(out, ignore_errors=True)


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


def test_mixed_packet_field_at_t0(tmp_path, capsys):
    mixed = ["--set", "packet.kind=mixed", "--set", "packet.sigma=1.0", "--set", "packet.k0=3.0",
             "--set", "packet.mass=2.0", "--set", "grid.t_values=0.0", *GRID]
    out = tmp_path / "mixed"
    assert run_cli("field", "--out", out, *mixed, "--set", "packet.vartheta=1.0") == 0
    _, rows = read_csv(out / "field.csv")
    rows = np.array(rows)
    pk = make_initial_packet(PacketParams.mixed_energy_eigen(1.0, 3.0, 2.0, 1.0))(rows[:, 1])
    assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], pk.minus)
    assert np.array_equal(rows[:, 4] + 1j * rows[:, 5], pk.plus)
    capsys.readouterr()
    assert run_cli("field", "--out", tmp_path / "no-vartheta", *mixed) == 2
    assert "kind=mixed needs vartheta" in capsys.readouterr().err


def test_field_rerun_is_byte_identical(tmp_path):
    args = ("field", *FIG3,
            "--set", "grid.t_values=0.0 0.4",
            "--set", "grid.s_min=-3", "--set", "grid.s_max=3",
            "--set", "grid.s_count=41")
    assert run_cli(*args, "--out", tmp_path / "a") == 0
    assert run_cli(*args, "--out", tmp_path / "b") == 0
    assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")


def test_csv_cells_match_per_value_repr(tmp_path):
    # Columns are formatted whole; every cell must read exactly as the
    # per-value repr(float(v)) or str(int(v)) of the row-by-row writer.
    x = np.array([0.1, -0.0, 1e-300, 2.0 / 3.0, np.nan, np.inf, -np.inf, 1.2345678901234567e16])
    i = np.arange(x.size)
    writer = RunWriter(tmp_path, RunConfig("field"), seed=None)
    try:
        writer.write_csv("x.csv", "test", ["i", "x", "y"], [i, x, [float(v) for v in x]])
    finally:
        writer.release()
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[:2] == ["# diracflow-csv-v1 test", "i,x,y"]
    assert lines[2:] == [f"{int(a)},{float(b)!r},{float(b)!r}" for a, b in zip(i, x)]


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


def test_unexpected_exception_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    from diracflow import cli

    def broken(cfg, writer, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "barriers", broken)
    out = tmp_path / "broken"
    code = run_cli("barriers", "--out", out, "--set", "barriers.theta0_values=0.5")
    assert code == 1
    assert capsys.readouterr().err == "diracflow: internal error: RuntimeError: boom\n"
    assert not (out / LOCK_NAME).exists()


@pytest.mark.parametrize("case", ["null-byte-out", "artifact-is-a-directory"])
def test_os_refusals_are_configuration_errors(tmp_path, capsys, case):
    if case == "null-byte-out":
        # The OS refuses such a path with ValueError rather than OSError.
        ini = tmp_path / "nul.ini"
        ini.write_text(f"[run]\nout = {tmp_path}/a\x00b\n", encoding="utf-8")
        args = ["--config", ini]
    else:
        (tmp_path / "run" / "barriers.csv").mkdir(parents=True)
        args = ["--out", tmp_path / "run"]
    code = run_cli("barriers", *args, "--set", "barriers.theta0_values=0.5")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("diracflow: configuration error: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run" / LOCK_NAME).exists()


def test_locked_directory_rejected(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / LOCK_NAME).write_text("999")
    code = run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=0.0", "--set", "grid.s_min=-1",
                   "--set", "grid.s_max=1", "--set", "grid.s_count=3")
    assert code == 2
    assert "locked" in capsys.readouterr().err


# Tolerances out of reach with a budget of eight panels: every slice fails.
UNREACHABLE = ["--set", "quadrature.rel_tol=1e-300", "--set", "quadrature.abs_tol=1e-300",
               "--set", "quadrature.max_panels=8"]


def test_field_numerical_failure_flags_rows(tmp_path):
    out = tmp_path / "fail"
    code = run_cli("field", "--out", out, *FIG3,
                   "--set", "grid.t_values=1.0",
                   "--set", "grid.s_min=-1", "--set", "grid.s_max=1",
                   "--set", "grid.s_count=3", *UNREACHABLE)
    assert code == 3
    _, rows = read_csv(out / "field.csv")
    assert all(np.isnan(row[-1]) for row in rows)


@pytest.mark.parametrize("t_values, budget, failed, message", [
    ("0.5 1.0", UNREACHABLE, 2, "quadrature did not converge within 8 panels"),
    # At the default budget the residual stalls at rounding level long
    # before the 2**20 panels.
    ("0.5 1.0", UNREACHABLE[:4], 2, "quadrature did not converge within 1048576 panels"),
    # The phase overflows: an error, not an OverflowError traceback.
    ("0.0 1e308", [], 1, "integrand phase overflows"),
], ids=["budget", "roundoff", "huge-t"])
def test_field_failure_is_reported_on_stderr(tmp_path, t_values, budget, failed, message):
    out = tmp_path / "fail"
    proc = run_cli_subprocess(out, [
        "field", *FIG3, "--set", f"grid.t_values={t_values}", "--set", "grid.s_min=-1",
        "--set", "grid.s_max=1", "--set", "grid.s_count=3", *budget])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(
        f"diracflow: numerical failure: {failed} of 2 time slices failed: {message}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["failed_slices"] == failed
    assert not (out / LOCK_NAME).exists()


@pytest.mark.parametrize("override", ["grid.t_values=1e7"])
def test_start_beyond_panel_budget_fails_before_evaluating(tmp_path, capsys, override):
    # The starting panel count alone exceeds the 2^20-panel budget: the
    # momentum route's 3.2e6 panels at t = 1e7.
    out = tmp_path / "over"
    start = time.perf_counter()
    code = run_cli("field", "--out", out, *FIG3, *GRID, "--set", "grid.t_values=0.5",
                   "--set", override)
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "panel budget 1048576 is below the" in capsys.readouterr().err
    assert elapsed < 1.0
    assert not (out / LOCK_NAME).exists()


def test_coarse_momentum_nodes_fail_cleanly(tmp_path, capsys):
    # At k0 = 1e14 the momentum route takes every node's phase from u, so
    # the slice runs.  rho and j at s = -1, 0, 1 are within 1e-15 of a
    # 50-digit mpmath quadrature of the momentum integral; the massless
    # transport is 2.1e-14 off in j at s = 0, a correction of order m / k0.
    out = tmp_path / "coarse"
    code = run_cli("field", "--out", out, *FIG3, *GRID, "--set", "grid.t_values=0.5",
                   "--set", "packet.k0=1e14")
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / "field.csv")
    rows = np.array(rows)
    rho = [0.24079146121509226448, 0.35206532676429947777, 0.24079146121509894091]
    j = [-0.11127386554919038722, 2.0889742874619397771e-14, 0.11127386554921736294]
    assert np.max(np.abs(rows[:, 6] - rho)) <= 1e-15
    assert np.max(np.abs(rows[:, 7] - j)) <= 1e-15
    assert not (out / LOCK_NAME).exists()


def test_collapsed_momentum_window_fails_cleanly(tmp_path, capsys):
    # At k0 = 1e300 the momentum window rounds to one point, and the field
    # is the massless transport to a double.
    out = tmp_path / "collapsed"
    code = run_cli("field", "--out", out, *FIG3, *GRID, "--set", "grid.t_values=0.5",
                   "--set", "packet.k0=1e300")
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / "field.csv")
    rows = np.array(rows)
    data = PacketParams(sigma=1.0, k0=1e300, theta0=np.pi / 2, omega0=0.0, mass=3.0)
    rho, j = massless_transport(0.5, rows[:, 1], data)
    assert np.max(np.abs(rows[:, 6] - rho)) <= 1e-15
    assert np.max(np.abs(rows[:, 7] - j)) <= 1e-15
    assert not (out / LOCK_NAME).exists()


# Inputs whose momentum-route phase E t lost its digits to rounding: the
# doubling stalled, for more than 60 s (observables) or 52 s to a budget
# failure (spa-compare).  A fresh process with a short timeout turns a
# regression into a failure rather than a stuck suite.
FORMERLY_SLOW_CASES = {
    "observables-mass-1e8": ["observables", *FIG3, "--set", "packet.mass=1e8",
                             "--set", "observables.times=0.5"],
    "spa-compare-omega-1e9": [*SPA_COMPARE, "--set", "spa_compare.omega_ladder=1e9"],
}


@pytest.mark.parametrize("case", sorted(FORMERLY_SLOW_CASES))
def test_formerly_slow_inputs_finish_in_subprocess(tmp_path, case):
    import diracflow
    src = str(Path(diracflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "diracflow.cli", *FORMERLY_SLOW_CASES[case], "--out", str(out)],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
    if case.startswith("observables"):
        doc = json.loads((out / "observables.json").read_text())
        assert doc["momentum"]["0.5"] == pytest.approx(10.0, rel=1e-12)
        assert doc["energy_t0"] == pytest.approx(doc["energy_t0_analytic"], rel=1e-12)
    else:
        # The rounding of the global phase E0 t ~ 1.4e9 (ulp 2.4e-7), not
        # the quadrature, sets the sup error of 1.7e-7.
        doc = json.loads((out / "spa_compare.json").read_text())
        assert doc["sup_errors"][0] <= 1e-6
    assert not (out / LOCK_NAME).exists()


# =============================================================================
# spa-compare
# =============================================================================

def test_spa_compare_fits_the_slope(tmp_path):
    out = tmp_path / "ladder"
    code = run_cli(*SPA_COMPARE, "--out", out, "--set", "spa_compare.omega_ladder=50,100,200,400")
    assert code == 0
    doc = json.loads((out / "spa_compare.json").read_text())
    want = error_scaling(SpaParams(p0=1.0, sigma=0.2, omega=50.0), 1.0,
                         [50.0, 100.0, 200.0, 400.0], np.linspace(-1.5, 1.5, 101), QuadConfig())
    assert doc["slope"] == want.slope and doc["intercept"] == want.intercept
    assert doc["sup_errors"] == list(want.sup_errors)
    assert doc["flagged"] is None


def test_unexpected_numerical_failure_is_one_line_exit_3(tmp_path, capsys):
    # The ladder's exact field needs more than 8 panels: error_scaling raises
    # IntegrationError, which main reports and records in the manifest.
    out = tmp_path / "budget"
    code = run_cli(*SPA_COMPARE, "--out", out, "--set", "spa_compare.omega_ladder=50,100,200,400",
                   "--set", "quadrature.max_panels=8")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("diracflow: numerical failure: panel budget 8")
    assert err.count("\n") == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["failure"].startswith("panel budget 8")
    assert not (out / LOCK_NAME).exists()


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


def test_trajectory_bloch_columns_describe_the_velocity(tmp_path):
    # cos Theta is the third Bloch component, which equals the spinor's
    # velocity: the spinor behind R/Theta/Omega/Phi is the one that drove v.
    out = tmp_path / "ck"
    code = run_cli("trajectories", "--out", out, "--seed", "9", *FIG3,
                   "--set", "trajectories.n=8", "--set", "trajectories.t_final=8")
    assert code == 0
    files = sorted(out.glob("traj_*.csv"))
    assert len(files) == 8
    for path in files:
        header, rows = read_csv(path)
        cols = np.array(rows).T
        r, theta, v = (cols[header.index(k)] for k in ("R", "Theta", "v"))
        dense = r**2 > 1e-6 * np.max(r**2)
        assert np.any(cols[header.index("t")][dense] < 2.79)
        assert np.max(np.abs(np.cos(theta[dense]) - v[dense])) <= 1e-12


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


@pytest.mark.parametrize("override", ["packet.k0=1e300", "packet.mass=1e200"])
def test_overflowing_group_speed_rejected(tmp_path, capsys, override):
    # k0^2 + mass^2 overflows a float: v0 is undefined and the run is refused.
    # The packet is inside the SPA regime, so no regime warning precedes it.
    out = tmp_path / "v0"
    code = run_cli("trajectories", "--out", out, *FIG3, "--set", "packet.sigma=0.1",
                   "--set", "packet.k0=1000", "--set", override,
                   "--set", "trajectories.n=2", "--set", "trajectories.t_final=1.0")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("diracflow: configuration error: k0^2 + mass^2 must be finite")
    assert err.count("\n") == 1
    assert not (out / LOCK_NAME).exists()


def test_huge_t_final_warns_through_diracflow_lines(tmp_path):
    # Overflows in the Bloch series and summary phases reach stderr as
    # diracflow warning lines, not as the interpreter's RuntimeWarning.
    out = tmp_path / "huge-t"
    proc = run_cli_subprocess(out, ["trajectories", *FIG3, "--set", "trajectories.n=2",
                                    "--set", "trajectories.t_final=1e300"])
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and ".py:" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("diracflow: warning: ") for line in lines)
    assert not (out / LOCK_NAME).exists()


@pytest.mark.parametrize("args, code", [
    (["field", *FIG3, "--set", "grid.t_values=0.5", "--set", "grid.s_min=-5",
      "--set", "grid.s_max=1e300", "--set", "grid.s_count=7"], 0),
    (["observables", *FIG3, "--set", "observables.trajectory_q0=0.3",
      "--set", "observables.t_final=1e300"], 0),
    (["barriers", "--set", "barriers.theta0_values=0.5", "--set", "barriers.x_max=1e300"], 0),
    (["barriers", "--set", "barriers.theta0_values=5e-324"], 2),
], ids=["field-far-grid", "observables-huge-t-final", "barriers-huge-x", "barriers-tiny-theta0"])
def test_numpy_warnings_reach_stderr_as_diracflow_lines(tmp_path, args, code):
    # Overflows on runs that finish reach stderr as diracflow lines, not as
    # a RuntimeWarning with its source path.  A theta0 whose half rounds to
    # 0, where ln tan(theta0 / 2) is -inf, is rejected.
    out = tmp_path / "run"
    proc = run_cli_subprocess(out, args)
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and ".py:" not in proc.stderr
    assert all(line.startswith("diracflow: ") for line in proc.stderr.splitlines())
    assert not (out / LOCK_NAME).exists()


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


@pytest.mark.parametrize("command", ["bloch", "trajectories"])
def test_bloch_with_every_member_failed(tmp_path, command):
    # Unreachable tolerances in 8 panels fail every EXACT trajectory:
    # nothing to cluster.
    out = tmp_path / f"{command}-failed"
    proc = run_cli_subprocess(out, [
        command, *FIG3, "--set", f"{command}.n=2", "--set", f"{command}.t_final=0.5",
        "--set", f"{command}.field=EXACT", *UNREACHABLE])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("diracflow: numerical failure: 2 of 2 trajectories failed: "
            "quadrature did not converge within 8 panels") in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["failed_trajectories"] == 2
    if command == "bloch":
        doc = json.loads((out / "bloch_summary.json").read_text())
        assert doc["n_clusters"] == 0
    else:
        doc = json.loads((out / "summary.json").read_text())
        assert doc["counts"]["FAILED"] == 2
    assert not (out / LOCK_NAME).exists()


def test_trajectories_reports_spa_regime_without_python_warning(tmp_path):
    # FIG3 is outside the SPA regime: the manifest records the report and
    # stderr carries one diracflow line, not the interpreter's warning.
    out = tmp_path / "regime"
    proc = run_cli_subprocess(out, ["trajectories", *FIG3, "--set", "trajectories.n=2",
                                    "--set", "trajectories.t_final=1.0"])
    assert proc.returncode == 0, proc.stderr
    assert "UserWarning" not in proc.stderr
    assert ".py:" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("diracflow: warning: packet violates the SPA regime")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["spa_regime"]["ok"] is False


def test_tiny_tol_warns_once_without_python_warning(tmp_path):
    # A tol below 100 machine epsilons is clamped for the relative tolerance;
    # the four members share one warning line and one manifest note.
    out = tmp_path / "tiny-tol"
    proc = run_cli_subprocess(out, ["trajectories", *FIG3, "--set", "trajectories.n=4",
                                    "--set", "trajectories.t_final=1.0",
                                    "--set", "trajectories.tol=1e-30"])
    assert proc.returncode == 0, proc.stderr
    assert "UserWarning" not in proc.stderr
    assert ".py:" not in proc.stderr
    tol_lines = [line for line in proc.stderr.splitlines() if "tol = 1e-30" in line]
    assert len(tol_lines) == 1
    assert tol_lines[0].startswith("diracflow: warning: ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["notes"]["ensemble_warnings"]) == 1


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


def test_observables_at_large_k0(tmp_path, capsys):
    # <P> = k0 at k0 = 1000; at k0 = 1e4 and t = 0.5 the band needs more
    # grid points than the cap, and the run fails before evaluating them.
    out = tmp_path / "k1000"
    code = run_cli("observables", "--out", out, *FIG3, "--set", "packet.k0=1000",
                   "--set", "observables.times=0.0,0.5")
    assert code == 0
    doc = json.loads((out / "observables.json").read_text())
    assert list(doc["momentum"]) == ["0.0", "0.5"]
    for value in doc["momentum"].values():
        assert value == pytest.approx(1000.0, abs=1e-6)
    start = time.perf_counter()
    code = run_cli("observables", "--out", tmp_path / "k1e4", *FIG3, "--set", "packet.k0=1e4",
                   "--set", "observables.times=0.5")
    assert code == 3 and time.perf_counter() - start < 5.0
    assert "more than 131072 grid points" in capsys.readouterr().err


@pytest.mark.parametrize("t_final", [None, "1e300"])
def test_observables_reports_node_events(tmp_path, capsys, t_final):
    # From t ~ 6e16 on the spacing of q exceeds sigma, the SPA trajectory
    # stops moving and records node events, and most samples are undefined:
    # the block counts the events and one stderr line names both.  The run
    # to the default t_final has neither and prints nothing.
    out = tmp_path / "nodes"
    extra = [] if t_final is None else ["--set", f"observables.t_final={t_final}"]
    code = run_cli("observables", "--out", out, *FIG3,
                   "--set", "observables.trajectory_q0=0.3", *extra)
    assert code == 0
    block = json.loads((out / "observables.json").read_text())["trajectory"]
    err = capsys.readouterr().err
    if t_final is None:
        assert block["node_events"] == 0 and err == ""
    else:
        warned = [line for line in err.splitlines() if "node events" in line]
        assert block["node_events"] > 0 and len(warned) == 1
        assert warned[0].startswith(
            f"diracflow: warning: the trajectory met {block['node_events']} node events and ")


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

def test_barriers_command(tmp_path, capsys):
    # At theta0 = pi/2 (tan theta0 = 1.6e16) and 2.9 the zero curve's naive
    # form cancels: non-finite y0 cells and raw RuntimeWarnings.
    out = tmp_path / "bar"
    code = run_cli("barriers", "--out", out, "--set", "barriers.x_count=400",
                   "--set", f"barriers.theta0_values={np.pi/8} {np.pi/4} {3*np.pi/8} "
                            f"{np.pi/2} 2.9")
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "barriers.json").read_text())
    by_theta = {round(r["theta0"], 6): r for r in doc["reports"]}
    assert by_theta[round(np.pi / 4, 6)]["c_plus"] == 0.0
    assert all(r["violations"] == 0 for r in doc["reports"])
    header, rows = read_csv(out / "barriers.csv")
    f_idx = header.index("F_at_y0")
    assert max(abs(r[f_idx]) for r in rows) <= 1e-12
    assert len(rows) == 5 * 400
    assert all(np.isfinite(r[header.index("y0")]) for r in rows)


def test_barriers_far_x_is_warning_free(tmp_path, capsys):
    # Out to x = 1000, x y - ln eta passes 710, where 1 / cosh would overflow.
    out = tmp_path / "bar"
    code = run_cli("barriers", "--out", out, "--set", "barriers.theta0_values=0.5",
                   "--set", "barriers.x_max=1000")
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "barriers.json").read_text())
    assert doc["reports"][0]["violations"] == 0


def test_barriers_at_an_overflowing_x_fail_cleanly(tmp_path, capsys):
    # At x = 5e-324 C_+ / x overflows: one numerical-failure line naming x,
    # no overflow warning and no count of sign violations.
    out = tmp_path / "bar"
    code = run_cli("barriers", "--out", out, "--set", "barriers.theta0_values=0.7",
                   "--set", "barriers.x_min=5e-324")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("diracflow: numerical failure: ")
    assert "x = 5e-324" in lines[0]
    assert not (out / "barriers.json").exists()
    assert not (out / LOCK_NAME).exists()


def test_unused_config_keys_are_reported(tmp_path, capsys):
    # A key that no command reads is named on stderr and in the manifest, and
    # the run goes on without it.  [run] seed and out overridden by a flag
    # are not reported.
    out = tmp_path / "bar"
    code = run_cli("barriers", "--out", out, "--seed", "1", "--set", "run.seed=2",
                   "--set", f"run.out={tmp_path / 'other'}",
                   "--set", "barriers.theta0_values=0.5", "--set", "barriers.x_cuont=3")
    assert code == 0
    assert capsys.readouterr().err == (
        "diracflow: warning: unused config keys: [barriers] x_cuont\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["unused_config_keys"] == ["[barriers] x_cuont"]
    _, rows = read_csv(out / "barriers.csv")
    assert len(rows) == 50


# =============================================================================
# Start-up: each scipy stack loads on first use
# =============================================================================

def _scipy_modules_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; the scipy modules it printed as loaded, per stage."""
    import diracflow
    src = str(Path(diracflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import json, sys\n"
              "def stage():\n"
              "    print(json.dumps(sorted(m for m in sys.modules\n"
              "                            if m == 'scipy' or m.startswith('scipy.'))))\n"
              + code)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_library_loads_each_scipy_stack_on_first_use():
    imported, ensemble, field = _scipy_modules_after(
        "import numpy as np\n"
        "import diracflow as df\n"
        "stage()\n"
        "fig3 = df.PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)\n"
        "df.run_ensemble(2, fig3, 0.5)\n"
        "df.integrate_trajectory(0.3, (0.0, 0.5), df.SchrodingerField(10.0))\n"
        "df.find_bifurcation(fig3, 8.0, 0.5)\n"
        "stage()\n"
        "for t in (0.5, 2.0, 8.0):\n"
        "    df.evolve_exact_grid(t, np.linspace(-480.0, 480.0, 64), fig3)\n"
        "stage()\n")
    assert not imported
    # The ensemble draw's ndtri is specfun's own; SPA trajectories load nothing.
    assert not ensemble
    assert "scipy.special" in field and "scipy.integrate" not in field


def test_benchmark_grids_load_no_scipy(tmp_path):
    # The benchmark's field grids take the momentum route, which needs no
    # Bessel function: the seven evolve_exact_grid cases (unshifted and
    # shifted by one spacing) and the field command on its FIG3 grid; they
    # take E0 t's rounding without the decimal module either.  So does a
    # field run at k0 = 1e14.  Its SPA ensembles, trajectories and bloch,
    # draw with specfun's ndtri.  A wide grid still takes the Bessel route,
    # which loads scipy.special.
    field = ["field", *FIG3, "--set", "grid.t_values=0.5,2.0", "--set", "grid.s_min=-7.75",
             "--set", "grid.s_max=8.25", "--set", "grid.s_count=64",
             "--out", str(tmp_path / "run")]
    large_k0 = ["field", *FIG3, *GRID, "--set", "grid.t_values=0.5", "--set", "packet.k0=1e14",
                "--out", str(tmp_path / "large_k0")]
    ensembles = [[command, "--seed", "1016164991", *FIG3, "--set", f"{command}.n=8",
                  "--set", f"{command}.t_final=8.0", "--out", str(tmp_path / command)]
                 for command in ("trajectories", "bloch")]
    grids, wide = _scipy_modules_after(
        "import numpy as np\n"
        "import diracflow as df\n"
        "from diracflow import dirac_exact\n"
        "from diracflow.cli import main\n"
        "fig3 = df.PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)\n"
        "v0 = 10.0 / np.hypot(10.0, 3.0)\n"
        "cases = [(t, np.linspace(-(v0 * t + 5.0), v0 * t + 5.0, 64), fig3)\n"
        "         for t in (0.5, 2.0, 8.0)]\n"
        "cases += [(1.0, np.linspace(-1.5, 1.5, 33), df.PacketParams.macroscopic(0.2, 1.0, w))\n"
        "          for w in (50.0, 100.0, 200.0, 400.0)]\n"
        "for t, s, data in cases:\n"
        "    for shift in (0.0, s[1] - s[0]):\n"
        "        df.evolve_exact_grid(t, s + shift, data)\n"
        f"assert main({field!r}) == 0\n"
        f"assert main({large_k0!r}) == 0\n"
        "assert 'decimal' not in sys.modules\n"
        f"assert main({ensembles[0]!r}) == 0\n"
        f"assert main({ensembles[1]!r}) == 0\n"
        "stage()\n"
        "s = np.linspace(-480.0, 480.0, 64)\n"
        "route, _ = dirac_exact._route_and_panels(0.5, s, fig3)\n"
        "assert route is dirac_exact._bessel_grid\n"
        "df.evolve_exact_grid(0.5, s, fig3)\n"
        "stage()\n")
    assert not grids
    assert "scipy.special" in wide and "scipy.integrate" not in wide


@pytest.mark.parametrize("args, code", [
    (["barriers", "--set", "barriers.theta0_values=0.5"], 0),
    (["field", *FIG3, *GRID, "--set", "grid.t_values=nan"], 2),
], ids=["barriers", "rejected"])
def test_cli_runs_without_scipy(tmp_path, args, code):
    (loaded,) = _scipy_modules_after(
        "from diracflow.cli import main\n"
        f"assert main({[*args, '--out', str(tmp_path / 'run')]!r}) == {code}\n"
        "stage()\n")
    assert not loaded


@pytest.mark.parametrize("args", [
    ["trajectories", *FIG3, "--set", "trajectories.n=2", "--set", "trajectories.t_final=0.5"],
    ["bloch", *FIG3, "--set", "bloch.n=2", "--set", "bloch.t_final=0.5"],
    # Its EXACT trajectory's field points take only the momentum route.
    ["observables", *FIG3, "--set", "observables.trajectory_q0=0.5",
     "--set", "observables.t_final=0.5", "--set", "observables.field=EXACT"],
], ids=["trajectories", "bloch", "observables"])
def test_cli_integrates_without_scipy_integrate(tmp_path, args):
    (loaded,) = _scipy_modules_after(
        "from diracflow.cli import main\n"
        f"assert main({[*args, '--out', str(tmp_path / 'run')]!r}) == 0\n"
        "stage()\n")
    assert not loaded
