from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.linalg import LinAlgError

from framesim.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    config_digest,
    main,
)

from conftest import fast_collision_dict, fast_measurement_dict


@pytest.fixture()
def collision_config_file(tmp_path: Path) -> Path:
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(fast_collision_dict()))
    return path


@pytest.fixture()
def measurement_config_file(tmp_path: Path) -> Path:
    path = tmp_path / "measurement.json"
    path.write_text(json.dumps(fast_measurement_dict()))
    return path


def test_run_writes_report_and_manifest(measurement_config_file, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(str(measurement_config_file), str(out)) == EXIT_OK
    assert (out / "report.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == config_digest(
        json.loads(measurement_config_file.read_text())
    )
    assert manifest["seeds"]
    assert "run_seconds" in manifest["timings"]


def test_rerun_is_byte_identical(measurement_config_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cmd_run(str(measurement_config_file), str(out1)) == EXIT_OK
    assert cmd_run(str(measurement_config_file), str(out2)) == EXIT_OK
    assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()


def test_run_rejects_bad_coefficients(tmp_path, capsys):
    raw = fast_measurement_dict()
    raw["measurement"]["coefficients"] = {"real": [1.0, 1.0], "imag": [0.0, 0.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cmd_run(str(path), str(tmp_path / "out")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "sum |c_l|^2 = 1" in err


def test_run_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cmd_run(str(path), str(tmp_path / "out")) == EXIT_PARSE
    assert cmd_run(str(tmp_path / "missing.json"), str(tmp_path / "out")) == EXIT_PARSE


def test_run_set_overrides_and_seed(measurement_config_file, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cmd_run(str(measurement_config_file), str(out1), ["seeds.trials=500"], seed=11) == EXIT_OK
    assert cmd_run(str(measurement_config_file), str(out2), ["seeds.trials=500"], seed=12) == EXIT_OK
    rec1 = json.loads((out1 / "report.jsonl").read_text().splitlines()[0])
    rec2 = json.loads((out2 / "report.jsonl").read_text().splitlines()[0])
    assert rec1["trials"] == 500
    assert rec1["outcome_counts"] != rec2["outcome_counts"]


def test_run_rejects_unknown_override(measurement_config_file, tmp_path):
    code = cmd_run(str(measurement_config_file), str(tmp_path / "out"), ["no.such.key=1"])
    assert code == EXIT_VALIDATION


# Each bad override must be rejected before anything propagates.
BAD_OVERRIDES = [
    ('dt="abc"', EXIT_VALIDATION),
    ("dt=NaN", EXIT_VALIDATION),
    ("dt=Infinity", EXIT_VALIDATION),
    ("dt=0.03", EXIT_VALIDATION),  # above the anti-aliasing bound of about 0.0196
    ('seeds.trials="x"', EXIT_VALIDATION),
    ("seeds.trials=1.5", EXIT_VALIDATION),
    ("seeds.branch=-1", EXIT_VALIDATION),
    ("internal.dim=2.7", EXIT_VALIDATION),
    ("center_of_mass.points=100", EXIT_VALIDATION),
    ("particle.grid.points=8", EXIT_VALIDATION),
    ("particle.packet.sigma=0", EXIT_VALIDATION),
    ("checkpoint_every=0", EXIT_VALIDATION),
    ('hbar="1"', EXIT_VALIDATION),
    ("hbar=0", EXIT_VALIDATION),
    ("no.such.key=1", EXIT_VALIDATION),
    ("dt", EXIT_VALIDATION),
    ('coupling.matrix={"real":[[0,1],[0,0]]}', EXIT_VALIDATION),  # not Hermitian
    ('internal.hamiltonian={"real":[[0,1],[0,0]]}', EXIT_VALIDATION),  # not Hermitian
    ('internal.state={"real":[0,0]}', EXIT_VALIDATION),  # cannot be normalized
    ('coupling.matrix={"real":[[1,0,0],[0,1,0],[0,0,1]]}', EXIT_VALIDATION),  # 3x3, dim 2
]


@pytest.mark.parametrize("override, expected", BAD_OVERRIDES)
def test_bad_override_exit_code(
    collision_config_file, tmp_path, capsys, no_propagation, override, expected
):
    argv = ["run", str(collision_config_file), "--out", str(tmp_path / "out"),
            "--set", override]
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err


BAD_MEASUREMENT_OVERRIDES = [
    ("measurement.a.trap.width=0", EXIT_VALIDATION),
    ("measurement.a.trap.width=-1", EXIT_VALIDATION),
    ('coupling.matrix={"real":[[0,1],[0,0]]}', EXIT_VALIDATION),  # not Hermitian
]


@pytest.mark.parametrize("override, expected", BAD_MEASUREMENT_OVERRIDES)
def test_bad_measurement_override_exit_code(
    measurement_config_file, tmp_path, capsys, no_propagation, override, expected
):
    argv = ["run", str(measurement_config_file), "--out", str(tmp_path / "out"),
            "--set", override]
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err


# A misspelt key is an error wherever it sits, not a silently kept default.
UNKNOWN_KEYS = [
    ("collision", "checkpoint_evry"),
    ("collision", "particle.packet.r00"),
    ("collision", "internal.state.imga"),
    ("measurement", "measurement.a.trap.widht"),
]


@pytest.mark.parametrize("scenario, key", UNKNOWN_KEYS)
def test_unknown_config_key_exit_code(tmp_path, capsys, no_propagation, scenario, key):
    raw = fast_collision_dict() if scenario == "collision" else fast_measurement_dict()
    *parents, last = key.split(".")
    section = raw
    for name in parents:
        section = section[name]
    section[last] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"unknown key '{key}'" in err


def test_sweep_rejects_bad_value_before_launching(
    collision_config_file, tmp_path, capsys, no_propagation
):
    argv = ["sweep", str(collision_config_file), "--param", "center_of_mass.points",
            "--values", "128,100", "--out", str(tmp_path / "s")]
    assert main(argv) == EXIT_VALIDATION
    assert "power of two" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("setting", ["two", "1.5", "0"])
def test_sweep_rejects_bad_worker_count(
    collision_config_file, tmp_path, capsys, monkeypatch, no_propagation, setting
):
    monkeypatch.setenv("FRAMESIM_WORKERS", setting)
    argv = ["sweep", str(collision_config_file), "--param", "dt",
            "--values", "0.012", "--out", str(tmp_path / "s")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "FRAMESIM_WORKERS" in err
    assert not (tmp_path / "s").exists()


def test_run_reports_simulation_errors(collision_config_file, tmp_path, capsys):
    # a packet sitting on the heavy system violates the quiet initial period
    code = cmd_run(
        str(collision_config_file), str(tmp_path / "out"), ["particle.packet.r0=0.0"]
    )
    assert code == EXIT_RUNTIME
    assert "not negligible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [LinAlgError("Eigenvalues did not converge"), MemoryError()],
    ids=["LinAlgError", "MemoryError"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_numerical_failures_exit_runtime(
    collision_config_file, tmp_path, capsys, monkeypatch, command, error
):
    def fail(cfg):
        raise error

    monkeypatch.setattr("framesim.cli.run_scenario", fail)
    monkeypatch.delenv("FRAMESIM_WORKERS", raising=False)
    out = str(tmp_path / "out")
    if command == "run":
        argv = ["run", str(collision_config_file), "--out", out]
    else:
        argv = ["sweep", str(collision_config_file), "--param", "dt",
                "--values", "0.012", "--out", out]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"simulation error: {type(error).__name__}: {error}\n"


def test_verify_accepts_untouched_output(measurement_config_file, tmp_path):
    out = tmp_path / "out"
    assert cmd_run(str(measurement_config_file), str(out)) == EXIT_OK
    assert cmd_verify(str(out)) == EXIT_OK


def test_verify_rejects_edited_probability(measurement_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert cmd_run(str(measurement_config_file), str(out)) == EXIT_OK
    report = out / "report.jsonl"
    lines = report.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    records[0]["empirical_frequencies"][0] += 0.25
    report.write_text(
        "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
        + "\n"
    )
    assert cmd_verify(str(out)) == EXIT_VERIFY
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("malformed, message", [
    ("missing field", "record 0: malformed (KeyError: 'outcome_counts')"),
    ("record not an object", "record 1: malformed (AttributeError:"),
    ("manifest not an object", "corrupt report or manifest (manifest is not an object)"),
], ids=["missing-field", "record-not-object", "manifest-not-object"])
def test_verify_rejects_malformed_output(
    measurement_config_file, tmp_path, capsys, malformed, message
):
    out = tmp_path / "out"
    assert cmd_run(str(measurement_config_file), str(out)) == EXIT_OK
    report = out / "report.jsonl"
    records = [json.loads(line) for line in report.read_text().splitlines()]
    if malformed == "manifest not an object":
        (out / "manifest.json").write_text("[]\n")
    else:
        if malformed == "missing field":
            del records[0]["outcome_counts"]
        else:
            records[1] = [records[1]]
        report.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert cmd_verify(str(out)) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_verify_rejects_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cmd_verify(str(empty)) == EXIT_VERIFY
    assert "no reports found" in capsys.readouterr().err


def test_sweep_over_masses(collision_config_file, tmp_path):
    out = tmp_path / "sweep"
    code = cmd_sweep(
        str(collision_config_file), "center_of_mass.masses", [100.0, 400.0], str(out)
    )
    assert code == EXIT_OK
    assert (out / "run-000" / "report.jsonl").exists()
    assert (out / "run-001" / "report.jsonl").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("center_of_mass.masses,fidelity_deficit")
    assert len(summary) == 3
    # heavier mass gives a smaller deficit
    first = [float(v) for v in summary[1].split(",")]
    second = [float(v) for v in summary[2].split(",")]
    assert second[1] < first[1]
    assert second[3] < first[3]
    # each row is its own run's last collision_summary entries
    for mass, row, run in zip([100.0, 400.0], (first, second), ("run-000", "run-001")):
        rec = _records(out / run)[-1]
        assert rec["record"] == "collision_summary"
        assert row == [mass, rec["fidelity_deficits"][-1], rec["residual_norms"][-1],
                       rec["trace_distances"][-1]]
    _assert_plots_match_summary(out)
    assert cmd_verify(str(out)) == EXIT_OK


def _records(run_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (run_dir / "report.jsonl").read_text().splitlines()]


def _assert_plots_match_summary(out: Path) -> None:
    """Each plots/<column>.csv is the parameter and that column of summary.csv."""
    summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    for col, name in enumerate(summary[0][1:], start=1):
        plot = (out / "plots" / f"{name}.csv").read_text().splitlines()
        assert plot == [f"{row[0]},{row[col]}" for row in summary]


def test_measurement_sweep_tables(measurement_config_file, tmp_path):
    out = tmp_path / "sweep"
    assert cmd_sweep(
        str(measurement_config_file), "seeds.trials", [400.0, 600.0], str(out)
    ) == EXIT_OK
    columns = ["coefficient_error", "overlap_weight", "absorbed_mass"]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(["seeds.trials", *columns])
    assert len(summary) == 3
    for line, run in zip(summary[1:], ("run-000", "run-001")):
        row = [float(v) for v in line.split(",")]
        assert all(math.isfinite(v) for v in row)
        rec = _records(out / run)[0]
        assert rec["record"] == "measurement"
        assert row == [rec["trials"], *(rec[name] for name in columns)]
    _assert_plots_match_summary(out)


def test_sweep_rejects_unknown_key(collision_config_file, tmp_path):
    code = cmd_sweep(str(collision_config_file), "nope.masses", [1.0], str(tmp_path / "s"))
    assert code == EXIT_VALIDATION


def test_sweep_single_value_matches_run(measurement_config_file, tmp_path):
    out_sweep = tmp_path / "sweep"
    out_run = tmp_path / "run"
    assert cmd_sweep(
        str(measurement_config_file), "seeds.trials", [500.0], str(out_sweep)
    ) == EXIT_OK
    assert cmd_run(
        str(measurement_config_file), str(out_run), ["seeds.trials=500"]
    ) == EXIT_OK
    sweep_report = (out_sweep / "run-000" / "report.jsonl").read_bytes()
    run_report = (out_run / "report.jsonl").read_bytes()
    assert sweep_report == run_report


def test_sweep_with_worker_pool(measurement_config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("FRAMESIM_WORKERS", "2")
    out = tmp_path / "pool"
    code = cmd_sweep(
        str(measurement_config_file), "seeds.trials", [400.0, 600.0], str(out)
    )
    assert code == EXIT_OK
    rec0 = json.loads((out / "run-000" / "report.jsonl").read_text().splitlines()[0])
    rec1 = json.loads((out / "run-001" / "report.jsonl").read_text().splitlines()[0])
    assert rec0["trials"] == 400
    assert rec1["trials"] == 600


# Every pool worker of this sweep dies without raising, through os._exit.
DYING_WORKERS = """
import os, sys
from framesim import cli
parent, run_scenario = os.getpid(), cli.run_scenario
cli.run_scenario = lambda cfg: run_scenario(cfg) if os.getpid() == parent else os._exit(1)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_dead_sweep_worker_exits_runtime(collision_config_file, tmp_path):
    argv = ["sweep", str(collision_config_file), "--param", "center_of_mass.masses",
            "--values", "100,400", "--out", str(tmp_path / "s")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), FRAMESIM_WORKERS="2")
    # A session of its own, so that a hung sweep is killed with its workers.
    proc = subprocess.Popen(
        [sys.executable, "-c", DYING_WORKERS, *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sweep hung after its pool workers died")
    assert proc.returncode == EXIT_RUNTIME
    assert err.startswith("simulation error: BrokenProcessPool: ")
    assert err.count("\n") == 1
    with pytest.raises(ProcessLookupError):  # no worker outlives the sweep
        os.killpg(proc.pid, 0)


def test_cli_import_loads_no_process_pool():
    # The pool is imported only by a sweep that uses one, so set-up stays lean.
    code = ("import sys, framesim.cli; print([m for m in sys.modules if "
            "m.startswith(('multiprocessing', 'concurrent.futures'))])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_python_m_framesim_version():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "framesim", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("framesim ")


def test_main_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "framesim" in capsys.readouterr().out


def test_main_dispatches_verify(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["verify", str(empty)]) == EXIT_VERIFY
