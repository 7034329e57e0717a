import json

import numpy as np
import pytest

import swstab.oracle
from swstab import MatrixFamily, write_instance
from swstab.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_NO_COMBINATION,
    EXIT_OK,
    main,
)


@pytest.fixture
def diag_instance(tmp_path, diag_family):
    path = tmp_path / "diag.json"
    write_instance(path, diag_family, name="diagonal-pair")
    return str(path)


@pytest.fixture
def shear_instance(tmp_path, shear_family):
    path = tmp_path / "shear.json"
    write_instance(path, shear_family, name="shear-pair")
    return str(path)


@pytest.fixture
def hopeless_instance(tmp_path):
    path = tmp_path / "hopeless.json"
    fam = MatrixFamily((np.diag([2.0, 2.0]), np.diag([3.0, 3.0])))
    write_instance(path, fam, name="no-stable-combination")
    return str(path)


def test_analyze_reports_combination(diag_instance, capsys):
    assert main(["analyze", diag_instance]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all subsystems unstable: yes" in out
    assert "head=1 tail=2 p=1 q=1 m=1" in out


def test_analyze_no_combination(hopeless_instance, capsys):
    assert main(["analyze", hopeless_instance]) == EXIT_NO_COMBINATION
    assert "none found" in capsys.readouterr().out


def test_certify_feasible(diag_instance, capsys):
    assert main(["certify", diag_instance, "--lambda", "0.3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "CERT lhs=0.87461702418744425 lambda=0.29999999999999999 feasible=1" in out


def test_certify_auto_rate(diag_instance, capsys):
    assert main(["certify", diag_instance]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max certified rate: 0.36698458754010022" in out
    assert "feasible=1" in out


def test_certify_infeasible(shear_instance, capsys):
    assert main(["certify", shear_instance]) == EXIT_INFEASIBLE
    assert "feasible=0" in capsys.readouterr().out


def test_certify_rejects_bad_rate(diag_instance):
    with pytest.raises(SystemExit):
        main(["certify", diag_instance, "--lambda", "fast"])


def test_missing_instance_is_io_error(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json")]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["certify", str(bad)]) == EXIT_IO


def test_signal_writes_csv(diag_instance, tmp_path, capsys):
    out = tmp_path / "signal.csv"
    code = main(
        ["signal", diag_instance, "--steps", "10", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,sigma"
    assert all(line.split(",")[1] in {"1", "2"} for line in lines[1:])


def test_simulate_writes_norm_files(diag_instance, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            diag_instance,
            "--horizon", "40",
            "--trials", "2",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "signal.csv").exists()
    for k in range(2):
        lines = (out / f"norms_{k:03d}.csv").read_text().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) == 42  # header + t = 0..40


def test_verify_passes_at_basis_length(diag_instance, capsys):
    # Up to the basis the ratio is 1 by the definition of the constant, so
    # the exhaustive check has nothing to check there and reports SKIP.
    for extra in ("0", "-10"):
        assert main(["verify", diag_instance, "--extra", extra]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "exchange identity residual: 0 PASS" in lines
        assert "envelope constant: 2.9999977980932822 (exhaustive, basis length 4)" in lines
        checks = [line for line in lines if line.startswith("exhaustive envelope check")]
        assert checks == ["exhaustive envelope check: SKIP (no lengths past the basis)"]
        assert "FAIL" not in out


def test_verify_scans_the_envelope_once(diag_instance, capsys, monkeypatch):
    scans = []
    scan = swstab.oracle._scan

    def counting_scan(nodes, dim, horizon):
        scans.append(horizon)
        return scan(nodes, dim, horizon)

    monkeypatch.setattr(swstab.oracle, "_scan", counting_scan)
    assert main(["verify", diag_instance]) == EXIT_BOUND_VIOLATED
    assert scans == [10]  # one scan, to basis 4 + extra 6
    assert "max_ratio=2.9999933942846964 (191 products) FAIL" in capsys.readouterr().out


def test_verify_detects_envelope_violation_past_basis(diag_instance, capsys):
    # At the certified rate the envelope fails a few steps past the basis
    # horizon; the verifier reports it and exits with the bound-violated code.
    assert main(["verify", diag_instance]) == EXIT_BOUND_VIOLATED
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_experiment_feasible_run(diag_instance, tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--instance", diag_instance,
            "--lambda", "0.15",
            "--seed", "3",
            "--horizon", "60",
            "--trials", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["feasible"] is True
    assert report["summary"] == {"trials": 3, "ges_violations": 0}
    assert len(report["trials"]) == 3
    assert (out / "signal.csv").exists()
    assert (out / "norms_002.csv").exists()
    # a named instance was supplied, so none is re-written
    assert not (out / "instance.json").exists()


def test_experiment_infeasible_run(shear_instance, tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--instance", shear_instance,
            "--seed", "3",
            "--horizon", "60",
            "--trials", "2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_INFEASIBLE
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["feasible"] is False


def test_experiment_random_instance_written(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        [
            "experiment",
            "--n", "2",
            "--dim", "2",
            "--seed", "1141",
            "--horizon", "50",
            "--trials", "2",
            "--out", str(out),
        ]
    )
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_BOUND_VIOLATED)
    data = json.loads((out / "instance.json").read_text())
    assert data["seed"] == 1141
    assert data["dim"] == 2
