import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swstab.certificate
import swstab.cli
import swstab.oracle
from swstab import MatrixFamily, write_instance
from swstab.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_NO_COMBINATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from swstab.graph import POLICIES


def _exit_code(argv) -> int:
    """The exit status the shell sees: argparse ends a usage error with SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


def test_certify_infeasible(shear_instance, diag_instance, capsys):
    assert main(["certify", shear_instance]) == EXIT_INFEASIBLE
    assert "feasible=0" in capsys.readouterr().out
    # a rate whose exponentials leave the double range is infeasible, not a crash
    assert main(["certify", diag_instance, "--lambda", "1e3"]) == EXIT_INFEASIBLE
    assert "CERT lhs=inf lambda=1000 feasible=0" in capsys.readouterr().out


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


def test_analyze_ends_an_entry_past_double_range_in_exit_5(tmp_path, capsys):
    # json reads 1e400 written as an integer as an int, which no double holds
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1, "matrices": [[[1' + "0" * 400 + ']], [[2]]]}')
    assert _exit_code(["analyze", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "past double range" in err and len(err.splitlines()) == 1


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

    def counting_scan(nodes, horizon):
        scans.append(horizon)
        return scan(nodes, horizon)

    monkeypatch.setattr(swstab.oracle, "_scan", counting_scan)
    assert main(["verify", diag_instance]) == EXIT_BOUND_VIOLATED
    assert scans == [10]  # one scan, to basis 4 + extra 6
    assert "max_ratio=2.9999933942846964 (191 products) FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("rate", ["auto", "0.15"])
@pytest.mark.parametrize("command", ["certify", "verify", "experiment"])
def test_certificate_constants_and_rate_are_computed_once(command, rate, diag_instance, tmp_path, monkeypatch):
    calls = []
    for name in ("compute_constants", "max_certified_rate"):

        def counting(*args, name=name, func=getattr(swstab.certificate, name)):
            calls.append(name)
            return func(*args)

        # the CLI module may hold a reference of its own to either function
        for module in (swstab.certificate, swstab.cli):
            monkeypatch.setattr(module, name, counting, raising=False)
    argv = [command, diag_instance, "--lambda", rate]
    if command == "experiment":
        argv = [command, "--instance", diag_instance, "--lambda", rate, "--trials", "1", "--out", str(tmp_path)]
    main(argv)
    assert sorted(calls) == ["compute_constants", "max_certified_rate"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--dim", "1"],
        ["experiment", "--n", "1"],
        ["experiment", "--horizon", "0"],
        ["experiment", "--horizon", "-3"],
        ["experiment", "--policy", "bogus"],
        ["experiment", "--lambda", "-1"],
        ["experiment", "--lambda", "abc"],
        ["experiment", "--lambda", "nan"],
        ["experiment", "--pmax", "0"],
        ["experiment", "--seed", "-1"],
        ["experiment", "--horizon", "ten"],
        ["signal", "DIAG", "--steps", "2.5"],
        ["simulate", "DIAG", "--partner", "5"],
        ["signal", "DIAG", "--steps", "0"],
        ["signal", "DIAG", "--allow-stable-self-loop"],
        ["simulate", "DIAG", "--allow-stable-self-loop"],
        ["experiment", "--allow-stable-self-loop"],
    ],
    ids=" ".join,
)
def test_usage_errors_exit_64_with_one_line(argv, diag_instance, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [diag_instance if a == "DIAG" else a for a in argv] + ["--out", str(out)]
    assert _exit_code(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "cap, method, constant, experiment_code",
    [(10, "norm-bound", 8.999986788564545, EXIT_OK), (100, "exhaustive", 2.9999977980932822, 4)],
)
def test_enumeration_cap_fallbacks(
    cap, method, constant, experiment_code, diag_instance, tmp_path, capsys, monkeypatch
):
    # cap 10: not even the basis (20 products) fits, so the norm bound
    # stands in; cap 100: the basis fits but basis+6 (191) does not.
    # Either way the exhaustive check is skipped, which exit 0 allows.
    monkeypatch.setattr(swstab.cli, "PIPELINE_ENUM_CAP", cap)
    assert main(["verify", diag_instance]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert f"envelope constant: {constant:.17g} ({method}, basis length 4)" in lines
    checks = [line for line in lines if line.startswith("exhaustive envelope check")]
    assert checks == ["exhaustive envelope check: SKIP (enumeration cap)"]
    out = tmp_path / "exp"
    argv = ["experiment", "--instance", diag_instance, "--trials", "2", "--horizon", "30"]
    assert main([*argv, "--out", str(out)]) == experiment_code
    certificate = json.loads((out / "report.json").read_text())["certificate"]
    assert certificate["envelope_method"] == method
    assert certificate["envelope_constant"] == constant


_FUZZ_INTS = st.integers(-2, 12).map(str)
_FUZZ_VALUES = {
    "--n": _FUZZ_INTS,
    "--dim": _FUZZ_INTS,
    "--pmax": _FUZZ_INTS,
    "--mmax": _FUZZ_INTS,
    "--lambda": st.sampled_from(["auto", "0.15", "0", "-1", "nan", "inf", "1e3", "abc", "1e-300"]),
    "--steps": st.integers(-2, 40).map(str),
    "--policy": st.sampled_from(["uniform-random", "round-robin", "alternate-stable", "bogus"]),
    "--seed": _FUZZ_INTS,
    "--partner": _FUZZ_INTS,
    "--horizon": st.integers(-2, 60).map(str),
    "--trials": st.integers(-1, 3).map(str),
    "--extra": st.integers(-3, 8).map(str),
}
_FUZZ_TAKES = {
    "analyze": ("--pmax", "--mmax"),
    "certify": ("--pmax", "--lambda"),
    "signal": ("--steps", "--policy", "--seed", "--partner"),
    "simulate": ("--policy", "--seed", "--partner", "--horizon", "--trials"),
    "verify": ("--mmax", "--lambda", "--extra"),
    "experiment": ("--n", "--dim", "--seed", "--lambda", "--policy", "--horizon", "--trials"),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, diag_family):
    path = tmp_path_factory.mktemp("fuzz")
    write_instance(path / "diag.json", diag_family, name="diagonal-pair")
    return path


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_FUZZ_TAKES)).flatmap(
        lambda command: st.tuples(
            st.just(command),
            st.fixed_dictionaries(
                {}, optional={flag: _FUZZ_VALUES[flag] for flag in _FUZZ_TAKES[command]}
            ),
        )
    )
)
def test_cli_fuzz_ends_in_a_documented_exit_code(fuzz_dir, case):
    # Any exception other than SystemExit would be a traceback.
    command, flags = case
    instance = str(fuzz_dir / "diag.json")
    argv = [command] + (["--instance", instance] if command == "experiment" else [instance])
    argv += [item for flag, value in flags.items() for item in (flag, value)]
    if command in ("signal", "simulate", "experiment"):
        argv += ["--out", str(fuzz_dir / command)]
    assert _exit_code(argv) in {0, 2, 3, 4, 5, 64}


_ENTRIES = st.sampled_from([-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 1e-100, -1e-100, 1e100, 1e-300])
_INSTANCES = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.lists(st.lists(_ENTRIES, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
        min_size=2,
        max_size=3,
    ).map(lambda matrices: {"dim": dim, "matrices": matrices})
)


def _run_instance(directory, instance, command, seed=0, policy="uniform-random"):
    path = directory / "instance.json"
    path.write_text(json.dumps(instance))
    if command in ("simulate", "experiment"):
        argv = [command, "--instance", str(path)] if command == "experiment" else [command, str(path)]
        argv += ["--out", str(directory / "exp"), "--trials", "2", "--horizon", "40"]
        argv += ["--seed", str(seed), "--policy", policy]
    else:
        argv = [command, str(path)]
    return _exit_code(argv + ["--pmax", "3", "--qmax", "3", "--mmax", "64"])


@settings(max_examples=200, deadline=None)
@given(
    _INSTANCES,
    st.sampled_from(["analyze", "certify", "verify", "simulate", "experiment"]),
    st.integers(0, 2**32),
    st.sampled_from(POLICIES),
)
def test_instance_fuzz_ends_in_a_documented_exit_code(fuzz_dir, instance, command, seed, policy):
    # Small instances with round entries hit the degenerate cases: stable
    # subsystems, nilpotent products, exact zeros.  Seeds and policies vary
    # where the schedule starts, so a zero matrix can open it.
    assert _run_instance(fuzz_dir, instance, command, seed, policy) in {0, 2, 3, 4, 5, 64}


_ZERO_FIRST = {"dim": 2, "matrices": [[[0, 0], [0, 0]], [[1.2, 0], [0, 0.4]], [[0.4, 0], [0, 1.2]]]}


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_zero_state_trial_reports_an_undefined_fit(command, tmp_path, capsys):
    # Round-robin opens with the zero matrix, so every trial's state is
    # exactly 0 from step 1 on and no decay rate is defined.
    assert _run_instance(tmp_path, _ZERO_FIRST, command, policy="round-robin") == EXIT_OK
    out = capsys.readouterr().out
    if command == "simulate":
        assert out == "".join(
            f"trial {k}: fit undefined (fewer than two positive norms)\n" for k in range(2)
        )
    else:
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert [(e["fit_amplitude"], e["fit_rate"]) for e in report["trials"]] == [(None, None)] * 2
        assert report["summary"] == {"trials": 2, "ges_violations": 0}


_PAST_DOUBLE_RANGE = {
    "dim": 2,
    "matrices": [[[1e160, 0], [0, 1e-170]], [[1e160, 0], [0, 1e-170]], [[1e-170, 0], [0, 1e160]]],
}


@pytest.mark.parametrize("command", ["analyze", "certify", "simulate"])
def test_candidate_past_double_range_is_skipped(command, tmp_path, capsys):
    # The first candidate, A_1 @ A_2 = diag(1e320, 1e-340), overflows; it is
    # skipped and A_1 @ A_3 = diag(1e-10, 1e-10) is the combination.
    assert _run_instance(tmp_path, _PAST_DOUBLE_RANGE, command, policy="round-robin") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "analyze":
        assert "stable combination: head=1 tail=3 p=1 q=1 m=1 rho=1e-10\n" in captured.out


_OVERFLOWING_TRAJECTORY = {
    "dim": 2,
    "matrices": [[[1e10, 0], [0, 1e-11]], [[1e10, 0], [0, 1e-11]], [[1e-11, 0], [0, 1e10]]],
}
_CERT_PAST_DOUBLE_RANGE = "CERT lhs=0.99997697441416422 lambda=11.512913952044764 feasible=1\n"
# Its products stay finite (A_1 @ A_2 = diag(1e-10, 1e-10)), but the
# correction bound's power 1e160 ** 2 does not.
_CORRECTION_BOUND_PAST_DOUBLE_RANGE = {
    "dim": 2,
    "matrices": [[[1e160, 0], [0, 1e-170]], [[1e-170, 0], [0, 1e160]], [[2, 0], [0, 2]]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "instance, command, policy, out",
    [
        (
            _PAST_DOUBLE_RANGE,
            "verify",
            None,
            _CERT_PAST_DOUBLE_RANGE
            + "exchange identity residual: 0 PASS\n"
            + "envelope constant: inf (norm-bound, basis length 5)\n"
            + "exhaustive envelope check: SKIP (products past double range)\n"
            + "decomposition: SKIP (products past double range)\n",
        ),
        (
            _CORRECTION_BOUND_PAST_DOUBLE_RANGE,
            "verify",
            None,
            _CERT_PAST_DOUBLE_RANGE
            + "exchange identity residual: 0 PASS\n"
            + "envelope constant: inf (norm-bound, basis length 5)\n"
            + "exhaustive envelope check: SKIP (products past double range)\n"
            + "decomposition: residual=0 terms=3 (bound 3) PASS\n",
        ),
        (_PAST_DOUBLE_RANGE, "experiment", "uniform-random", _CERT_PAST_DOUBLE_RANGE),
        (_PAST_DOUBLE_RANGE, "experiment", "round-robin", _CERT_PAST_DOUBLE_RANGE),
        (
            _OVERFLOWING_TRAJECTORY,
            "simulate",
            "round-robin",
            "".join(f"trial {k}: fit undefined (norms past double range)\n" for k in range(2)),
        ),
    ],
    ids=[
        "verify",
        "verify-correction-bound",
        "experiment-uniform-random",
        "experiment-round-robin",
        "simulate-round-robin",
    ],
)
def test_products_past_double_range_end_cleanly(instance, command, policy, out, tmp_path, capsys):
    # On the 1e160 instance every product of the basis length (5) that runs
    # diag(1e160, 1e-170) twice leaves double range: the envelope constant
    # is the norm bound's inf and the checks that multiply such products
    # are skipped.  On the 1e10 instance round-robin's trajectory overflows
    # within the default horizon, so its decay fit is undefined.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    argv = [command, "--instance", str(path)] if command == "experiment" else [command, str(path)]
    if policy is not None:
        argv += ["--policy", policy, "--trials", "2", "--out", str(tmp_path / "exp")]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")
    if command == "experiment":
        certificate = json.loads((tmp_path / "exp" / "report.json").read_text())["certificate"]
        assert (certificate["envelope_method"], certificate["envelope_constant"]) == ("norm-bound", None)


_COMMUTATOR_PAST_DOUBLE_RANGE = {"dim": 2, "matrices": [[[1e100, 1e-300], [1e100, -1e-100]], [[1, -1], [0.5, -2]]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["certify", "verify", "experiment"])
def test_commutator_past_double_range_certifies_nothing(command, tmp_path, capsys):
    # The combination A_2 A_1^3 is finite (its norm is 1.5e300), but A_1
    # times it is not, so the commutator norm is inf and no rate holds.
    assert _run_instance(tmp_path, _COMMUTATOR_PAST_DOUBLE_RANGE, command) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("CERT lhs=inf lambda=0 feasible=0\n")
    if command == "certify":
        assert "C_norm=1.5000000000000001e+300 comm=inf\n" in captured.out
    if command == "experiment":
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert report["constants"]["max_commutator_norm"] is None


def _tiny_norm_pair(eps):
    return {"dim": 2, "matrices": [[[2, 0], [0, eps]], [[eps, 0], [0, 2]]]}


_CERT_1E100 = "CERT lhs=0.99977046098598754 lambda=114.78256627674125 feasible=1\n"
_CERT_1E300 = "CERT lhs=0.99931015567137282 lambda=345.04084531763652 feasible=1\n"
_CHECKS_TO_BASIS = "exchange identity residual: 0 PASS\n"
_DECOMPOSITION = "decomposition: residual=0 terms=2 (bound 2) PASS\n"
_NO_EXTRA = "exhaustive envelope check: SKIP (no lengths past the basis)\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "instance, argv, code, out, constant",
    [
        (
            _tiny_norm_pair(1e-100),
            ["verify"],
            EXIT_BOUND_VIOLATED,
            _CERT_1E100
            + _CHECKS_TO_BASIS
            + "envelope constant: 1.9995409219719751e+100 (exhaustive, basis length 4)\n"
            + "exhaustive envelope check to length 10: "
            + "max_ratio=1.9986230820206691e+100 (191 products) FAIL\n"
            + _DECOMPOSITION,
            None,
        ),
        (
            _tiny_norm_pair(1e-100),
            ["verify", "--extra", "0"],
            EXIT_OK,
            _CERT_1E100
            + _CHECKS_TO_BASIS
            + "envelope constant: 1.9995409219719751e+100 (exhaustive, basis length 4)\n"
            + _NO_EXTRA
            + _DECOMPOSITION,
            None,
        ),
        (
            _tiny_norm_pair(1e-300),
            ["verify"],
            EXIT_BOUND_VIOLATED,
            _CERT_1E300
            + _CHECKS_TO_BASIS
            + "envelope constant: 1.998620311342746e+300 (exhaustive, basis length 4)\n"
            + "exhaustive envelope check to length 10: "
            + "max_ratio=1.4127504339702703e+150 (191 products) FAIL\n"
            + _DECOMPOSITION,
            None,
        ),
        (
            _tiny_norm_pair(1e-300),
            ["verify", "--extra", "0"],
            EXIT_OK,
            _CERT_1E300
            + _CHECKS_TO_BASIS
            + "envelope constant: 1.998620311342746e+300 (exhaustive, basis length 4)\n"
            + _NO_EXTRA
            + _DECOMPOSITION,
            None,
        ),
        (_tiny_norm_pair(1e-300), ["experiment"], EXIT_OK, _CERT_1E300, 1.998620311342746e300),
        (
            {"dim": 1, "matrices": [[[1e100]], [[-1e-100]], [[-2]]]},
            ["verify"],
            EXIT_OK,
            _CERT_1E100
            + _CHECKS_TO_BASIS
            + "envelope constant: inf (exhaustive, basis length 5)\n"
            + "exhaustive envelope check: SKIP (envelope constant past double range)\n"
            + "decomposition: residual=0 terms=3 (bound 3) PASS\n",
            None,
        ),
    ],
    ids=[
        "1e-100-verify",
        "1e-100-verify-extra-0",
        "1e-300-verify",
        "1e-300-verify-extra-0",
        "1e-300-experiment",
        "inf-constant-verify",
    ],
)
def test_tiny_norm_combination_ends_cleanly(instance, argv, code, out, constant, tmp_path, capsys):
    # The combination's norm is about 2 * eps, so the certified rate is
    # large enough that exp(rate * t) leaves double range within the
    # horizon.  On the 1e-100 pair the envelope holds over the basis with
    # c = 2e100 but not past it, an over-claim the check reports; on the
    # 1e-300 pair the scaled norms past the basis leave double range, and
    # their ratio to the constant, e^345.7 at 5 steps, is taken in log
    # space; in one dimension the constant itself leaves double range, and
    # no ratio to it is defined.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    if argv == ["experiment"]:
        argv = argv + ["--instance", str(path), "--out", str(tmp_path / "exp")]
    else:
        argv = [argv[0], str(path), *argv[1:]]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")
    if constant is not None:
        certificate = json.loads((tmp_path / "exp" / "report.json").read_text())["certificate"]
        assert (certificate["envelope_method"], certificate["envelope_constant"]) == ("exhaustive", constant)


def test_report_is_strict_json_when_a_trajectory_overflows(tmp_path, capsys):
    # Round-robin runs diag(1e10, 1e-11) twice in a row, so the trial's
    # norms reach inf: its fit and envelope margin are undefined (nan).
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_OVERFLOWING_TRAJECTORY))
    argv = ["experiment", "--instance", str(path), "--policy", "round-robin", "--trials", "1"]
    assert main(argv + ["--out", str(tmp_path / "exp")]) == EXIT_BOUND_VIOLATED

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    report = json.loads((tmp_path / "exp" / "report.json").read_text(), parse_constant=reject)
    (trial,) = report["trials"]
    assert (trial["fit_amplitude"], trial["fit_rate"], trial["worst_margin"]) == (None, None, None)
    assert trial["ges_holds"] is False


@pytest.mark.parametrize("command", ["analyze", "certify", "verify", "experiment"])
def test_nilpotent_combination_is_skipped(command, tmp_path, capsys):
    # diag(2, 0) @ diag(0, 2) = 0 is Schur stable, but its contraction norm
    # is 0 and the certificate takes its logarithm; no other candidate exists.
    instance = {"dim": 2, "matrices": [[[2, 0], [0, 0]], [[0, 0], [0, 2]]]}
    assert _run_instance(tmp_path, instance, command) == EXIT_NO_COMBINATION


@pytest.mark.parametrize("command", ["certify", "verify", "experiment"])
def test_all_stable_family_exits_3_with_one_line(command, tmp_path, capsys):
    instance = {"dim": 1, "matrices": [[[-0.5]], [[-0.5]]]}
    assert _run_instance(tmp_path, instance, command) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: every subsystem norm is below 1: the all-unstable assumption fails\n"
    if command == "experiment":
        report = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert report["assumption_violations"] == [1, 2]
        assert report["combination"]["contraction_norm"] == 0.25
