"""Command-line harness tying the pipeline together.

Subcommands: analyze, certify, signal, simulate, verify, experiment.

Exit codes are exhaustive and mutually exclusive:
  0   success (for certify/verify/experiment: certificate feasible and
      every check that ran passed; a skipped check prints SKIP)
  2   no Schur-stable combination found within the search bounds
  3   certificate infeasible, or inapplicable because every subsystem
      norm is below 1 (the all-unstable assumption fails)
  4   a simulation or oracle bound was violated
  5   I/O or instance-format failure
  64  usage error: an unknown, malformed or out-of-range argument
      (sysexits EX_USAGE; argparse's own 2 would collide with the above)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .certificate import AssumptionError, check_certificate, correction_bounds
from .family import MatrixFamily
from .graph import POLICIES, build_graph, generate_walk, walk_for_horizon, walk_to_signal
from .instances import InstanceParseError, generate_random_instance, parse_instance, write_instance
from .linalg import NonFiniteMatrixError, operator_norm
from .oracle import (
    basis_length,
    capped_envelope,
    decompose_product,
    exchange_identity_residual,
)
from .search import StableCombination, assert_all_unstable, find_stable_combination
from .simulate import fit_decay, seeded_trials, verify_ges

EXIT_OK = 0
EXIT_NO_COMBINATION = 2
EXIT_INFEASIBLE = 3
EXIT_BOUND_VIOLATED = 4
EXIT_IO = 5
EXIT_USAGE = 64

# Enumeration budget for the in-pipeline envelope constant; past this the
# closed-form norm bound substitutes (still a valid envelope, just loose).
PIPELINE_ENUM_CAP = 2_000_000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cert_line(cert) -> str:
    return f"CERT lhs={_fmt(cert.lhs_value)} lambda={_fmt(cert.rate)} feasible={int(cert.feasible)}"


class _Exit(Exception):
    """Ends a subcommand early: `main` prints the message to stderr and
    returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_family(args) -> MatrixFamily:
    if args.instance:
        return parse_instance(args.instance)
    return generate_random_instance(args.n, args.dim, args.seed)


def _find_combination(family, args):
    return find_stable_combination(
        family, p_max=args.pmax, q_max=args.qmax, m_max=args.mmax
    )


def _load_and_search(args) -> tuple[MatrixFamily, StableCombination]:
    """The instance and its stable combination; exits 2 when there is none.

    A --partner outside 1..N (signal, simulate) is a usage error, which
    only the loaded instance can tell.
    """
    family = _load_family(args)
    partner = getattr(args, "partner", 1)
    if not 1 <= partner <= family.size:
        raise _Exit(
            EXIT_USAGE,
            f"swstab {args.command}: error: argument --partner: {partner} is outside 1..{family.size}",
        )
    comb = _find_combination(family, args)
    if comb is None:
        raise _Exit(EXIT_NO_COMBINATION, "no stable combination found within bounds")
    return family, comb


def _rate_arg(args) -> float | None:
    return None if args.rate == "auto" else float(args.rate)


def _combination_dict(comb) -> dict:
    return {
        "head": comb.head,
        "tail": comb.tail,
        "head_power": comb.head_power,
        "tail_power": comb.tail_power,
        "contraction_power": comb.contraction_power,
        "contraction_norm": comb.contraction_norm,
    }


def cmd_analyze(args) -> int:
    family = _load_family(args)
    violations = assert_all_unstable(family)
    print(f"family: N={family.size} dim={family.dim}")
    if violations:
        print(f"stable subsystems (all-unstable assumption fails): {violations}")
    else:
        print("all subsystems unstable: yes")
    comb = _find_combination(family, args)
    if comb is None:
        print("stable combination: none found within bounds")
        return EXIT_NO_COMBINATION
    print(
        f"stable combination: head={comb.head} tail={comb.tail} "
        f"p={comb.head_power} q={comb.tail_power} "
        f"m={comb.contraction_power} rho={_fmt(comb.contraction_norm)}"
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    family, comb = _load_and_search(args)
    cert = check_certificate(family, comb, _rate_arg(args))
    inputs = cert.inputs
    print(
        f"constants: M_norm={_fmt(inputs.max_subsystem_norm)} "
        f"C_norm={_fmt(inputs.combination_norm)} "
        f"comm={_fmt(inputs.max_commutator_norm)}"
    )
    if cert.max_rate is not None:
        print(f"max certified rate: {_fmt(cert.max_rate)}")
    print(_cert_line(cert))
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def cmd_signal(args) -> int:
    family, comb = _load_and_search(args)
    graph = build_graph(family.size)
    walk = generate_walk(graph, args.policy, args.steps, seed=args.seed, partner=args.partner)
    signal = walk_to_signal(graph, walk, comb)
    signal.write_csv(args.out)
    print(f"walk of {len(walk)} vertices -> signal of {signal.duration} steps -> {args.out}")
    return EXIT_OK


def _schedule_and_trials(family, comb, args, out: Path, partner: int = 1):
    """The run's seeded schedule, written to `out` as signal.csv, and its
    trials; returns the walk, the signal and an iterator over the trials
    (`seeded_trials`) that writes each one's norms_XXX.csv."""
    graph = build_graph(family.size)
    walk = walk_for_horizon(graph, comb, args.policy, args.seed, args.horizon, partner)
    signal = walk_to_signal(graph, walk, comb)
    out.mkdir(parents=True, exist_ok=True)
    signal.write_csv(out / "signal.csv")

    def trials():
        for k, traj in enumerate(seeded_trials(family, signal, args.seed, args.trials, args.horizon)):
            traj.write_csv(out / f"norms_{k:03d}.csv")
            yield traj

    return walk, signal, trials()


def _fit(norms):
    """The trial's decay fit, or why it is undefined: fewer than two norms
    are positive (the state is exactly 0 from step 1 on), or the norms
    overflow and the fit is not finite."""
    try:
        fit = fit_decay(norms)
    except ValueError:
        return "fewer than two positive norms"
    if not (math.isfinite(fit.amplitude) and math.isfinite(fit.rate)):
        return "norms past double range"
    return fit


def cmd_simulate(args) -> int:
    family, comb = _load_and_search(args)
    _, _, trajectories = _schedule_and_trials(family, comb, args, Path(args.out), args.partner)
    for k, traj in enumerate(trajectories):
        fit = _fit(traj.norms)
        if isinstance(fit, str):
            print(f"trial {k}: fit undefined ({fit})")
        else:
            print(f"trial {k}: fit amplitude={_fmt(fit.amplitude)} rate={_fmt(fit.rate)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    family, comb = _load_and_search(args)
    cert = check_certificate(family, comb, _rate_arg(args))
    inputs = cert.inputs
    print(_cert_line(cert))
    if not cert.feasible:
        return EXIT_INFEASIBLE
    failures = 0

    residual = exchange_identity_residual(family, comb)
    scale = inputs.max_subsystem_norm * inputs.combination_norm
    ok = residual <= 1e-12 * scale
    failures += not ok
    print(f"exchange identity residual: {_fmt(residual)} {'PASS' if ok else 'FAIL'}")

    basis = basis_length(family, comb)
    horizon = basis + max(args.extra, 0)
    c, method, profile = capped_envelope(family, comb, cert.rate, horizon, cap=PIPELINE_ENUM_CAP)
    print(f"envelope constant: {_fmt(c)} ({method}, basis length {basis})")
    if horizon == basis:
        print("exhaustive envelope check: SKIP (no lengths past the basis)")
    elif isinstance(profile, str):
        print(f"exhaustive envelope check: SKIP ({profile})")
    else:
        check = profile.bound_check(cert.rate, c)
        ok = check.max_ratio <= 1.0
        failures += not ok
        print(
            f"exhaustive envelope check to length {horizon}: "
            f"max_ratio={_fmt(check.max_ratio)} "
            f"({check.products_checked} products) {'PASS' if ok else 'FAIL'}"
        )

    n, hub = family.size, family.size + 1
    segment = (list(range(1, n + 1)) + [hub]) * comb.contraction_power
    try:
        dec = decompose_product(family, comb, segment)
    except NonFiniteMatrixError:
        print("decomposition: SKIP (products past double range)")
    else:
        count_bound, norm_bound = correction_bounds(inputs)
        ok = (
            dec.residual <= 1e-10 * max(1.0, operator_norm(dec.total))
            and dec.term_count <= count_bound
            and operator_norm(dec.correction) <= norm_bound + 1e-9
        )
        failures += not ok
        print(
            f"decomposition: residual={_fmt(dec.residual)} terms={dec.term_count} "
            f"(bound {count_bound}) {'PASS' if ok else 'FAIL'}"
        )
    return EXIT_OK if failures == 0 else EXIT_BOUND_VIOLATED


def cmd_experiment(args) -> int:
    family = _load_family(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not args.instance:
        write_instance(
            out / "instance.json", family, name="random", seed=args.seed
        )
    report: dict = {
        "tool": "swstab",
        "version": __version__,
        "command": "experiment",
        "flags": {
            "n": family.size,
            "dim": family.dim,
            "seed": args.seed,
            "pmax": args.pmax,
            "qmax": args.qmax,
            "mmax": args.mmax,
            "lambda": args.rate,
            "policy": args.policy,
            "horizon": args.horizon,
            "trials": args.trials,
            "allow_stable_self_loop": False,  # the graph has no hub self-loop
        },
        "assumption_violations": assert_all_unstable(family),
    }

    comb = _find_combination(family, args)
    if comb is None:
        report["combination"] = None
        _write_report(out, report)
        print("no stable combination found within bounds", file=sys.stderr)
        return EXIT_NO_COMBINATION
    report["combination"] = _combination_dict(comb)

    try:
        cert = check_certificate(family, comb, _rate_arg(args))
    except AssumptionError:
        _write_report(out, report)
        raise
    inputs = cert.inputs
    report["constants"] = {
        "max_subsystem_norm": inputs.max_subsystem_norm,
        "combination_norm": inputs.combination_norm,
        "max_commutator_norm": inputs.max_commutator_norm,
    }
    cert_dict = {
        "rate": cert.rate,
        "max_rate": cert.max_rate,
        "lhs": cert.lhs_value,
        "feasible": cert.feasible,
        "margin": cert.margin,
        "boundary": cert.boundary,
    }

    envelope = None
    if cert.feasible:
        envelope, method, _ = capped_envelope(family, comb, cert.rate, cap=PIPELINE_ENUM_CAP)
        cert_dict["envelope_method"] = method
        cert_dict["envelope_constant"] = envelope
    report["certificate"] = cert_dict

    walk, signal, trajectories = _schedule_and_trials(family, comb, args, out)
    report["signal"] = {
        "policy": args.policy,
        "walk_length": len(walk),
        "duration": signal.duration,
    }

    trials = []
    violations = 0
    for k, traj in enumerate(trajectories):
        fit = _fit(traj.norms)
        entry = {
            "trial": k,
            "fit_amplitude": None if isinstance(fit, str) else fit.amplitude,
            "fit_rate": None if isinstance(fit, str) else fit.rate,
        }
        if envelope is not None and math.isfinite(envelope):
            check = verify_ges(traj.norms / traj.norms[0], envelope, cert.rate)
            entry.update(
                ges_holds=check.holds,
                worst_margin=check.worst_margin,
                worst_t=check.worst_t,
            )
            violations += not check.holds
        trials.append(entry)
    report["trials"] = trials
    report["summary"] = {"trials": args.trials, "ges_violations": violations}
    _write_report(out, report)
    print(_cert_line(cert))
    if not cert.feasible:
        return EXIT_INFEASIBLE
    if violations:
        return EXIT_BOUND_VIOLATED
    return EXIT_OK


def _json_safe(value):
    """`value` with every non-finite float (an undefined or overflowed
    figure) replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as f:
        json.dump(_json_safe(report), f, indent=2, allow_nan=False)
        f.write("\n")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits EXIT_USAGE."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _rate(text: str) -> str:
    """An argparse type: 'auto' or a finite rate > 0, kept as typed (the
    report records the flag as given)."""
    try:
        ok = text == "auto" or 0.0 < float(text) < math.inf
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be 'auto' or a finite rate > 0, got {text!r}")
    return text


# Every flag once; each subcommand below lists the ones it takes.
_FLAGS = {
    "instance": dict(help="instance JSON file"),
    "--instance": dict(help="instance JSON file (else random)"),
    "--n": dict(type=_at_least(2), default=10),
    "--dim": dict(type=_at_least(2), default=2),
    "--pmax": dict(type=_at_least(1), default=10),
    "--qmax": dict(type=_at_least(1), default=10),
    "--mmax": dict(type=_at_least(1), default=512),
    "--lambda": dict(dest="rate", type=_rate, default="auto"),
    "--steps": dict(type=_at_least(1), default=50, help="walk length in vertices"),
    "--policy": dict(choices=POLICIES, default="uniform-random"),
    "--seed": dict(type=_at_least(0), default=0),
    "--partner": dict(type=_at_least(1), default=1),
    "--horizon": dict(type=_at_least(1), default=200),
    "--trials": dict(type=_at_least(0), default=100),
    "--extra": dict(type=int, default=6, help="lengths past the basis to check"),
    "--out": dict(required=True),
}
_SEARCH = ("--pmax", "--qmax", "--mmax")
_SCHEDULE = ("--policy", "--seed", "--out")
_COMMANDS = {
    "analyze": (cmd_analyze, "assumption checks and combination search", ("instance", *_SEARCH)),
    "certify": (cmd_certify, "evaluate the stability certificate", ("instance", *_SEARCH, "--lambda")),
    "signal": (
        cmd_signal, "generate a switching-signal CSV",
        ("instance", *_SEARCH, "--steps", "--partner", *_SCHEDULE),
    ),
    "simulate": (
        cmd_simulate, "simulate seeded random trials",
        ("instance", *_SEARCH, "--partner", "--horizon", "--trials", *_SCHEDULE),
    ),
    "verify": (cmd_verify, "proof-oracle checks on an instance", ("instance", *_SEARCH, "--lambda", "--extra")),
    "experiment": (
        cmd_experiment, "full pipeline with report and CSVs",
        ("--instance", "--n", "--dim", *_SEARCH, "--lambda", "--horizon", "--trials", *_SCHEDULE),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swstab",
        description="Stabilizability certificates and switching signals for "
        "switched linear systems with all-unstable subsystems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as stop:
        print(stop, file=sys.stderr)
        return stop.code
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, InstanceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
