"""Command-line harness tying the pipeline together.

Subcommands: analyze, certify, signal, simulate, verify, experiment.

Exit codes are exhaustive and mutually exclusive:
  0  success (for certify/verify/experiment: certificate feasible and all
     checks passed)
  2  no Schur-stable combination found within the search bounds
  3  certificate infeasible
  4  a simulation or oracle bound was violated
  5  I/O or instance-format failure
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import (
    certificate_lhs,
    check_certificate,
    compute_constants,
    max_certified_rate,
)
from .family import MatrixFamily
from .graph import WalkGenerator, build_graph, walk_to_signal
from .instances import InstanceParseError, generate_random_instance, parse_instance, write_instance
from .oracle import (
    EnumerationCapExceeded,
    basis_length,
    decompose_product,
    envelope_constant,
    envelope_constant_bound,
    envelope_profile,
    exchange_identity_residual,
)
from .search import assert_all_unstable, find_stable_combination
from .simulate import fit_decay, simulate, verify_ges

EXIT_OK = 0
EXIT_NO_COMBINATION = 2
EXIT_INFEASIBLE = 3
EXIT_BOUND_VIOLATED = 4
EXIT_IO = 5

# Enumeration budget for the in-pipeline envelope constant; past this the
# closed-form norm bound substitutes (still a valid envelope, just loose).
PIPELINE_ENUM_CAP = 2_000_000


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cert_line(cert) -> str:
    return f"CERT lhs={_fmt(cert.lhs_value)} lambda={_fmt(cert.rate)} feasible={int(cert.feasible)}"


def _load_family(args) -> MatrixFamily:
    if getattr(args, "instance", None):
        return parse_instance(args.instance)
    return generate_random_instance(args.n, args.dim, args.seed)


def _find_combination(family, args):
    return find_stable_combination(
        family, p_max=args.pmax, q_max=args.qmax, m_max=args.mmax
    )


def _rate_arg(args) -> float | None:
    if args.rate == "auto":
        return None
    try:
        value = float(args.rate)
    except ValueError:
        raise SystemExit(f"--lambda must be 'auto' or a number, got {args.rate!r}")
    return value


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
    family = _load_family(args)
    comb = _find_combination(family, args)
    if comb is None:
        print("no stable combination found within bounds", file=sys.stderr)
        return EXIT_NO_COMBINATION
    inputs = compute_constants(family, comb)
    cert = check_certificate(family, comb, _rate_arg(args))
    best = max_certified_rate(inputs)
    print(
        f"constants: M_norm={_fmt(inputs.max_subsystem_norm)} "
        f"C_norm={_fmt(inputs.combination_norm)} "
        f"comm={_fmt(inputs.max_commutator_norm)}"
    )
    if best is not None:
        print(f"max certified rate: {_fmt(best)}")
    print(_cert_line(cert))
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def _walk_for_horizon(graph, comb, policy, seed, horizon, partner=1):
    gen = WalkGenerator(graph, policy, seed=seed, partner=partner)
    walk, duration = [], 0
    while duration < horizon:
        v = gen.take(1)[0]
        walk.append(v)
        duration += comb.block_duration if v == graph.stable_vertex else 1
    return walk


def cmd_signal(args) -> int:
    family = _load_family(args)
    comb = _find_combination(family, args)
    if comb is None:
        print("no stable combination found within bounds", file=sys.stderr)
        return EXIT_NO_COMBINATION
    graph = build_graph(family.size, args.allow_stable_self_loop)
    gen = WalkGenerator(graph, args.policy, seed=args.seed, partner=args.partner)
    walk = gen.take(args.steps)
    signal = walk_to_signal(graph, walk, comb)
    signal.write_csv(args.out)
    print(f"walk of {len(walk)} vertices -> signal of {signal.duration} steps -> {args.out}")
    return EXIT_OK


def _seeded_x0(seed: int, trial: int, dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 1 + trial))))
    return rng.uniform(-1.0, 1.0, size=dim)


def cmd_simulate(args) -> int:
    family = _load_family(args)
    comb = _find_combination(family, args)
    if comb is None:
        print("no stable combination found within bounds", file=sys.stderr)
        return EXIT_NO_COMBINATION
    graph = build_graph(family.size, args.allow_stable_self_loop)
    walk_seed = np.random.SeedSequence((args.seed, 0))
    walk = _walk_for_horizon(graph, comb, args.policy, walk_seed, args.horizon, args.partner)
    signal = walk_to_signal(graph, walk, comb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    signal.write_csv(out / "signal.csv")
    for k in range(args.trials):
        x0 = _seeded_x0(args.seed, k, family.dim)
        traj = simulate(family, signal, x0, args.horizon)
        traj.write_csv(out / f"norms_{k:03d}.csv")
        fit = fit_decay(traj.norms)
        print(f"trial {k}: fit amplitude={_fmt(fit.amplitude)} rate={_fmt(fit.rate)}")
    return EXIT_OK


def _capped_profile(family, comb, horizon, basis):
    """One envelope scan to `horizon`, else to the basis alone, else None."""
    for h in (horizon, basis):
        try:
            return envelope_profile(family, comb, h, cap=PIPELINE_ENUM_CAP)
        except EnumerationCapExceeded:
            pass
    return None


def cmd_verify(args) -> int:
    family = _load_family(args)
    comb = _find_combination(family, args)
    if comb is None:
        print("no stable combination found within bounds", file=sys.stderr)
        return EXIT_NO_COMBINATION
    inputs = compute_constants(family, comb)
    cert = check_certificate(family, comb, _rate_arg(args))
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
    profile = _capped_profile(family, comb, horizon, basis)
    if profile is None:
        c, method = envelope_constant_bound(family, comb, cert.rate), "norm-bound"
    else:
        c, method = profile.bound_check(cert.rate, horizon=basis).max_ratio, "exhaustive"
    print(f"envelope constant: {_fmt(c)} ({method}, basis length {basis})")

    if profile is not None:
        if horizon == basis:
            print("exhaustive envelope check: SKIP (no lengths past the basis)")
        elif profile.horizon < horizon:
            print("exhaustive envelope check: SKIP (enumeration cap)")
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
    dec = decompose_product(family, comb, segment)
    m = comb.contraction_power
    count_bound = n * m * (m + 1) // 2
    from .linalg import operator_norm

    norm_bound = (
        count_bound
        * inputs.max_subsystem_norm ** (m * n - 1)
        * inputs.combination_norm ** (m - 1)
        * inputs.max_commutator_norm
    )
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
    if not getattr(args, "instance", None):
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
            "allow_stable_self_loop": args.allow_stable_self_loop,
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

    inputs = compute_constants(family, comb)
    report["constants"] = {
        "max_subsystem_norm": inputs.max_subsystem_norm,
        "combination_norm": inputs.combination_norm,
        "max_commutator_norm": inputs.max_commutator_norm,
    }
    cert = check_certificate(family, comb, _rate_arg(args))
    best = max_certified_rate(inputs)
    cert_dict = {
        "rate": cert.rate,
        "max_rate": best,
        "lhs": cert.lhs_value if math.isfinite(cert.lhs_value) else None,
        "feasible": cert.feasible,
        "margin": cert.margin if math.isfinite(cert.margin) else None,
        "boundary": cert.boundary,
    }

    envelope = None
    if cert.feasible:
        try:
            envelope = envelope_constant(family, comb, cert.rate, cap=PIPELINE_ENUM_CAP)
            cert_dict["envelope_method"] = "exhaustive"
        except EnumerationCapExceeded:
            envelope = envelope_constant_bound(family, comb, cert.rate)
            cert_dict["envelope_method"] = "norm-bound"
        cert_dict["envelope_constant"] = envelope if math.isfinite(envelope) else None
    report["certificate"] = cert_dict

    graph = build_graph(family.size, args.allow_stable_self_loop)
    walk_seed = np.random.SeedSequence((args.seed, 0))
    walk = _walk_for_horizon(graph, comb, args.policy, walk_seed, args.horizon)
    signal = walk_to_signal(graph, walk, comb)
    signal.write_csv(out / "signal.csv")
    report["signal"] = {
        "policy": args.policy,
        "walk_length": len(walk),
        "duration": signal.duration,
    }

    trials = []
    violations = 0
    for k in range(args.trials):
        x0 = _seeded_x0(args.seed, k, family.dim)
        traj = simulate(family, signal, x0, args.horizon)
        traj.write_csv(out / f"norms_{k:03d}.csv")
        fit = fit_decay(traj.norms)
        entry = {
            "trial": k,
            "fit_amplitude": fit.amplitude,
            "fit_rate": fit.rate,
        }
        if cert.feasible and envelope is not None and math.isfinite(envelope):
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


def _write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def _add_search_flags(p):
    p.add_argument("--pmax", type=int, default=10)
    p.add_argument("--qmax", type=int, default=10)
    p.add_argument("--mmax", type=int, default=512)


def _add_instance_arg(p, required=True):
    p.add_argument("instance", nargs=None if required else "?", help="instance JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swstab",
        description="Stabilizability certificates and switching signals for "
        "switched linear systems with all-unstable subsystems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="assumption checks and combination search")
    _add_instance_arg(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="evaluate the stability certificate")
    _add_instance_arg(p)
    _add_search_flags(p)
    p.add_argument("--lambda", dest="rate", default="auto")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("signal", help="generate a switching-signal CSV")
    _add_instance_arg(p)
    _add_search_flags(p)
    p.add_argument("--steps", type=int, default=50, help="walk length in vertices")
    p.add_argument("--policy", default="uniform-random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partner", type=int, default=1)
    p.add_argument("--allow-stable-self-loop", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("simulate", help="simulate seeded random trials")
    _add_instance_arg(p)
    _add_search_flags(p)
    p.add_argument("--policy", default="uniform-random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partner", type=int, default=1)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--allow-stable-self-loop", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="proof-oracle checks on an instance")
    _add_instance_arg(p)
    _add_search_flags(p)
    p.add_argument("--lambda", dest="rate", default="auto")
    p.add_argument("--extra", type=int, default=6, help="lengths past the basis to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="full pipeline with report and CSVs")
    p.add_argument("--instance", help="instance JSON file (else random)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_search_flags(p)
    p.add_argument("--lambda", dest="rate", default="auto")
    p.add_argument("--policy", default="uniform-random")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--allow-stable-self-loop", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InstanceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
