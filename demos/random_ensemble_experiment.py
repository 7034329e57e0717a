"""Survey a seeded ensemble of random all-unstable families.

For each instance (entries uniform on [-1, 1], resampled until every
matrix is unstable) the script searches for a Schur-stable two-subsystem
product, evaluates the scalar certificate, and — when the certificate is
feasible — stress-tests it with seeded random schedules and initial
states.

Run:  python demos/random_ensemble_experiment.py
"""

import swstab as sw


def stress_test(family, comb, cert, seed, trials=50, horizon=200):
    """Number of trajectories violating the certified envelope, on the
    schedule and trials `swstab experiment --seed SEED` runs."""
    c, _, _ = sw.capped_envelope(family, comb, cert.rate, cap=2_000_000)
    graph = sw.build_graph(family.size)
    walk = sw.walk_for_horizon(graph, comb, "uniform-random", seed, horizon)
    signal = sw.walk_to_signal(graph, walk, comb)
    violations = 0
    for traj in sw.seeded_trials(family, signal, seed, trials, horizon):
        check = sw.verify_ges(traj.norms / traj.norms[0], c, cert.rate)
        violations += not check.holds
    return violations, c


def main() -> None:
    counts = {"no combination": 0, "infeasible": 0, "feasible": 0}
    print(f"{'seed':>6} {'N':>3} {'combination':>14} {'rate':>10} verdict")
    for idx in range(120):
        seed = 1000 + idx
        n = [2, 3, 10][idx % 3]
        family = sw.generate_random_instance(n, 2, seed=seed)
        comb = sw.find_stable_combination(family)
        if comb is None:
            counts["no combination"] += 1
            continue
        cert = sw.check_certificate(family, comb)
        if not cert.feasible:
            counts["infeasible"] += 1
            continue
        counts["feasible"] += 1
        violations, c = stress_test(family, comb, cert, seed)
        label = (f"A{comb.head}^{comb.head_power}A{comb.tail}^"
                 f"{comb.tail_power}, m={comb.contraction_power}")
        print(f"{seed:>6} {n:>3} {label:>14} {cert.rate:>10.5f} "
              f"envelope c={c:.3g}, {violations} violations in 50 trials")
    print("\nsummary over 120 instances:")
    for key, value in counts.items():
        print(f"  {key}: {value}")
    print("\nfeasibility is rare: the certificate needs the commutators "
          "between each subsystem and the stable product to be small, "
          "which random matrices rarely grant.")


if __name__ == "__main__":
    main()
