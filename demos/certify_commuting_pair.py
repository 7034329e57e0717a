"""Walkthrough: certify a pair of unstable diagonal matrices.

Neither diag(1.2, 0.4) nor diag(0.4, 1.2) is Schur stable, but their
product diag(0.48, 0.48) is.  This script finds that combination, derives
the scalar certificate and its supremum decay rate in closed form, builds
a switching schedule from a random walk on the chain-plus-hub graph, and
simulates trajectories against the certified envelope.

It ends with a cautionary tale: a perfectly valid schedule whose true
decay rate is far below the certified one, showing why the empirical and
exhaustive checks in this package are not redundant.

Run:  python demos/certify_commuting_pair.py
"""

import math

import numpy as np

import swstab as sw


def main() -> None:
    family = sw.MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))
    print("subsystem spectral radii:",
          [sw.spectral_radius(a) for a in family.subsystems])
    print("stable subsystems (should be none):", sw.assert_all_unstable(family))

    comb = sw.find_stable_combination(family)
    print(f"\nstable combination: A{comb.head}^{comb.head_power} "
          f"A{comb.tail}^{comb.tail_power}, contraction power "
          f"m={comb.contraction_power}, norm rho={comb.contraction_norm}")

    cert = sw.check_certificate(family, comb)
    print(f"max commutator norm: {cert.inputs.max_commutator_norm} (the pair commutes)")
    print(f"supremum certified rate: {cert.max_rate:.12f}  "
          f"(closed form -ln(0.48)/2 = {-math.log(0.48) / 2:.12f})")
    print("certificate LHS at rate 0.3: "
          f"{sw.check_certificate(family, comb, 0.3).lhs_value:.12f}")

    print(f"issued certificate: rate={cert.rate:.9f} lhs={cert.lhs_value:.9f} "
          f"feasible={cert.feasible}")

    graph = sw.build_graph(family.size)
    walk = sw.generate_walk(graph, "uniform-random", 40, seed=7)
    signal = sw.walk_to_signal(graph, walk, comb)
    print(f"\nrandom walk of {len(walk)} vertices -> signal of "
          f"{signal.duration} steps; longest stretch without the "
          f"stabilizing block: {sw.max_stable_gap(graph, walk)}")

    rng = np.random.default_rng(0)
    for trial in range(3):
        x0 = rng.uniform(-1.0, 1.0, family.dim)
        traj = sw.simulate(family, signal, x0, signal.duration)
        fit = sw.fit_decay(traj.norms)
        print(f"trial {trial}: fitted decay rate {fit.rate:.4f} "
              f"(certified {cert.rate:.4f})")

    # The cautionary tale.  The schedule "subsystem 2, then one stabilizing
    # block" repeats the step pattern (2, 2, 1) and contracts by exactly
    # 0.4 * 1.2 * 1.2 = 0.576 every three steps on the second coordinate:
    # a true decay rate of -ln(0.576)/3 ~ 0.184, half the certified rate.
    period = sw.walk_to_signal(graph, [2, 3], comb)
    three_step = sw.SwitchingSignal(period.steps * 40)
    traj = sw.simulate(family, three_step, [0.0, 1.0], three_step.duration)
    fit = sw.fit_decay(traj.norms)
    print(f"\nadversarial schedule (2 then block, repeated): fitted rate "
          f"{fit.rate:.4f} vs certified {cert.rate:.4f}")
    print("the scalar certificate alone does not bound every schedule; "
          "see the exhaustive oracle demo")


if __name__ == "__main__":
    main()
