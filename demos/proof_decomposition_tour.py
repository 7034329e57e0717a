"""Tour of the brute-force oracles behind the certificate.

Three independent re-derivations of what the scalar certificate takes on
faith, each checked by direct matrix arithmetic:

  1. the exchange identity A_l C = C A_l + [A_l, C] that powers the
     commutator bookkeeping,
  2. the rewriting of an admissible product as
     (left part) * combination^m + correction, with the correction's
     term count and norm measured against their a-priori bounds,
  3. the exponential envelope, checked exhaustively over every admissible
     product up to a horizon — including the horizon just past the one
     the induction constant covers, where it can genuinely fail.

Run:  python demos/proof_decomposition_tour.py
"""

import numpy as np

import swstab as sw


def main() -> None:
    # A non-commuting pair: an expanding/contracting diagonal and a shear.
    family = sw.MatrixFamily((
        np.array([[2.0, 0.0], [0.0, 0.5]]),
        np.array([[0.25, 0.5], [0.0, 1.0]]),
    ))
    comb = sw.find_stable_combination(family)
    inputs = sw.compute_constants(family, comb)
    m = comb.contraction_power
    print(f"combination A{comb.head}A{comb.tail} = {comb.product.tolist()}, "
          f"contraction power m={m}, rho={comb.contraction_norm:.6f}")
    print(f"max commutator norm: {inputs.max_commutator_norm}")

    print("\n1. exchange identity residual:",
          sw.exchange_identity_residual(family, comb))

    # 2. decomposition of a basis-length segment.  Vertex 3 is the hub
    # (one stabilizing block of 2 steps), vertices 1 and 2 are plain.
    segment = [1, 3, 2, 3, 1, 3, 2, 1, 2]
    dec = sw.decompose_product(family, comb, segment)
    count_bound, norm_bound = sw.correction_bounds(inputs)
    print(f"\n2. segment {segment} "
          f"(duration {sw.basis_length(family, comb)} steps)")
    print(f"   reconstruction residual: {dec.residual:.3e}")
    print(f"   correction terms: {dec.term_count} (bound {count_bound})")
    print(f"   correction norm: {sw.operator_norm(dec.correction):.6f} "
          f"(bound {norm_bound:.6f})")

    # 3. the exhaustive envelope, on the commuting diagonal pair where the
    # certificate is feasible.  One scan to the deepest horizon serves the
    # constant and every check: the rate is applied when the profile is read.
    diag = sw.MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))
    dcomb = sw.find_stable_combination(diag)
    cert = sw.check_certificate(diag, dcomb)
    basis = sw.basis_length(diag, dcomb)
    profile = sw.envelope_profile(diag, dcomb, basis + 6)
    c = profile.bound_check(cert.rate, horizon=basis).max_ratio
    print(f"\n3. diagonal pair: certified rate {cert.rate:.6f}, "
          f"envelope constant {c:.6f} over the basis horizon {basis}")
    for horizon in (basis, basis + 2, basis + 6):
        check = profile.bound_check(cert.rate, c, horizon)
        verdict = "holds" if check.max_ratio <= 1.0 else "FAILS"
        print(f"   horizon {horizon:>2}: max ratio {check.max_ratio:.6f} "
              f"({check.products_checked} products) -> envelope {verdict}"
              + ("" if check.max_ratio <= 1.0
                 else f", witness walk {check.witness_walk}"))
    print("\nthe envelope is exact up to the basis horizon by construction "
          "but is violated just past it: feasibility of the scalar "
          "certificate does not extend the bound to every schedule.")


if __name__ == "__main__":
    main()
