"""An exact reference for the envelope scan, in the standard library only.

Every admissible product of a 2 x 2 family is grown depth first over the
unit-step graph, built here from the switch graph's rule: a plain vertex
l goes to l+1 and into the hub, the hub back to every plain vertex, and
the hub runs the combination block one step at a time.  Products are
`Fraction` matrices, so they are exact, and their norms are 60-digit
`decimal` logarithms:

    ||P||^2 = (s + sqrt(s^2 - 4 det^2)) / 2,   s = ||P||_F^2,

with the discriminant formed as a Fraction (in Decimal it rounds below
zero on near-scalar products).  Nothing here calls into `swstab` except to
build the family, its combination and the profile under test.
"""

import decimal
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import swstab.oracle
from swstab import (
    MatrixFamily,
    basis_length,
    check_certificate,
    envelope_constant,
    envelope_profile,
    find_stable_combination,
    generate_random_instance,
)

DIGITS = 60


def _mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _ln_norm(p):
    """ln ||P||_2 as a Decimal, or None for the zero matrix."""
    (a, b), (c, d) = p
    s = a * a + b * b + c * c + d * d
    if s == 0:
        return None
    disc = s * s - 4 * (a * d - b * c) ** 2
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        dec = lambda x: decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        return ((dec(s) + dec(disc).sqrt()) / 2).ln() / 2


def _exact_profile(matrices, steps, horizon):
    """(ln of the largest norm, number of products) at each duration
    0..horizon; the log is None where every product is zero.

    `matrices` are the subsystems as nested lists of floats and `steps`
    the 1-based subsystems of the combination block."""
    n = len(matrices)
    exact = [tuple(tuple(Fraction(x) for x in row) for row in m) for m in matrices]
    # node v (1..n) is plain vertex v; node n+k (k = 1..len(steps)) is
    # step k of the hub's block
    factor = {v: exact[v - 1] for v in range(1, n + 1)}
    factor |= {n + k: exact[ell - 1] for k, ell in enumerate(steps, start=1)}
    hub_first, hub_last = n + 1, n + len(steps)
    succ = {v: ([v + 1] if v < n else []) + [hub_first] for v in range(1, n + 1)}
    succ |= {n + k: [n + k + 1] for k in range(1, len(steps))}
    succ[hub_last] = list(range(1, n + 1))
    logs = [decimal.Decimal(0)] + [None] * horizon
    counts = [1] + [0] * horizon

    def visit(node, parent, t):
        p = _mul(factor[node], parent)
        counts[t] += 1
        ln = _ln_norm(p)
        if ln is not None and (logs[t] is None or ln > logs[t]):
            logs[t] = ln
        if t < horizon:
            for child in succ[node]:
                visit(child, p, t + 1)

    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    if horizon > 0:
        for node in list(range(1, n + 1)) + [hub_first]:
            visit(node, identity, 1)
    return logs, counts


def _exact(family, comb, horizon):
    return _exact_profile([m.tolist() for m in family.subsystems], comb.steps, horizon)


def _agree(family, comb, horizon, slice_size):
    logs, counts = _exact(family, comb, horizon)
    with mock.patch.object(swstab.oracle, "SLICE", slice_size):
        profile = envelope_profile(family, comb, horizon)
    assert profile.counts == tuple(counts)
    for t, (ln, peak) in enumerate(zip(logs, profile.peaks)):
        assert peak > 0.0 and ln is not None, t
        assert abs(math.log(peak) - float(ln)) <= 1e-15, t


@pytest.mark.parametrize("slice_size", [1, swstab.oracle.SLICE])
def test_diagonal_pair_agrees_with_exact_norms(diag_family, diag_comb, slice_size):
    # 380 products to 12 steps; SLICE = 1 makes the scan prune.
    _agree(diag_family, diag_comb, 12, slice_size)


@pytest.mark.parametrize("slice_size", [1, swstab.oracle.SLICE])
def test_instance_1141_agrees_with_exact_norms(slice_size):
    family = generate_random_instance(2, 2, seed=1141)
    comb = find_stable_combination(family)
    _agree(family, comb, basis_length(family, comb) + 6, slice_size)


def test_exact_norm_of_a_near_scalar_product():
    # s^2 - 4 det^2 is 0 exactly, where a Decimal discriminant may round
    # below zero; ||diag(x, x)|| = x.
    x = Fraction(1, 3)
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        ln3 = decimal.Decimal(3).ln()
    assert abs(_ln_norm(((x, Fraction(0)), (Fraction(0), x))) + ln3) < decimal.Decimal("1e-55")
    assert _ln_norm(((Fraction(0),) * 2,) * 2) is None


@pytest.mark.xfail(
    strict=True,
    reason="products below double range underflow to 0 in the scan, which reads their durations as ratio 0",
)
def test_tiny_pair_ratio_agrees_with_exact_norms():
    # The 1e-300 pair at the certificate's rate: the exact largest ratio to
    # 10 steps is e^691.46, at 8 and 10 steps, where every float product
    # has underflowed; the scan reports e^345.7 (1.41e150).
    family = MatrixFamily((np.diag([2.0, 1e-300]), np.diag([1e-300, 2.0])))
    comb = find_stable_combination(family)
    rate = check_certificate(family, comb).rate
    c = envelope_constant(family, comb, rate)
    logs, _ = _exact(family, comb, 10)
    exact = max(float(ln) + rate * t for t, ln in enumerate(logs) if ln is not None) - math.log(c)
    assert exact == pytest.approx(691.46, abs=0.01)
    got = envelope_profile(family, comb, 10).bound_check(rate, c).max_ratio
    assert math.log(got) == pytest.approx(exact, rel=1e-12)
