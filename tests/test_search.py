import warnings

import numpy as np
import pytest

import swstab.search as search
from swstab import (
    ContractionError,
    MatrixFamily,
    StableCombination,
    assert_all_unstable,
    compute_contraction,
    find_stable_combination,
    generate_random_instance,
)
from swstab.linalg import BATCH_ENTRIES, SCHUR_MARGIN, is_schur_stable


def _power(a, k):
    """A**k by iterated left-multiplication from the identity."""
    p = np.eye(a.shape[0])
    for _ in range(k):
        p = a @ p
    return p


def test_assert_all_unstable_clean(diag_family):
    assert assert_all_unstable(diag_family) == []


def test_assert_all_unstable_flags_stable_members():
    fam = MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.5, 0.5]), np.diag([2.0, 0.0])))
    assert assert_all_unstable(fam) == [2]


def test_compute_contraction_immediate():
    m, rho = compute_contraction(np.diag([0.48, 0.16]))
    assert m == 1
    assert rho == pytest.approx(0.48, abs=1e-14)


def test_compute_contraction_delayed_by_transient():
    # Jordan-type block: spectral radius 0.5 but a large transient bump.
    m, rho = compute_contraction(np.array([[0.5, 10.0], [0.0, 0.5]]))
    assert m == 8
    assert rho == pytest.approx(0.6250244131089002, abs=1e-12)


def test_compute_contraction_rejects_unstable_input():
    with pytest.raises(ValueError):
        compute_contraction(np.diag([1.5, 0.0]))


def test_compute_contraction_raises_past_cap():
    with pytest.raises(ContractionError):
        compute_contraction(np.array([[0.5, 1e6], [0.0, 0.5]]), m_max=10)


def test_find_stable_combination_diagonal(diag_family):
    comb = find_stable_combination(diag_family)
    assert (comb.head, comb.tail) == (1, 2)
    assert (comb.head_power, comb.tail_power) == (1, 1)
    assert comb.contraction_power == 1
    assert comb.contraction_norm == pytest.approx(0.48, abs=1e-14)
    assert comb.block_duration == 2
    assert np.allclose(comb.product, np.diag([0.48, 0.48]))


def test_find_stable_combination_none_when_hopeless():
    fam = MatrixFamily((np.diag([2.0, 2.0]), np.diag([3.0, 3.0])))
    assert find_stable_combination(fam, p_max=4, q_max=4) is None


def test_find_stable_combination_shear(shear_family, shear_comb):
    assert (shear_comb.head, shear_comb.tail) == (1, 2)
    assert shear_comb.contraction_power == 3
    assert 0.0 < shear_comb.contraction_norm < 1.0


def test_find_stable_combination_rejects_bad_bounds(diag_family):
    with pytest.raises(ValueError):
        find_stable_combination(diag_family, p_max=0)


def test_stable_combination_validation():
    with pytest.raises(ValueError):
        StableCombination(
            head=1,
            tail=1,
            head_power=1,
            tail_power=1,
            product=np.diag([0.5, 0.5]),
            contraction_power=1,
            contraction_norm=0.5,
        )
    with pytest.raises(ValueError):
        StableCombination(
            head=1,
            tail=2,
            head_power=1,
            tail_power=1,
            product=np.diag([0.5, 0.5]),
            contraction_power=1,
            contraction_norm=1.5,
        )


@pytest.mark.parametrize("power", ["head_power", "tail_power", "contraction_power"])
def test_stable_combination_refuses_a_power_below_one(power):
    powers = dict(head_power=1, tail_power=1, contraction_power=1) | {power: 0}
    with pytest.raises(ValueError, match="powers must be positive integers"):
        StableCombination(
            head=1, tail=2, product=np.diag([0.5, 0.5]), contraction_norm=0.5, **powers
        )


def test_candidate_past_double_range_is_skipped():
    # A_1 @ A_2 = diag(1e320, 1e-340) leaves double range and is skipped,
    # without an overflow warning; A_1 @ A_3 = diag(1e-10, 1e-10) is next.
    family = MatrixFamily(
        tuple(np.diag(d) for d in ([1e160, 1e-170], [1e160, 1e-170], [1e-170, 1e160]))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comb = find_stable_combination(family)
    assert (comb.head, comb.tail, comb.head_power, comb.tail_power) == (1, 3, 1, 1)
    assert comb.contraction_norm == pytest.approx(1e-10)


def test_contraction_past_double_range_is_unusable():
    # Schur stable, but the transient of its powers (about k 0.95^k 6e307)
    # overflows before any power contracts.
    combo = np.array([[0.95, 6e307], [0.0, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractionError, match="double range"):
            compute_contraction(combo)
        # the same product as the family's only finite candidate is skipped
        family = MatrixFamily((np.array([[0.5, 1e308], [0.0, 1.5]]), np.diag([1.9, 0.6])))
        assert find_stable_combination(family) is None


@pytest.fixture
def classified(monkeypatch):
    """The matrices the search classifies, in call order."""
    seen = []

    def spy(a, tol=SCHUR_MARGIN):
        seen.append(np.array(a))
        return is_schur_stable(a, tol)

    monkeypatch.setattr(search, "is_schur_stable", spy)
    return seen


@pytest.fixture
def stacks(monkeypatch):
    """The shapes of the stacked products the search forms, in call order."""
    shapes, real_matmul = [], np.matmul

    def matmul(a, b):
        shapes.append(np.shape(a))
        return real_matmul(a, b)

    monkeypatch.setattr(np, "matmul", matmul)
    return shapes


def test_search_computes_only_the_powers_it_needs(diag_family, classified, stacks):
    comb = find_stable_combination(diag_family, p_max=10**6, q_max=10**6)
    assert (comb.head, comb.tail, comb.head_power, comb.tail_power) == (1, 2, 1, 1)
    # one stacked step takes both powers from exponent 0 to 1, and one
    # stacked product forms the candidates of (1, 1): A_1 A_2 and A_2 A_1
    assert stacks == [(2, 2, 2), (2, 2, 2)]
    # A_1 A_2 is classified by the scan, then by compute_contraction
    a1, a2 = diag_family.subsystems
    assert len(classified) == 2 and all(np.array_equal(c, a1 @ a2) for c in classified)


def test_search_stacks_stay_within_the_entry_bound(classified, stacks):
    dim = 64
    family = generate_random_instance(8, dim, seed=5)
    stacks.clear()
    assert find_stable_combination(family, p_max=2, q_max=2) is None
    # four exponent pairs of 56 ordered pairs each, 224 candidates in stacks
    # of at most 32 matrices of 64 x 64, so every stack is at the bound and
    # the second one ends inside (1, 2); the power table steps to exponent 1
    # for the first stack and to 2 for the second, the largest it needs
    step, stack = (8, dim, dim), (32, dim, dim)
    assert stacks == [step, stack, step] + [stack] * 6
    assert 32 * dim * dim == BATCH_ENTRIES
    assert len(classified) == 4 * 56


def test_full_grid_miss_forms_its_candidates_in_doubling_stacks(classified, monkeypatch):
    family = generate_random_instance(2, 2, seed=1001)
    calls, real_matmul = [], np.matmul

    def matmul(a, b):
        calls.append("step" if a is family.stack else len(a))
        return real_matmul(a, b)

    monkeypatch.setattr(np, "matmul", matmul)
    assert find_stable_combination(family) is None
    scan = [
        (p, total - p, i, j)
        for total in range(2, 21)
        for p in range(max(1, total - 10), min(10, total - 1) + 1)
        for i, j in ((0, 1), (1, 0))
    ]
    # 200 candidates in 7 stacked products, each twice the one before
    assert [c for c in calls if c != "step"] == [2, 4, 8, 16, 32, 64, 74]
    # before each stack the power table steps to its largest exponent
    steps = start = 0
    for c in calls:
        if c == "step":
            steps += 1
            continue
        assert steps == max(max(p, q) for p, q, _, _ in scan[start:start + c])
        start += c
    # each candidate classified once, in scan order, with the bits of the
    # product of its own powers
    a = family.subsystems
    assert len(classified) == len(scan) == 200
    for got, (p, q, i, j) in zip(classified, scan):
        assert got.tobytes() == (_power(a[i], p) @ _power(a[j], q)).tobytes()


def test_non_finite_candidate_leaves_its_stack_usable(classified):
    # Total exponent 2 forms A_1 A_2, A_1 A_3, A_1 A_4, A_2 A_1, A_2 A_3,
    # A_2 A_4, ... in one stack.  A_2 A_3 = diag(1e320, 0.25) leaves double
    # range and is skipped; the next, A_2 A_4 = diag(1e-10, 0.75), is taken.
    family = MatrixFamily(
        tuple(np.diag(d) for d in ([1.0, 3.0], [1e160, 0.5], [1e160, 0.5], [1e-170, 1.5]))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comb = find_stable_combination(family)
    assert (comb.head, comb.tail, comb.head_power, comb.tail_power) == (2, 4, 1, 1)
    # six candidates scanned, the hit classified once more by compute_contraction
    assert [np.isfinite(c).all() for c in classified] == [True] * 4 + [False] + [True] * 2
