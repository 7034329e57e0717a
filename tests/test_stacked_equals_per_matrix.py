"""The stacked LAPACK calls against frozen per-matrix copies.

`generate_random_instance`, `find_stable_combination` and
`compute_constants` classify and measure whole stacks of matrices with
one `eigvals` or `svd` call (instance draws come eight families at a
time), and `decompose_product` takes its commutators from one stacked
product.  The copies below are those functions as they were with one
call per matrix: one draw at a time, one candidate at a time with lazily
cached powers, one norm at a time, one commutator at a time and
combination^m by iterated multiplication.  Every output must be the
same, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    SCHUR_MARGIN,
    CertificateInputs,
    MatrixFamily,
    StableCombination,
    basis_length,
    compute_constants,
    correction_bounds,
    decompose_product,
    find_stable_combination,
    generate_random_instance,
)
import swstab.instances as instances
from swstab.linalg import as_matrix


def _exponent_pairs(p_max, q_max):
    """(p, q) pairs ordered by total exponent p+q ascending, then p ascending."""
    for total in range(2, p_max + q_max + 1):
        for p in range(max(1, total - q_max), min(p_max, total - 1) + 1):
            yield p, total - p


def _radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(as_matrix(a)))))


def _norm(a):
    return float(np.linalg.svd(as_matrix(a), compute_uv=False)[0])


def _power(a, k):
    p = np.eye(a.shape[0])
    for _ in range(k):
        p = a @ p
    return p


def reference_instance(n_subsystems, dim, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = []
    for _ in range(n_subsystems):
        for _ in range(instances.MAX_RESAMPLES):
            a = rng.uniform(-1.0, 1.0, size=(dim, dim))
            if not _radius(a) < 1.0 - SCHUR_MARGIN:
                mats.append(a)
                break
        else:
            raise RuntimeError(
                f"no unstable matrix found in {instances.MAX_RESAMPLES} draws (dim={dim})"
            )
    return MatrixFamily(tuple(mats))


def _reference_contraction(combo, m_max):
    p = np.eye(combo.shape[0])
    for m in range(1, m_max + 1):
        p = combo @ p
        if not np.isfinite(p).all():
            return None
        norm = _norm(p)
        if norm < 1.0:
            return m, norm
    return None


def reference_search(family, p_max=10, q_max=10, m_max=512):
    n = family.size
    powers = {}

    def power(ell, k):
        if (ell, k) not in powers:
            powers[ell, k] = _power(family.matrix(ell), k)
        return powers[ell, k]

    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in _exponent_pairs(p_max, q_max):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    candidate = power(i, p) @ power(j, q)
                    if not np.isfinite(candidate).all() or not _radius(candidate) < 1.0 - SCHUR_MARGIN:
                        continue
                    hit = _reference_contraction(candidate, m_max)
                    if hit is None or hit[1] == 0.0:
                        continue
                    return StableCombination(i, j, p, q, candidate, *hit)
    return None


def reference_constants(family, comb):
    norms = [_norm(a) for a in family.subsystems]
    with np.errstate(over="ignore", invalid="ignore"):
        comms = [a @ comb.product - comb.product @ a for a in family.subsystems]
    comms = [_norm(e) if np.isfinite(e).all() else math.inf for e in comms]
    return CertificateInputs(
        n_subsystems=family.size,
        max_subsystem_norm=max(norms),
        combination_norm=_norm(comb.product),
        max_commutator_norm=max(comms),
        contraction_power=comb.contraction_power,
        contraction_norm=comb.contraction_norm,
        block_duration=comb.head_power + comb.tail_power,
    )


def reference_decompose(family, comb, walk):
    """The bytes of total, main_term and correction, the term count and the
    residual's hex for a valid basis segment, with one commutator per
    subsystem and combination^m by iterated multiplication.

    It keeps, on purpose, the swap formulation that `decompose_product`
    has since replaced by its closed form: the word reversed so the latest
    step comes first, each block swapped one adjacent factor at a time,
    one term frozen per plain factor it passes.  The equality test thus
    compares two formulations, not a copy of one."""
    hub, m, c = family.size + 1, comb.contraction_power, comb.product
    factors = {hub: c}
    with np.errstate(over="ignore", invalid="ignore"):
        for ell, a in enumerate(family.subsystems, start=1):
            factors[ell], factors[-ell] = a, a @ c - c @ a

    def product(word):
        p = np.eye(family.dim)
        for v in reversed(word):
            p = factors[v] @ p
        return p

    word = walk[::-1]
    main, terms = list(word), []
    for settled in range(m):
        boundary = len(main) - settled
        idx = max(i for i in range(boundary) if main[i] == hub)
        while idx < boundary - 1:
            nxt = main[idx + 1]
            if nxt != hub:
                terms.append(main[:idx] + [-nxt] + main[idx + 2 :])
            main[idx], main[idx + 1] = nxt, main[idx]
            idx += 1
    with np.errstate(over="ignore", invalid="ignore"):
        total = product(word)
        main_term = product(main[: len(main) - m]) @ _power(c, m)
        correction = np.zeros((family.dim, family.dim))
        for term in terms:
            correction -= product(term)
        residual = _norm(total - (main_term + correction))
    return total.tobytes(), main_term.tobytes(), correction.tobytes(), len(terms), residual.hex()


def _decomposition_key(family, comb, walk):
    dec = decompose_product(family, comb, walk)
    return (dec.total.tobytes(), dec.main_term.tobytes(), dec.correction.tobytes(), dec.term_count,
            dec.residual.hex())


def _basis_segments(family, comb, rng, count=3):
    """The canonical segment (1..N, hub)^m, then `count` random walks of the
    basis length holding at least m combination blocks."""
    hub, block, m = family.size + 1, comb.block_duration, comb.contraction_power
    basis = basis_length(family, comb)
    segments = [(list(range(1, hub)) + [hub]) * m]
    while len(segments) <= count:
        seg, left = [], basis
        while left:
            v = int(rng.integers(1, hub + 1 if block <= left else hub))
            seg.append(v)
            left -= block if v == hub else 1
        if seg.count(hub) >= m:
            segments.append(seg)
    return segments


def _assert_same_decompositions(family, comb, rng):
    hub, m = family.size + 1, comb.contraction_power
    for i, seg in enumerate(_basis_segments(family, comb, rng)):
        got = _outcome(_decomposition_key, family, comb, seg)
        assert got == _outcome(reference_decompose, family, comb, seg)
        if len(got) == 5:
            # one term per plain step before each of the m earliest blocks
            blocks = [p for p, v in enumerate(seg) if v == hub][:m]
            assert got[3] == sum(p - k for k, p in enumerate(blocks))
            if i == 0:
                # the canonical segment meets correction_bounds' N*m*(m+1)/2
                assert got[3] == correction_bounds(compute_constants(family, comb))[0]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same_pipeline(family, **bounds):
    """Search and constants of `family` equal the frozen copies'."""
    got, want = find_stable_combination(family, **bounds), reference_search(family, **bounds)
    assert (got is None) == (want is None)
    if got is None:
        return None
    fields = ("head", "tail", "head_power", "tail_power", "contraction_power", "contraction_norm")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert np.array_equal(got.product, want.product) and _same_bits(got.product, want.product)
    assert _outcome(compute_constants, family, got) == _outcome(reference_constants, family, want)
    return got


def test_exponent_pairs_order():
    pairs = list(_exponent_pairs(3, 3))
    assert pairs[:6] == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
    assert pairs[-1] == (3, 3)
    assert len(pairs) == 9


@pytest.mark.parametrize("n, dim", [(2, 2), (3, 2), (10, 2), (3, 3), (3, 4)])
def test_population_equals_the_per_matrix_pipeline(n, dim):
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(1000, 1100):
            family = generate_random_instance(n, dim, seed)
            want = reference_instance(n, dim, seed)
            assert all(_same_bits(a, b) for a, b in zip(family.subsystems, want.subsystems, strict=True))
            hits += _assert_same_pipeline(family) is not None
    assert hits  # the hits reach compute_constants


def test_resample_bound_holds_per_matrix(monkeypatch):
    # With at most 2 draws per matrix some families are complete and some
    # run out; the draws of earlier matrices do not count against later ones.
    monkeypatch.setattr(instances, "MAX_RESAMPLES", 2)
    outcomes = []
    for seed in range(200):
        got, want = _outcome(generate_random_instance, 4, 2, seed), _outcome(reference_instance, 4, 2, seed)
        if isinstance(want, MatrixFamily):
            assert all(_same_bits(a, b) for a, b in zip(got.subsystems, want.subsystems, strict=True))
        else:
            assert got == want
        outcomes.append(type(want))
    assert set(outcomes) == {MatrixFamily, tuple}


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.integers(2, 4), st.integers(0, 2**64 - 1))
def test_chunked_draws_equal_the_per_matrix_draws(n, dim, seed):
    got, want = generate_random_instance(n, dim, seed), reference_instance(n, dim, seed)
    assert all(_same_bits(a, b) for a, b in zip(got.subsystems, want.subsystems, strict=True))


@pytest.mark.parametrize("cap", [1, 3, 6, 17, 40])
def test_resample_bound_raises_where_the_per_matrix_draws_do(monkeypatch, cap):
    # a chunk holds 8N draws; at d = 2 about 78 % of draws are stable, so
    # with these caps some families fill and some run out, at times after
    # a run of rejections that spans chunks
    monkeypatch.setattr(instances, "MAX_RESAMPLES", cap)
    kinds = set()
    for n in (2, 3):
        for seed in range(300):
            got, want = _outcome(generate_random_instance, n, 2, seed), _outcome(reference_instance, n, 2, seed)
            if isinstance(want, MatrixFamily):
                assert all(_same_bits(a, b) for a, b in zip(got.subsystems, want.subsystems, strict=True))
            else:
                assert got == want
            kinds.add(type(want))
    if cap <= 6:
        assert kinds == {MatrixFamily, tuple}


def _diag_family(*diagonals):
    return MatrixFamily(tuple(np.diag(d) for d in diagonals))


fixed_families = pytest.mark.parametrize(
    "family, bounds",
    [
        # the hopeless pair: every candidate is unstable
        (_diag_family([2.0, 2.0], [3.0, 3.0]), {"p_max": 4, "q_max": 4}),
        # A_1 A_2 leaves double range before A_1 A_3 = diag(1e-10, 1e-10)
        (_diag_family([1e160, 1e-170], [1e160, 1e-170], [1e-170, 1e160]), {}),
        (_diag_family([1e160, 1e-170], [1e-170, 1e160], [2.0, 2.0]), {}),
        (_diag_family([2.0, 1e-300], [1e-300, 2.0]), {}),
        (_diag_family([2.0, 1e-100], [1e-100, 2.0]), {}),
        # powers of the only finite candidate overflow before contracting
        (MatrixFamily((np.array([[0.5, 1e308], [0.0, 1.5]]), np.diag([1.9, 0.6]))), {}),
        # the combination is finite, A_1 times it is not: an inf commutator
        (
            MatrixFamily((np.array([[1e100, 1e-300], [1e100, -1e-100]]), np.array([[1, -1], [0.5, -2]]))),
            {"p_max": 3, "q_max": 3, "m_max": 64},
        ),
        (MatrixFamily((np.array([[1e100]]), np.array([[-1e-100]]), np.array([[-2.0]]))), {}),
        (_diag_family([1.2, 0.4], [0.4, 1.2]), {}),
        (MatrixFamily((np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([[0.25, 0.5], [0.0, 1.0]]))), {}),
    ],
    ids=[
        "hopeless",
        "1e160-candidate",
        "1e160-correction",
        "1e-300-pair",
        "1e-100-pair",
        "overflowing-power",
        "overflowing-commutator",
        "dim-1",
        "diagonal-pair",
        "shear-pair",
    ],
)


@fixed_families
def test_fixed_family_equals_the_per_matrix_pipeline(family, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_pipeline(family, **bounds)


@fixed_families
def test_fixed_family_decomposes_as_the_per_matrix_copy(family, bounds):
    comb = find_stable_combination(family, **bounds)
    if comb is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_decompositions(family, comb, np.random.Generator(np.random.PCG64(7)))


@pytest.mark.parametrize("n, dim", [(2, 2), (3, 2), (10, 2), (3, 3), (3, 4)])
def test_population_decomposes_as_the_per_matrix_copy(n, dim):
    # the canonical segment and three random basis segments of each family
    # with a combination, every field compared in its bytes; m <= 10 keeps
    # the N*m*(m+1)/2 correction words of a segment to a few seconds in all
    rng = np.random.Generator(np.random.PCG64(100 * n + dim))
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(1000, 1100):
            family = generate_random_instance(n, dim, seed)
            comb = find_stable_combination(family)
            if comb is not None and comb.contraction_power <= 10:
                _assert_same_decompositions(family, comb, rng)
                hits += 1
    assert hits
