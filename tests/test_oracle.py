import dataclasses
import math
import warnings
from itertools import accumulate

import numpy as np
import pytest

import swstab.oracle
from swstab import (
    EnumerationCapExceeded,
    EnvelopeProfile,
    MatrixFamily,
    basis_length,
    build_graph,
    capped_envelope,
    check_certificate,
    compute_constants,
    correction_bounds,
    decompose_product,
    envelope_constant,
    envelope_constant_bound,
    envelope_profile,
    exchange_identity_residual,
    exhaustive_bound_check,
    find_stable_combination,
    generate_random_instance,
    product_norms,
    sound_certified_rate,
    walk_to_signal,
)
from swstab.certificate import RATE_SAFETY, CertificateInputs
from swstab.linalg import NonFiniteMatrixError, operator_norm, operator_norms


def _reference_profile(family, comb, horizon):
    """Largest norm and number of products at each duration 1..horizon.

    Brute force, independent of the oracle's scan: grow every admissible
    vertex walk that fits the horizon, expand it to subsystem steps, and
    take the prefix products that end inside its last vertex (shorter
    prefixes belong to shorter walks).
    """
    graph = build_graph(family.size)
    hub = graph.stable_vertex
    block = (comb.tail,) * comb.tail_power + (comb.head,) * comb.head_power

    def steps(walk):
        return [ell for v in walk for ell in (block if v == hub else (v,))]

    peaks = [0.0] * (horizon + 1)
    counts = [0] * (horizon + 1)
    walks = [(v,) for v in graph.vertices]
    while walks:
        for walk in walks:
            seq = steps(walk)
            start = len(steps(walk[:-1]))
            prefixes = accumulate(
                (family.matrix(ell) for ell in seq[:horizon]),
                lambda p, a: a @ p,
                initial=np.eye(family.dim),
            )
            for t, p in enumerate(prefixes):
                if t > start:
                    peaks[t] = max(peaks[t], np.linalg.norm(p, 2))
                    counts[t] += 1
        walks = [
            walk + (v,)
            for walk in walks
            for v in graph.vertices
            if (walk[-1], v) in graph.edges and len(steps(walk)) < horizon
        ]
    return peaks, counts


def _reference_instances(diag_family, diag_comb, shear_family, shear_comb):
    cases = [(diag_family, diag_comb), (shear_family, shear_comb)]
    for seed, n in ((1088, 3), (1141, 2)):
        family = generate_random_instance(n, 2, seed=seed)
        cases.append((family, find_stable_combination(family)))
    return cases


def test_exchange_identity_residual_is_rounding_noise(diag_family, diag_comb):
    assert exchange_identity_residual(diag_family, diag_comb) <= 1e-14


def test_exchange_identity_accepts_plain_matrix(shear_family):
    c = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert exchange_identity_residual(shear_family, c) <= 1e-14


def test_envelope_profile_small_case(diag_family, diag_comb):
    # Hand-enumerated to 2 steps; the hub (vertex 3) is A2 then A1.
    # t=1: A1, A2, A2 (hub cut short); t=2: (1,2), (1,3 cut), (2,3 cut)
    # and the whole hub block, in that preorder.  A1 first reaches 1.2,
    # and (2,3 cut) = A2 A2 first reaches 1.44.
    profile = envelope_profile(diag_family, diag_comb, horizon=2)
    assert profile.counts == (1, 3, 4)
    assert profile.peaks == pytest.approx((1.0, 1.2, 1.44), rel=1e-15)
    assert profile.walks == ((), (1,), (2, 3))


def _count_rows(monkeypatch, step: str) -> list[int]:
    """Patch one step of the scan, `_screen` (which every product passes)
    or `operator_norms` (the exact norms of the products the screen keeps),
    to record how many products each call takes."""
    rows: list[int] = []
    original = getattr(swstab.oracle, step)

    def counting(stack, *args):
        rows.append(len(stack))
        return original(stack, *args)

    monkeypatch.setattr(swstab.oracle, step, counting)
    return rows


def test_envelope_profile_cap(diag_family, diag_comb, monkeypatch):
    # The cap is checked on the counts before any product is multiplied.
    rows = _count_rows(monkeypatch, "_screen")
    with pytest.raises(EnumerationCapExceeded):
        envelope_profile(diag_family, diag_comb, horizon=30, cap=100)
    with pytest.raises(EnumerationCapExceeded):
        envelope_profile(diag_family, diag_comb, horizon=10, cap=190)
    assert rows == []


def test_envelope_profile_cap_allows_exactly_cap_products(diag_family, diag_comb):
    profile = envelope_profile(diag_family, diag_comb, horizon=10, cap=191)
    assert sum(profile.counts[1:]) == 191


def test_bound_check_breaks_ties_by_preorder():
    # At rate 0 durations 1 and 2 tie; the walk (1, 2) sorts before (3,),
    # so the product of duration 2 comes first in preorder and is the
    # witness a first-hit scan reports.
    profile = EnvelopeProfile(
        basis=1, block=1, peaks=(1.0, 2.0, 2.0), walks=((), (3,), (1, 2)), counts=(1, 3, 4),
    )
    check = profile.bound_check(0.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (2.0, (1, 2), 2)
    # Durations 2 and 3 tie on one walk, the hub cut short after its first
    # step and after its second: the shorter product is the longer one's
    # parent, so it comes first.
    same_walk = EnvelopeProfile(
        basis=1, block=2, peaks=(1.0, 1.5, 2.0, 2.0), walks=((), (1,), (1, 3), (1, 3)),
        counts=(1, 3, 4, 6),
    )
    check = same_walk.bound_check(0.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (2.0, (1, 3), 2)
    # A product that only ties the empty product's 1 is no witness.
    flat = EnvelopeProfile(basis=1, block=1, peaks=(1.0, 1.0), walks=((), (1,)), counts=(1, 3))
    check = flat.bound_check(0.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (1.0, (), 0)


def test_bound_check_past_exp_range():
    # exp(rate * t) leaves double range from rate * t = 710 on; the value
    # peak * exp(rate * t) is then taken in log space: 0 for a zero peak,
    # finite while it fits in a double, and inf only past that.
    profile = EnvelopeProfile(
        basis=1, block=1, peaks=(1.0, 1e-300, 0.0, 1e-300), walks=((), (1,), (), (1, 2, 1)),
        counts=(1, 2, 2, 2),
    )
    check = profile.bound_check(400.0, 2.0)
    assert check.max_ratio == math.exp(math.log(1e-300) + 1200.0) / 2.0
    assert (check.witness_walk, check.witness_time) == ((1, 2, 1), 3)
    check = profile.bound_check(400.0, 2.0, horizon=2)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (0.5, (), 0)
    check = profile.bound_check(500.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (math.inf, (1, 2, 1), 3)


def test_envelope_profile_counts_what_it_scans(
    diag_family, diag_comb, shear_family, shear_comb, monkeypatch
):
    # Every product passes the screen once; only the few that may raise or
    # tie a peak go on to the exact norm.
    screened = _count_rows(monkeypatch, "_screen")
    normed = _count_rows(monkeypatch, "operator_norms")
    for family, comb in _reference_instances(
        diag_family, diag_comb, shear_family, shear_comb
    ):
        screened.clear()
        normed.clear()
        profile = envelope_profile(family, comb, basis_length(family, comb) + 6)
        assert sum(screened) == sum(profile.counts[1:])
        assert sum(normed) < sum(screened)


def test_oracle_agrees_with_brute_force_reference(
    diag_family, diag_comb, shear_family, shear_comb
):
    for family, comb in _reference_instances(
        diag_family, diag_comb, shear_family, shear_comb
    ):
        basis = basis_length(family, comb)
        horizon = basis + 6
        peaks, counts = _reference_profile(family, comb, horizon)
        assert envelope_profile(family, comb, horizon).counts[1:] == tuple(counts[1:])
        for rate in (check_certificate(family, comb).rate, 0.05, 0.3):
            if rate <= 0.0:
                continue  # the shear pair certifies no rate
            c = max(1.0, *(peaks[t] * math.exp(rate * t) for t in range(1, basis + 1)))
            worst = max(peaks[t] * math.exp(rate * t) for t in range(1, horizon + 1))
            assert envelope_constant(family, comb, rate) == pytest.approx(c, rel=1e-12)
            check = exhaustive_bound_check(family, comb, rate, c, horizon)
            assert check.max_ratio == pytest.approx(max(1.0, worst) / c, rel=1e-12)
            assert check.products_checked == sum(counts)
        windows = peaks[basis : basis + comb.block_duration]
        sound = sound_certified_rate(family, comb)
        if max(windows) >= 1.0:
            assert sound is None
        else:
            expected = min(-math.log(w) / t for t, w in enumerate(windows, start=basis) if w > 0)
            assert sound == pytest.approx(expected * (1 - RATE_SAFETY), rel=1e-12)


def _depth_first_profile(family, comb, horizon):
    """Peaks, first hits (preorder indices), walks and counts from a frozen
    copy of the depth-first scan the batched one replaced: one product and
    one SVD at a time, in preorder, keeping the first product that beats
    the peak."""
    nodes = swstab.oracle._unit_step_nodes(family, comb)
    peaks = [1.0] + [0.0] * horizon
    first_hits = [0] * (horizon + 1)
    walks = [()] * (horizon + 1)
    counts = [1] + [0] * horizon
    index = 0

    def visit(node, parent, t, walk):
        nonlocal index
        index += 1
        counts[t] += 1
        mat, opens, succ = nodes[node]
        p = mat @ parent
        if opens is not None:
            walk += (opens,)
        norm = operator_norm(p)
        if norm > peaks[t]:
            peaks[t], first_hits[t], walks[t] = norm, index, walk
        if t < horizon:
            for child in succ:
                visit(child, p, t + 1, walk)

    if horizon > 0:
        for node, (_, opens, _) in enumerate(nodes):
            if opens is not None:
                visit(node, np.eye(family.dim), 1, ())
    return tuple(peaks), tuple(first_hits), tuple(walks), tuple(counts)


_EQUALITY_FAMILIES = pytest.mark.parametrize(
    "family, horizon",
    [
        # commuting, so many products tie exactly and the preorder rule decides
        (MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2]))), 16),
        (generate_random_instance(2, 3, seed=0), 16),
        (generate_random_instance(3, 4, seed=0), 14),  # block of 3 steps
        (generate_random_instance(2, 4, seed=0), 30),  # block of 9 steps
        (generate_random_instance(10, 2, seed=0), 7),
        # rank one, so sigma = ||P||_F: the screen's upper bound is tight,
        # and rounding can put the SVD above it
        (MatrixFamily((np.outer([1.0, 0.5], [1.25, 0.75]), np.outer([0.5, -1.5], [0.75, 1.0]))), 16),
        # from 6 steps on every product's squares underflow, from 12 its entries
        (MatrixFamily((np.diag([1.5, 1e-90]), np.diag([1e-90, 1.5]))), 14),
    ],
    ids=["diagonal", "n2-d3", "n3-d4", "n2-d4", "n10-d2", "rank-one", "underflow"],
)


@_EQUALITY_FAMILIES
def test_walk_order_is_preorder(family, horizon):
    # bound_check breaks ties between durations by (walk, t); on the
    # reference scan that orders the first hits as their preorder indices
    # do.  A duration whose products all vanish has no first hit.
    comb = find_stable_combination(family)
    peaks, first_hits, walks, _ = _depth_first_profile(family, comb, horizon)
    hit = [t for t in range(horizon + 1) if peaks[t] > 0.0]
    assert sorted(hit, key=lambda t: first_hits[t]) == sorted(hit, key=lambda t: (walks[t], t))


@pytest.mark.parametrize("slice_size", [1, 7, swstab.oracle.SLICE])
@_EQUALITY_FAMILIES
def test_batched_scan_equals_the_depth_first_scan(family, horizon, slice_size, monkeypatch):
    # Exact ==, at every horizon up to `horizon`, with slice boundaries
    # falling inside every batch when the slice size is 7, and every batch
    # the children of one product when it is 1.
    monkeypatch.setattr(swstab.oracle, "SLICE", slice_size)
    comb = find_stable_combination(family)
    for h in range(horizon + 1):
        profile = envelope_profile(family, comb, h)
        peaks, _, walks, counts = _depth_first_profile(family, comb, h)
        assert (profile.peaks, profile.walks, profile.counts) == (peaks, walks, counts)


def test_envelope_profile_holds_one_bounded_batch_at_a_time(diag_family, diag_comb, monkeypatch):
    # Memory is bounded by the slice, not by the level: no batch is larger
    # than a slice times the largest out-degree, though the levels are.
    monkeypatch.setattr(swstab.oracle, "SLICE", 7)
    rows = _count_rows(monkeypatch, "_screen")
    profile = envelope_profile(diag_family, diag_comb, horizon=16)
    degree = max(len(succ) for _, _, succ in swstab.oracle._unit_step_nodes(diag_family, diag_comb))
    assert max(rows) <= 7 * degree < max(profile.counts)


def test_screen_keeps_every_product_that_may_raise_the_peak():
    # Against a peak one ulp below a product's computed norm, the product
    # survives: rank one (16 of these 50 round their SVD above their
    # Frobenius norm), generic, with squares that underflow or overflow.
    rng = np.random.default_rng(0)
    prods = [np.outer(*rng.normal(size=(2, 2))) for _ in range(50)]
    prods += list(rng.normal(size=(50, 2, 2)))
    prods += [np.diag([1.3e-162, 0.0]), np.diag([1e-170, 1e-200]), np.diag([1e200, 1e-200])]
    for p in prods:
        norm = operator_norms(p[None])[0]
        assert swstab.oracle._screen(p[None], np.nextafter(norm, 0.0))[0], p
    # The first product's squares overflow, so its Frobenius norm bounds
    # nothing; the second's largest norm must not be held against it.
    batch = np.stack([np.diag([1.2e154, 1.2e154]), np.diag([1.3e154, 0.0])])
    assert swstab.oracle._screen(batch, 0.0).tolist() == [True, True]


def test_screen_drops_products_that_cannot_raise_or_tie():
    screen = swstab.oracle._screen
    # A zero product can at most tie a peak of 0.
    assert screen(np.zeros((3, 2, 2)), 0.0).tolist() == [False] * 3
    # ||I||_F = sqrt(2) is below ||diag(4, 0)|| / sqrt(2): I cannot tie it.
    batch = np.stack([np.eye(2), np.diag([4.0, 0.0]), np.diag([0.0, 4.0])])
    assert screen(batch, 0.0).tolist() == [False, True, True]
    assert screen(batch, 5.0).tolist() == [False, False, False]
    # A non-finite entry anywhere in the batch is refused, never screened.
    for bad in (np.nan, np.inf):
        batch[0, 0, 0] = bad
        with pytest.raises(NonFiniteMatrixError):
            screen(batch, 5.0)


def test_envelope_profile_rejects_a_product_past_double_range(diag_comb):
    # 1e200 * 1e200 overflows at two steps (a tail step, then the hub's
    # second one); the scan refuses it as every norm refuses an inf entry.
    # No overflow warning escapes before the refusal.
    family = MatrixFamily((np.diag([1e200, 0.4]), np.diag([0.4, 1e200])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            envelope_profile(family, diag_comb, horizon=4)


def test_capped_envelope_says_why_its_scan_fell_short(diag_comb):
    # 1e60 ** 3 fits in a double and 1e60 ** 7 does not: the scan to 10
    # steps overflows (or, under a cap of 100, outgrows it), and the basis
    # of 4 steps alone gives the constant.  1e200 ** 2 overflows within the
    # basis, so only the norm bound remains.
    family = MatrixFamily((np.diag([1e60, 0.4]), np.diag([0.4, 1e60])))
    c = envelope_constant(family, diag_comb, 0.1)
    assert capped_envelope(family, diag_comb, 0.1, 10) == (c, "exhaustive", "products past double range")
    assert capped_envelope(family, diag_comb, 0.1, 10, cap=100) == (c, "exhaustive", "enumeration cap")
    family = MatrixFamily((np.diag([1e200, 0.4]), np.diag([0.4, 1e200])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = capped_envelope(family, diag_comb, 0.1)
    assert got == (math.inf, "norm-bound", "products past double range")


def test_signal_and_oracle_agree_on_the_step_order(
    diag_family, diag_comb, shear_family, shear_comb
):
    # The witness walk of each peak, run as a schedule, reproduces the peak
    # bit for bit only when both expand the hub into the same steps.
    for family, comb in _reference_instances(
        diag_family, diag_comb, shear_family, shear_comb
    ):
        graph = build_graph(family.size)
        profile = envelope_profile(family, comb, basis_length(family, comb) + 6)
        for t, walk in enumerate(profile.walks):
            signal = walk_to_signal(graph, walk, comb)
            assert product_norms(family, signal, t)[t] == profile.peaks[t]


def test_diagonal_pair_pinned_at_paper_rate(diag_family, diag_comb):
    # Exact values of the scan this one replaced, at the paper's rate.
    rate = check_certificate(diag_family, diag_comb).rate
    c = envelope_constant(diag_family, diag_comb, rate)
    check = exhaustive_bound_check(diag_family, diag_comb, rate, c, horizon=10)
    assert c == 2.9999977980932822
    assert check.max_ratio == 2.9999933942846964
    assert check.products_checked == 191


def test_basis_length(diag_family, diag_comb, shear_family, shear_comb):
    assert basis_length(diag_family, diag_comb) == 4  # m=1, block 2, N=2
    assert basis_length(shear_family, shear_comb) == 12  # m=3, block 2, N=2


def test_envelope_constant_frozen_value(diag_family, diag_comb):
    c = envelope_constant(diag_family, diag_comb, rate=0.3)
    assert c == pytest.approx(2.6238510725623327, abs=1e-12)
    assert c >= 1.0


def test_envelope_constant_requires_positive_rate(diag_family, diag_comb):
    with pytest.raises(ValueError):
        envelope_constant(diag_family, diag_comb, rate=0.0)


def test_envelope_constant_bound_dominates_exhaustive(diag_family, diag_comb):
    exact = envelope_constant(diag_family, diag_comb, rate=0.3)
    loose = envelope_constant_bound(diag_family, diag_comb, rate=0.3)
    assert loose >= exact


def test_exhaustive_bound_check_tight_at_basis(diag_family, diag_comb):
    rate = 0.3
    c = envelope_constant(diag_family, diag_comb, rate)
    check = exhaustive_bound_check(
        diag_family, diag_comb, rate, c, horizon=basis_length(diag_family, diag_comb)
    )
    # c is defined as the max over this horizon, so the worst ratio is 1.
    assert check.max_ratio == pytest.approx(1.0, rel=1e-12)
    assert check.products_checked > 0
    assert len(check.witness_walk) >= 1


def test_exhaustive_bound_check_finds_violations_past_basis(diag_family, diag_comb):
    # Past the covered horizon the envelope can be (and here is) violated:
    # the certificate inequality does not extend it.
    rate = 0.3
    c = envelope_constant(diag_family, diag_comb, rate)
    check = exhaustive_bound_check(diag_family, diag_comb, rate, c, horizon=20)
    assert check.max_ratio > 1.0
    assert check.witness_time > basis_length(diag_family, diag_comb)


def test_sound_certified_rate_diagonal_value(diag_family, diag_comb):
    # Binding window: vertices 2, hub, 2, then the tail step of the next
    # hub block -- five steps ending mid-way through a block, norm 1.2^3*0.48.
    expected = -math.log(1.2**3 * 0.48) / 5 * (1 - 1e-6)
    assert sound_certified_rate(diag_family, diag_comb) == pytest.approx(
        expected, rel=1e-12
    )


def test_sound_certified_rate_none_for_shear(shear_family, shear_comb):
    assert sound_certified_rate(shear_family, shear_comb) is None


def test_sound_rate_skips_vanishing_windows():
    # A1 @ A2 = 0: of the windows of 4 and 5 steps, every product of 5
    # vanishes, and -ln 0 = inf bounds nothing; the window of 4 binds.
    family = MatrixFamily((np.array([[-1.0, 0.0], [0.5, 0.0]]), np.array([[0.0, 0.0], [0.0, -1.0]])))
    comb = find_stable_combination(family)
    assert (basis_length(family, comb), comb.block_duration) == (4, 2)
    expected = -math.log(0.5) / 4 * (1 - RATE_SAFETY)
    assert sound_certified_rate(family, comb) == pytest.approx(expected, rel=1e-12)
    # When every window vanishes, every rate holds.
    profile = EnvelopeProfile(
        basis=2, block=2, peaks=(1.0, 2.0, 0.0, 0.0), walks=((), (1,), (), ()), counts=(1, 3, 4, 6),
    )
    assert profile.sound_rate() == math.inf


def test_envelope_holds_at_sound_rate_past_basis(diag_family, diag_comb):
    # Counterpart of test_exhaustive_bound_check_finds_violations_past_basis:
    # at the sound rate the constant taken over the basis alone still
    # bounds every product up to horizon 20.
    rate = sound_certified_rate(diag_family, diag_comb)
    c = envelope_constant(diag_family, diag_comb, rate)
    check = exhaustive_bound_check(diag_family, diag_comb, rate, c, horizon=20)
    assert check.max_ratio <= 1.0


def test_decomposition_commuting_family(diag_family, diag_comb):
    segment = [1, 2, 3]  # duration 4 = basis length, one hub block
    dec = decompose_product(diag_family, diag_comb, segment)
    assert dec.residual <= 1e-14
    # diagonal matrices commute: every correction term carries a zero
    # commutator factor
    assert operator_norm(dec.correction) == 0.0
    assert dec.term_count <= 2 * 1 * 2 // 2
    assert not dec.starts_stable
    assert np.allclose(dec.main_term + dec.correction, dec.total)


def test_decomposition_noncommuting_family(shear_family, shear_comb):
    count_bound, norm_bound = correction_bounds(compute_constants(shear_family, shear_comb))
    assert count_bound == 12  # N * m * (m + 1) / 2 with N = 2, m = 3
    for segment in ([3, 3, 3, 1, 2, 1, 2, 1, 2], [1, 3, 2, 3, 1, 3, 2, 1, 2]):
        dec = decompose_product(shear_family, shear_comb, segment)
        assert dec.residual <= 1e-10 * max(1.0, operator_norm(dec.total))
        assert dec.term_count <= count_bound
        assert operator_norm(dec.correction) <= norm_bound + 1e-9
        assert np.allclose(dec.main_term + dec.correction, dec.total, atol=1e-10)
    assert decompose_product(shear_family, shear_comb, [3, 3, 3, 1, 2, 1, 2, 1, 2]).starts_stable


def test_correction_bounds_past_double_range():
    # 1e160 ** 2 overflows a Python float power; the bound is then inf, and
    # 0 whenever the commutators vanish (not 0 * inf = nan).
    inputs = CertificateInputs(
        n_subsystems=3, max_subsystem_norm=1e160, combination_norm=2.0,
        max_commutator_norm=1.0, contraction_power=1, contraction_norm=0.5,
        head_power=1, tail_power=1,
    )
    assert correction_bounds(inputs) == (3, math.inf)
    assert correction_bounds(dataclasses.replace(inputs, max_commutator_norm=0.0)) == (3, 0.0)


def test_decomposition_validates_segment(shear_family, shear_comb):
    with pytest.raises(ValueError, match="duration"):
        decompose_product(shear_family, shear_comb, [3, 3, 3])
    with pytest.raises(ValueError, match="blocks"):
        decompose_product(
            shear_family, shear_comb, [3, 3] + [1, 2] * 4
        )  # duration 12 but only 2 blocks
    with pytest.raises(ValueError, match="vertex"):
        decompose_product(shear_family, shear_comb, [7] * 12)
