import dataclasses
import math
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swstab.oracle
from swstab import (
    EnumerationCapExceeded,
    EnvelopeProfile,
    MatrixFamily,
    StableCombination,
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
    verify_ges,
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


def test_bound_check_at_an_infinite_rate(diag_family, diag_comb):
    # At t = 0 the term is the empty product's 1 whatever the rate: rate * 0
    # is nan for an infinite rate, and read as e^nan it made the empty
    # product's ratio inf.
    profile = envelope_profile(diag_family, diag_comb, horizon=6)
    check = profile.bound_check(-math.inf, 2.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (0.5, (), 0)
    check = profile.bound_check(math.inf)
    first = min((walk, t) for t, (walk, p) in enumerate(zip(profile.walks, profile.peaks)) if t and p > 0.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (math.inf, *first)
    # A duration whose products all vanish stays 0 at an infinite rate.
    vanishing = EnvelopeProfile(basis=1, block=1, peaks=(1.0, 0.0, 0.5), walks=((), (1,), (2, 1)), counts=(1, 2, 2))
    check = vanishing.bound_check(math.inf)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (math.inf, (2, 1), 2)


def test_a_negative_horizon_is_refused(diag_family, diag_comb):
    # A horizon of -3 gave a profile with one peak and no walks, whose
    # bound_check ended in an IndexError.
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        envelope_profile(diag_family, diag_comb, -3)
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        exhaustive_bound_check(diag_family, diag_comb, 0.3, 1.0, -3)


def test_bound_check_refuses_a_nonpositive_constant(diag_family, diag_comb):
    # c = 0 divided by zero, or hit a math domain error past exp range; c =
    # -1 gave a negative max_ratio, which reads as PASS; c = inf gave a
    # max_ratio of 0, a PASS that checked nothing.
    profile = envelope_profile(diag_family, diag_comb, horizon=4)
    for c in (0.0, -1.0, math.inf):
        for rate in (0.3, 400.0):
            with pytest.raises(ValueError, match="envelope constant must be positive"):
                profile.bound_check(rate, c)
        with pytest.raises(ValueError, match="envelope constant must be positive"):
            exhaustive_bound_check(diag_family, diag_comb, 0.3, c, horizon=4)


def test_bound_check_ranks_overflowing_durations_by_logarithm():
    # At rate 100, peak * exp(rate * t) leaves double range at t = 2
    # (e^890.8) and t = 3 (e^1002.3).  The larger is the witness, though
    # the walk of t = 2 comes first in preorder, and its ratio to c = 1e300
    # fits in a double.
    profile = EnvelopeProfile(
        basis=1, block=1, peaks=(1.0, 0.5, 1e300, 1e305), walks=((), (1,), (1, 2), (1, 2, 1)),
        counts=(1, 2, 2, 2),
    )
    check = profile.bound_check(100.0, 1e300)
    assert check.max_ratio == pytest.approx(math.exp(math.log(1e305) + 300.0 - math.log(1e300)), rel=1e-12)
    assert (check.witness_walk, check.witness_time) == ((1, 2, 1), 3)
    check = profile.bound_check(100.0)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (math.inf, (1, 2, 1), 3)
    # Below double range the values themselves are compared, as before.
    check = profile.bound_check(100.0, 1e300, horizon=1)
    assert (check.max_ratio, check.witness_walk, check.witness_time) == (0.5 * math.exp(100.0) / 1e300, (1,), 1)


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
    mats, succ = swstab.oracle._unit_step_graph(family, comb)
    hub = family.size + 1
    peaks = [1.0] + [0.0] * horizon
    first_hits = [0] * (horizon + 1)
    walks = [()] * (horizon + 1)
    counts = [1] + [0] * horizon
    index = 0

    def visit(node, parent, t, walk):
        nonlocal index
        index += 1
        counts[t] += 1
        p = mats[node] @ parent
        if node <= hub:
            walk += (node,)
        norm = operator_norm(p)
        if norm > peaks[t]:
            peaks[t], first_hits[t], walks[t] = norm, index, walk
        if t < horizon:
            for child in succ[node]:
                visit(child, p, t + 1, walk)

    if horizon > 0:
        for node in succ[0]:
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
        # the batch's largest norm starts below SCREEN_TINY and crosses it mid-scan
        (MatrixFamily((np.diag([2.0, 1e-150]), np.diag([1e-150, 2.0]))), 12),
    ],
    ids=["diagonal", "n2-d3", "n3-d4", "n2-d4", "n10-d2", "rank-one", "underflow", "tiny-start"],
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


_KINDS = ("generic", "non-normal", "rank-one", "badly-scaled")


@st.composite
def _drawn_scans(draw):
    """(family, combination, horizon, slice size) with 2 x 2 or 3 x 3
    matrices of one kind.  The scan reads only the combination's steps, so
    the combination is drawn, not searched for, and need not be stable."""
    d, n, kind = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3])), draw(st.sampled_from(_KINDS))
    entries = st.lists(st.floats(-2.0, 2.0, width=64), min_size=d * d, max_size=d * d)
    mats = []
    for _ in range(n):
        a = np.array(draw(entries)).reshape(d, d)
        if kind == "non-normal":
            a = np.triu(a)
            a[0, -1] = draw(st.sampled_from([-1e4, -30.0, 30.0, 1e4]))
        elif kind == "rank-one":
            a = np.outer(a[0], a[1])
        elif kind == "badly-scaled":
            # D a D^-1 spreads the entries over many orders of magnitude, and
            # the scale may take products out of double range either way
            spread = 10.0 ** np.array(draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d)))
            a = a * np.outer(spread, 1.0 / spread) * 10.0 ** draw(st.sampled_from([-150, -60, 0, 60, 150]))
        mats.append(a)
    head, tail = draw(st.permutations(range(1, n + 1)))[:2]
    comb = StableCombination(
        head=head,
        tail=tail,
        head_power=draw(st.integers(1, 3)),
        tail_power=draw(st.integers(1, 3)),
        product=np.eye(d),
        contraction_power=1,
        contraction_norm=0.5,
    )
    horizon = draw(st.integers(8, 12 if n == 2 else 8))
    return MatrixFamily(tuple(mats)), comb, horizon, draw(st.sampled_from([1, 7]))


@settings(max_examples=60, deadline=None)
@given(_drawn_scans())
def test_pruned_scan_equals_the_depth_first_scan_on_drawn_families(case):
    # With slices of 1 or 7 products some level always holds more than a
    # slice, so the scan prunes; its peaks, walks and counts must still be
    # the frozen depth-first scan's, and it must refuse a product past
    # double range exactly when that scan does.
    family, comb, horizon, slice_size = case
    got = want = "past double range"
    with mock.patch.object(swstab.oracle, "SLICE", slice_size), np.errstate(over="ignore", invalid="ignore"):
        try:
            profile = envelope_profile(family, comb, horizon)
            got = (profile.peaks, profile.walks, profile.counts)
        except NonFiniteMatrixError:
            pass
        try:
            peaks, _, walks, counts = _depth_first_profile(family, comb, horizon)
            want = (peaks, walks, counts)
        except NonFiniteMatrixError:
            pass
    assert got == want


def test_pruning_starts_only_past_a_slice(diag_family, diag_comb, monkeypatch):
    # The diagonal pair's largest level to 12 steps holds 108 products: with
    # the default slice every product is multiplied once; with slices of 7
    # the scan prunes, and still reports every product it covers.
    screened = _count_rows(monkeypatch, "_screen")
    profile = envelope_profile(diag_family, diag_comb, 12)
    assert max(profile.counts) == 108
    assert sum(screened) == sum(profile.counts[1:]) == 380
    monkeypatch.setattr(swstab.oracle, "SLICE", 7)
    screened.clear()
    assert envelope_profile(diag_family, diag_comb, 12) == profile
    assert sum(screened) < sum(profile.counts[1:])
    assert exhaustive_bound_check(diag_family, diag_comb, 0.1, 1.0, 12).products_checked == 380


_DIAG = MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))


@pytest.mark.parametrize(
    "family, horizon, slice_size, raises",
    [
        (_DIAG, 12, swstab.oracle.SLICE, 0),
        (_DIAG, 20, swstab.oracle.SLICE, 0),
        (_DIAG, 12, 7, 0),
        (generate_random_instance(3, 2, 1000), 11, 7, 3),
    ],
    ids=["diag-h12", "diag-h20", "diag-h12-slice7", "1000-h11-slice7"],
)
def test_only_a_pruning_scan_prepares_its_test(family, horizon, slice_size, raises, monkeypatch):
    # A scan whose levels each fit in one slice prepares nothing.  One that
    # prunes runs `_growth` and `_seeds` once and `_cut` once, then once
    # more, with the raised low, right after each flush that raises low
    # (on the diagonal pair `_seeds` already finds the peaks); the last
    # flush ends the scan, and nothing reads low after it.
    monkeypatch.setattr(swstab.oracle, "SLICE", slice_size)
    log = []  # (step, what it saw), in call order

    def spy(step, seen):
        original = getattr(swstab.oracle, step)

        def call(*args):
            out = original(*args)
            log.append((step, seen(out, args)))
            return out

        monkeypatch.setattr(swstab.oracle, step, call)

    spy("_growth", lambda out, args: None)
    spy("_seeds", lambda out, args: out.tolist())  # the first low
    spy("_cut", lambda out, args: args[0].tolist())  # the low it reads
    spy("_flush", lambda out, args: list(args[3]))  # the peaks it leaves
    profile = envelope_profile(family, find_stable_combination(family), horizon)
    steps = [step for step, _ in log]
    if max(profile.counts) <= slice_size:
        assert steps == ["_flush"]
        return
    assert steps[:3] == ["_growth", "_seeds", "_cut"] and steps.count("_growth") == steps.count("_seeds") == 1
    low = log[1][1]
    want = [low]
    for k, (step, peaks) in enumerate(log[3:-1], start=3):
        if step == "_flush" and any(p > q for p, q in zip(peaks, low)):
            low = [max(p, q) for p, q in zip(peaks, low)]
            want.append(low)
            assert log[k + 1][0] == "_cut"
    assert [cut for step, cut in log if step == "_cut"] == want
    assert len(want) == 1 + raises


@pytest.mark.parametrize("horizon, products, multiplied, normed", [(20, 5_556, 218, 93), (38, 2_236_045, 578, 216)])
def test_pruning_work_stays_within_its_recorded_figures(
    diag_family, diag_comb, monkeypatch, horizon, products, multiplied, normed
):
    # Upper bounds, at the figures the pruned scan first reached on the
    # diagonal pair: a weaker prune test or screen multiplies or norms more.
    screened = _count_rows(monkeypatch, "_screen")
    exact = _count_rows(monkeypatch, "operator_norms")
    profile = envelope_profile(diag_family, diag_comb, horizon)
    assert sum(profile.counts[1:]) == products
    assert sum(screened) <= multiplied
    assert sum(exact) <= normed


def test_envelope_profile_holds_one_bounded_batch_at_a_time(diag_family, diag_comb, monkeypatch):
    # Memory is bounded by the slice, not by the level: no batch is larger
    # than a slice times the largest out-degree, though the levels are.
    monkeypatch.setattr(swstab.oracle, "SLICE", 7)
    rows = _count_rows(monkeypatch, "_screen")
    profile = envelope_profile(diag_family, diag_comb, horizon=16)
    _, succ = swstab.oracle._unit_step_graph(diag_family, diag_comb)
    degree = max(map(len, succ[1:]))  # below the root, which makes only the first batch
    assert max(rows) <= 7 * degree < max(profile.counts)


def test_one_svd_per_flush(diag_family, diag_comb, monkeypatch):
    # Every level to 16 steps fits in one slice, so the scan never steps
    # back to a shallower duration: its survivors wait for the one flush at
    # the end.  With slices of 7, each step back flushes, and a flush holds
    # at most one batch's survivors per duration.
    normed = _count_rows(monkeypatch, "operator_norms")
    profile = envelope_profile(diag_family, diag_comb, horizon=16)
    assert max(profile.counts) <= swstab.oracle.SLICE
    assert len(normed) == 1
    monkeypatch.setattr(swstab.oracle, "SLICE", 7)
    normed.clear()
    envelope_profile(diag_family, diag_comb, horizon=16)
    _, succ = swstab.oracle._unit_step_graph(diag_family, diag_comb)
    degree = max(map(len, succ[1:]))  # below the root, which makes only the first batch
    assert len(normed) > 1
    assert max(normed) <= 16 * 7 * degree


def _screen(prods, peak):
    """The scan's screen, given the batch's Frobenius norms as the scan
    takes them."""
    return swstab.oracle._screen(prods, peak, np.sqrt(np.einsum("kij,kij->k", prods, prods)))


def _two_comparison_screen(prods, peak):
    """A frozen copy of the screen as two comparisons, hi > peak and hi >=
    the batch's largest lower bound."""
    f = np.sqrt(np.einsum("kij,kij->k", prods, prods))
    top = f.max()
    if not swstab.oracle.SCREEN_TINY <= top < np.inf:
        return prods.any(axis=(1, 2))
    hi = f * (1.0 + swstab.oracle.SCREEN_MARGIN)
    return (hi > peak) & (hi >= top * ((1.0 - swstab.oracle.SCREEN_MARGIN) / math.sqrt(prods.shape[1])))


def test_screen_as_one_comparison_equals_two():
    # Batches with exact ties (repeated products, and products that differ
    # only in sign), against peaks of 0, at each product's hi, and one ulp
    # either side of it.
    rng = np.random.default_rng(7)
    margin = swstab.oracle.SCREEN_MARGIN
    checked = 0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        base = rng.normal(size=(int(rng.integers(1, 12)), d, d)) * 10.0 ** rng.integers(-3, 4)
        prods = np.concatenate([base, base[rng.integers(0, len(base), 5)], -base[:2]])
        hi = np.sqrt(np.einsum("kij,kij->k", prods, prods)) * (1.0 + margin)
        peaks = [0.0] + [float(x) for h in hi for x in (np.nextafter(h, 0.0), h, np.nextafter(h, np.inf))]
        for peak in peaks:
            got = _screen(prods, peak)
            assert got.tolist() == _two_comparison_screen(prods, peak).tolist()
            checked += got.sum()
    assert checked > 0


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
        assert _screen(p[None], np.nextafter(norm, 0.0))[0], p
    # The first product's squares overflow, so its Frobenius norm bounds
    # nothing; the second's largest norm must not be held against it.
    batch = np.stack([np.diag([1.2e154, 1.2e154]), np.diag([1.3e154, 0.0])])
    assert _screen(batch, 0.0).tolist() == [True, True]


def test_screen_drops_products_that_cannot_raise_or_tie():
    # A zero product can at most tie a peak of 0.
    assert _screen(np.zeros((3, 2, 2)), 0.0).tolist() == [False] * 3
    # ||I||_F = sqrt(2) is below ||diag(4, 0)|| / sqrt(2): I cannot tie it.
    batch = np.stack([np.eye(2), np.diag([4.0, 0.0]), np.diag([0.0, 4.0])])
    assert _screen(batch, 0.0).tolist() == [False, True, True]
    assert _screen(batch, 5.0).tolist() == [False, False, False]
    # A non-finite entry anywhere in the batch is refused, never screened.
    for bad in (np.nan, np.inf):
        batch[0, 0, 0] = bad
        with pytest.raises(NonFiniteMatrixError):
            _screen(batch, 5.0)


def test_screen_holds_only_the_batch_top_to_the_normal_range():
    # diag(1e-160, 0) has squares that underflow, so its Frobenius norm is
    # 0; its norm 1e-160 cannot tie the batch's largest norm 1, so it is
    # dropped by the batch's scale.
    assert _screen(np.stack([np.diag([1.0, 0.0]), np.diag([1e-160, 0.0])]), 0.0).tolist() == [True, False]
    # With no norm in the normal range, every nonzero product goes to the SVD.
    batch = np.stack([np.diag([1e-160, 0.0]), np.zeros((2, 2)), np.diag([0.0, 3e-170])])
    assert _screen(batch, 0.0).tolist() == [True, False, True]


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


def test_capped_envelope_refuses_a_horizon_below_the_basis(diag_family, diag_comb):
    with pytest.raises(ValueError, match="below the basis length 4"):
        capped_envelope(diag_family, diag_comb, 0.1, 2)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda fam, comb: check_certificate(fam, comb, rate=math.nan),
        lambda fam, comb: envelope_constant(fam, comb, rate=math.nan),
        lambda fam, comb: envelope_constant_bound(fam, comb, rate=math.nan),
        lambda fam, comb: envelope_profile(fam, comb, 4).bound_check(math.nan),
        lambda fam, comb: envelope_profile(fam, comb, 4).bound_check(0.3, c=math.nan),
        lambda fam, comb: verify_ges([1.0, 0.5], c=math.nan, rate=0.3),
        lambda fam, comb: verify_ges([1.0, 0.5], c=2.0, rate=math.nan),
        lambda fam, comb: verify_ges([1, 5, 9], c=math.inf, rate=0.1),
    ],
    ids=["certificate", "constant", "constant-bound", "bound-check-rate", "bound-check-c",
         "ges-c", "ges-rate", "ges-c-inf"],
)
def test_nan_rates_and_constants_are_refused(diag_family, diag_comb, call):
    with pytest.raises(ValueError):
        call(diag_family, diag_comb)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda profile: profile.bound_check(0.3, horizon=5), r"horizon 5 outside the profile's 0\.\.4"),
        (lambda profile: profile.bound_check(0.3, horizon=-1), r"horizon -1 outside the profile's 0\.\.4"),
        (lambda profile: profile.sound_rate(), "profile horizon 4 < 5"),
    ],
    ids=["bound-check-past-horizon", "bound-check-negative", "sound-rate-short"],
)
def test_profile_readings_refuse_what_the_profile_does_not_cover(diag_family, diag_comb, call, match):
    with pytest.raises(ValueError, match=match):
        call(envelope_profile(diag_family, diag_comb, 4))


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
    assert dec.term_count == 2 * 1 * 2 // 2
    assert np.allclose(dec.main_term + dec.correction, dec.total)


def test_decomposition_noncommuting_family(shear_family, shear_comb):
    count_bound, norm_bound = correction_bounds(compute_constants(shear_family, shear_comb))
    assert count_bound == 12  # N * m * (m + 1) / 2 with N = 2, m = 3
    # Each of the m earliest blocks leaves one term per plain step before
    # it: sum over k of (p_k - k), p_k the position of the (k+1)-th block.
    # The canonical segment (1..N, hub)^m reaches the bound.
    for segment, count in (
        ([3, 3, 3, 1, 2, 1, 2, 1, 2], 0),  # adjacent blocks
        ([1, 3, 2, 3, 1, 3, 2, 1, 2], 1 + 2 + 3),
        ([1, 2, 3] * 3, count_bound),
    ):
        dec = decompose_product(shear_family, shear_comb, segment)
        assert dec.residual <= 1e-10 * max(1.0, operator_norm(dec.total))
        assert dec.term_count == count
        assert operator_norm(dec.correction) <= norm_bound + 1e-9
        assert np.allclose(dec.main_term + dec.correction, dec.total, atol=1e-10)


def test_correction_bounds_past_double_range():
    # The bound's logarithm, ln 3 + 2 ln 1e160 ~ 737.9, passes 709, so the
    # bound is inf; it is 0 whenever the commutators vanish (not 0 * inf = nan).
    inputs = CertificateInputs(
        n_subsystems=3, max_subsystem_norm=1e160, combination_norm=2.0,
        max_commutator_norm=1.0, contraction_power=1, contraction_norm=0.5,
        block_duration=2,
    )
    assert correction_bounds(inputs) == (3, math.inf)
    assert correction_bounds(dataclasses.replace(inputs, max_commutator_norm=0.0)) == (3, 0.0)


def test_correction_bound_stays_finite_where_a_power_overflows():
    # 1e160 ** 2 leaves double range, but the bound 3 * 1e160**2 * 1e-100
    # = 3e220 does not: it is the certificate's second term at rate 0,
    # taken in log space.
    inputs = CertificateInputs(
        n_subsystems=3, max_subsystem_norm=1e160, combination_norm=2.0,
        max_commutator_norm=1e-100, contraction_power=1, contraction_norm=0.5,
        block_duration=2,
    )
    count, norm = correction_bounds(inputs)
    assert count == 3
    assert norm == pytest.approx(3.0e220, rel=1e-12)


def test_decomposition_validates_segment(shear_family, shear_comb):
    with pytest.raises(ValueError, match="duration"):
        decompose_product(shear_family, shear_comb, [3, 3, 3])
    with pytest.raises(ValueError, match="blocks"):
        decompose_product(
            shear_family, shear_comb, [3, 3] + [1, 2] * 4
        )  # duration 12 but only 2 blocks
    with pytest.raises(ValueError, match="vertex"):
        decompose_product(shear_family, shear_comb, [7] * 12)
