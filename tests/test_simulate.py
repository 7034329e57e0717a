import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    build_graph,
    fit_decay,
    product_norms,
    simulate,
    trial_x0,
    verify_ges,
    walk_to_signal,
)
from swstab.graph import SwitchingSignal
from swstab.simulate import _LOG_FLOOR, DecayFit


def _signal(diag_comb, walk):
    return walk_to_signal(build_graph(2), walk, diag_comb)


def test_simulate_matches_manual_recursion(diag_family, diag_comb):
    sig = _signal(diag_comb, [1, 3, 2, 3, 1])
    x0 = np.array([1.0, -2.0])
    traj = simulate(diag_family, sig, x0, sig.duration)
    x = x0.copy()
    for t in range(sig.duration):
        x = diag_family.matrix(sig.steps[t]) @ x
        assert np.array_equal(traj.states[t + 1], x)
    assert traj.horizon == sig.duration
    assert traj.norms[0] == pytest.approx(np.linalg.norm(x0))


def test_simulate_rejects_bad_horizon(diag_family, diag_comb):
    sig = _signal(diag_comb, [1, 3])
    with pytest.raises(ValueError):
        simulate(diag_family, sig, [1.0, 1.0], sig.duration + 1)
    with pytest.raises(ValueError):
        simulate(diag_family, sig, [1.0, 1.0], -1)


@pytest.mark.parametrize("steps, bad", [((1, 0, 2), 0), ((1, 2, 3), 3)], ids=["index-0", "index-past-n"])
def test_simulate_refuses_a_subsystem_index_outside_the_family(diag_family, steps, bad):
    with pytest.raises(ValueError, match=f"subsystem index {bad} outside 1..2"):
        simulate(diag_family, SwitchingSignal(steps), [1.0, 1.0], len(steps))


def test_product_norms_start_at_one_and_bound_states(diag_family, diag_comb):
    sig = _signal(diag_comb, [1, 3, 2, 3, 1, 3])
    norms = product_norms(diag_family, sig, sig.duration)
    assert norms[0] == 1.0
    x0 = np.array([0.3, 0.7])
    traj = simulate(diag_family, sig, x0, sig.duration)
    # the product norm dominates every trajectory from the unit ball
    assert np.all(traj.norms <= norms * np.linalg.norm(x0) + 1e-12)


def test_verify_ges_detects_violation():
    good = [1.0, 0.5, 0.25, 0.125]
    check = verify_ges(good, c=1.0, rate=math.log(2.0))
    assert check.holds
    bad = [1.0, 0.5, 0.6, 0.125]
    check = verify_ges(bad, c=1.0, rate=math.log(2.0))
    assert not check.holds
    assert check.worst_t == 2
    assert check.worst_margin == pytest.approx(0.25 - 0.6, abs=1e-12)


def test_verify_ges_validates_inputs():
    with pytest.raises(ValueError):
        verify_ges([1.0, 0.5], c=0.0, rate=0.1)
    with pytest.raises(ValueError):
        verify_ges([1.0], c=1.0, rate=0.1)


def test_fit_decay_recovers_exact_exponential():
    rate, amp = 0.25, 3.0
    norms = amp * np.exp(-rate * np.arange(50))
    fit = fit_decay(norms)
    assert fit.rate == pytest.approx(rate, abs=1e-10)
    assert fit.amplitude == pytest.approx(amp, rel=1e-10)


def test_fit_decay_drops_underflowed_entries():
    norms = np.array([1.0, 0.5, 0.0, 0.25])
    fit = fit_decay(norms)
    assert math.isfinite(fit.rate)
    with pytest.raises(ValueError):
        fit_decay([1.0, 0.0, 0.0])


def _polyfit_decay(norms):
    """`fit_decay` as it was with `np.polyfit`, frozen as the reference
    for its line fit."""
    norms = np.asarray(norms, dtype=float)
    t = np.arange(norms.size)
    keep = norms > _LOG_FLOOR
    if int(np.count_nonzero(keep)) < 2:
        raise ValueError("need at least two positive norms to fit a decay rate")
    slope, intercept = np.polyfit(t[keep], np.log(norms[keep]), 1)
    return DecayFit(amplitude=math.exp(intercept), rate=-float(slope))


def _fit_outcome(fit, norms):
    """The fit's bits, or the error's type and message."""
    try:
        got = fit(norms)
    except ValueError as exc:
        return ValueError, str(exc)
    return np.array([got.amplitude, got.rate]).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 500),
    st.floats(-1.0, 1.0),  # decay rate: norms grow where it is negative
    st.floats(-7.0, 7.0),  # log amplitude
    st.floats(0.0, 1.0),  # noise on the log norms
    st.floats(0.0, 1.0),  # share of entries at 0 or below the floor
    st.integers(0, 2**32 - 1),
)
def test_fit_decay_equals_the_polyfit_fit(n, rate, log_amp, noise, dropped, seed):
    rng = np.random.default_rng(seed)
    norms = np.exp(log_amp - rate * np.arange(n) + noise * rng.standard_normal(n))
    drop = rng.random(n) < dropped
    norms[drop] = rng.choice([0.0, 5e-324, 1e-310, _LOG_FLOOR], size=int(drop.sum()))
    assert _fit_outcome(fit_decay, norms) == _fit_outcome(_polyfit_decay, norms)


@pytest.mark.parametrize(
    "norms",
    [
        [],
        [1.0],
        [1.0, 0.0, 0.0],
        [0.0, _LOG_FLOOR, 2.0],
        [1.0, 0.5],
        [1e300, 1e-299, 1.0],
        [1.0, math.inf, 0.5],
        [1.0, math.nan, 0.5, 0.25],
    ],
)
def test_fit_decay_equals_the_polyfit_fit_at_the_edges(norms):
    assert _fit_outcome(fit_decay, norms) == _fit_outcome(_polyfit_decay, norms)


def test_periodic_stable_walk_decays(diag_family, diag_comb):
    # hub-only schedule contracts by rho per block
    sig = SwitchingSignal(diag_comb.steps * 30)
    traj = simulate(diag_family, sig, [1.0, 1.0], 60)
    fit = fit_decay(traj.norms)
    assert fit.rate == pytest.approx(-math.log(0.48) / 2.0, abs=1e-6)


def test_trial_x0_golden():
    # the initial states of trials 0 and 1 of `swstab experiment --seed 7`
    assert trial_x0(7, 0, 2).tolist() == [0.5402819020069483, -0.7761455113646314]
    assert trial_x0(7, 1, 2).tolist() == [-0.444059435612838, -0.10969375206490195]
