"""The in-place step kernel against the frozen `a @ x` and `a @ P` loops.

`simulate` and `product_norms` write each step's product straight into
its row of a preallocated array (`swstab.simulate._step`).  The loops
below are the ones that kernel replaced: a fresh `a @ x` (or `a @ P`)
per step, copied into the row.  States, norms and products must be the
same, bit for bit, also where the states leave double range (inf/nan)
and where a product underflows to a signed zero.
"""

import numpy as np
import pytest

from swstab import MatrixFamily, product_norms, simulate
from swstab.graph import SwitchingSignal
from swstab.linalg import NonFiniteMatrixError, operator_norms
from swstab.simulate import _step

pytestmark = pytest.mark.filterwarnings("error")

HORIZON = 200

# diag(1e160, 1e-170) twice leaves double range, both ways
OVERFLOWING = MatrixFamily(
    (np.diag([1e160, 1e-170]), np.diag([1e160, 1e-170]), np.diag([1e-170, 1e160]))
)


def reference_states(family, signal, x0, horizon):
    states = np.empty((horizon + 1, family.dim))
    states[0] = x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            x = states[t + 1] = family.matrix(signal.steps[t]) @ x
        norms = np.linalg.norm(states, axis=1)
    return states, norms


def reference_products(family, signal, horizon):
    stack = np.empty((horizon + 1, family.dim, family.dim))
    stack[0] = p = np.eye(family.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            p = stack[t + 1] = family.matrix(signal.steps[t]) @ p
    return stack


def random_signal(family, seed, duration=HORIZON):
    rng = np.random.default_rng(seed)
    return SwitchingSignal(tuple(int(s) for s in rng.integers(1, family.size + 1, duration)))


def assert_same_trajectory(family, signal, x0, horizon):
    traj = simulate(family, signal, x0, horizon)
    states, norms = reference_states(family, signal, x0, horizon)
    assert traj.states.shape == states.shape and traj.norms.shape == norms.shape
    assert traj.states.tobytes() == states.tobytes()
    assert traj.norms.tobytes() == norms.tobytes()
    return traj


@pytest.mark.parametrize("horizon", [0, 1, HORIZON])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 10])
def test_in_place_steps_equal_the_matmul_loop(dim, horizon):
    rng = np.random.default_rng(7 * dim + horizon)
    family = MatrixFamily(tuple(rng.uniform(-1.1, 1.1, size=(3, dim, dim))))
    # the kernel reads the family's matrices as they are: read-only views
    assert not family.stack.flags.writeable
    assert not any(a.flags.writeable for a in family.subsystems)
    signal = random_signal(family, dim)
    x0 = rng.uniform(-1.0, 1.0, size=dim)
    assert_same_trajectory(family, signal, x0, horizon)
    want = operator_norms(reference_products(family, signal, horizon))
    assert product_norms(family, signal, horizon).tobytes() == want.tobytes()


def test_a_negative_zero_keeps_the_bits_of_matmul():
    # At d = 1 the second step underflows; `a @ x` sums it to +0.0 where a
    # scalar product would keep -0.0.
    family = MatrixFamily(([[-1e-150]], [[1e-200]]))
    signal = SwitchingSignal((1, 2, 1))
    traj = assert_same_trajectory(family, signal, [1.0], 3)
    assert traj.states[2:, 0].tolist() == [0.0, 0.0]
    assert not np.signbit(traj.states[2:, 0]).any()
    got = np.empty((4, 1, 1))
    got[0] = 1.0
    _step([family.matrix(ell) for ell in signal.steps], got)
    assert got.tobytes() == reference_products(family, signal, 3).tobytes()


@pytest.mark.parametrize("steps", [(1, 1, 3, 2), (3, 3, 1, 2, 1, 1), (1, 2, 3) * 40])
def test_states_past_double_range_equal_the_matmul_loop(steps):
    signal = SwitchingSignal(steps)
    traj = assert_same_trajectory(OVERFLOWING, signal, [0.5, -2.0], len(steps))
    assert not np.isfinite(traj.states).all()
    got = np.empty((len(steps) + 1, 2, 2))
    got[0] = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        _step([OVERFLOWING.matrix(ell) for ell in steps], got)
    want = reference_products(OVERFLOWING, signal, len(steps))
    assert not np.isfinite(want).all()
    assert got.tobytes() == want.tobytes()


def test_product_norms_past_double_range_raise_without_a_warning():
    # under filterwarnings("error") an overflow warning in the steps fails
    signal = SwitchingSignal((1, 1, 3))
    with pytest.raises(NonFiniteMatrixError):
        product_norms(OVERFLOWING, signal, 3)


def test_simulate_refuses_a_non_finite_initial_state(diag_family, diag_comb):
    signal = SwitchingSignal(diag_comb.steps * 2)
    for x0 in ([np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(NonFiniteMatrixError, match="entries must be finite"):
            simulate(diag_family, signal, x0, 3)
    assert issubclass(NonFiniteMatrixError, ValueError)
