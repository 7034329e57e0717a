import os
from pathlib import Path

import numpy as np
import pytest

from swstab import MatrixFamily, find_stable_combination

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def diag_family():
    """Two unstable diagonal matrices whose product is a contraction."""
    return MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))


@pytest.fixture(scope="session")
def diag_comb(diag_family):
    comb = find_stable_combination(diag_family)
    assert comb is not None
    return comb


@pytest.fixture(scope="session")
def shear_family():
    """A non-commuting pair whose stable product needs several contraction powers."""
    return MatrixFamily(
        (
            np.array([[2.0, 0.0], [0.0, 0.5]]),
            np.array([[0.25, 0.5], [0.0, 1.0]]),
        )
    )


@pytest.fixture(scope="session")
def shear_comb(shear_family):
    comb = find_stable_combination(shear_family)
    assert comb is not None
    return comb
