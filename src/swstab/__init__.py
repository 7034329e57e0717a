"""Stabilizability certificates and switching-signal synthesis for
discrete-time switched linear systems whose subsystems are all unstable.

The pipeline: find a Schur-stable two-subsystem product, measure the
scalar constants of the stability certificate, schedule switching as a
walk on a chain-plus-hub graph, and validate the result both empirically
(trajectories, product norms) and structurally (product decomposition and
exhaustive envelope checks).
"""

__version__ = "0.1.0"

from . import certificate, family, graph, instances, search, simulate
from .linalg import SCHUR_MARGIN, NonFiniteMatrixError, is_schur_stable, operator_norm, spectral_radius


def _defined(module):
    """The public classes and functions `module` defines (not constants, not imports)."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    }


# Each module exports what it defines, so no name is listed here.  The
# envelope oracle loads on first use of one of its names (PEP 562): only
# `swstab verify` and `swstab experiment` on a feasible certificate run
# it, and it is the largest module.  The other modules stay eager:
# `simulate` names both a module and the function exported here, and
# importing the module after a lazy lookup would rebind the name to it.
# Trade-offs: static analysers do not see the re-exported names (the
# oracle's are lazy in any case), and an unknown public name such as
# `swstab.no_such_name` imports the oracle before it raises.
for _module in (certificate, family, graph, instances, search, simulate):
    globals().update(_defined(_module))
del _module
_EAGER = [name for name in globals() if not name.startswith("_")]  # not `swstab.cli`, imported later


def __getattr__(name):
    """The oracle module, one of its exports, or `__all__`, on first use."""
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    oracle = import_module(".oracle", __name__)
    lazy = {"oracle": oracle, **_defined(oracle)}
    lazy["__all__"] = sorted({*_EAGER, *lazy})
    if name not in lazy:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = lazy[name]  # later lookups find it without this hook
    return lazy[name]
