"""Stabilizability certificates and switching-signal synthesis for
discrete-time switched linear systems whose subsystems are all unstable.

The pipeline: find a Schur-stable two-subsystem product, measure the
scalar constants of the stability certificate, schedule switching as a
walk on a chain-plus-hub graph, and validate the result both empirically
(trajectories, product norms) and structurally (product decomposition and
exhaustive envelope checks).
"""

__version__ = "0.1.0"

from .certificate import (
    AssumptionError,
    Certificate,
    CertificateInputs,
    check_certificate,
    compute_constants,
    max_certified_rate,
    rate_upper_limit,
)
from .family import MatrixFamily
from .graph import (
    SwitchGraph,
    SwitchingSignal,
    WalkGenerator,
    build_graph,
    generate_walk,
    max_stable_gap,
    validate_walk,
    walk_for_horizon,
    walk_to_signal,
)
from .instances import (
    InstanceParseError,
    generate_random_instance,
    parse_instance,
    write_instance,
)
from .linalg import (
    SCHUR_MARGIN,
    NonFiniteMatrixError,
    commutator,
    is_schur_stable,
    mat_power,
    operator_norm,
    spectral_radius,
)
from .oracle import (
    BoundCheck,
    EnumerationCapExceeded,
    EnvelopeProfile,
    ProductDecomposition,
    basis_length,
    capped_envelope,
    correction_bounds,
    decompose_product,
    envelope_constant,
    envelope_constant_bound,
    envelope_profile,
    exchange_identity_residual,
    exhaustive_bound_check,
    sound_certified_rate,
)
from .search import (
    ContractionError,
    StableCombination,
    assert_all_unstable,
    compute_contraction,
    find_stable_combination,
)
from .simulate import (
    DecayFit,
    GesCheck,
    Trajectory,
    fit_decay,
    product_norms,
    seeded_trials,
    simulate,
    trial_x0,
    verify_ges,
)

__all__ = [name for name in dir() if not name.startswith("_")]
