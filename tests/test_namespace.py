"""The package namespace: what `swstab` exports, and that each export is
the object its defining module holds, whether the name loaded with the
package or on first use (the envelope oracle's names)."""

import subprocess
import sys
from types import ModuleType

import pytest

import swstab

EXPORTS = [
    "AssumptionError", "BoundCheck", "Certificate", "CertificateInputs", "ContractionError",
    "DecayFit", "EnumerationCapExceeded", "EnvelopeProfile", "GesCheck", "InstanceParseError",
    "MatrixFamily", "NonFiniteMatrixError", "ProductDecomposition", "SCHUR_MARGIN",
    "StableCombination", "SwitchGraph", "SwitchingSignal", "Trajectory", "WalkGenerator",
    "assert_all_unstable", "basis_length", "build_graph", "capped_envelope", "certificate",
    "check_certificate", "compute_constants", "compute_contraction", "correction_bounds",
    "decompose_product", "envelope_constant", "envelope_constant_bound", "envelope_profile",
    "exchange_identity_residual", "exhaustive_bound_check", "family", "find_stable_combination",
    "fit_decay", "generate_random_instance", "generate_walk", "graph", "instances",
    "is_schur_stable", "linalg", "max_certified_rate", "max_stable_gap", "operator_norm",
    "oracle", "parse_instance", "product_norms", "rate_upper_limit", "search", "seeded_trials",
    "simulate", "sound_certified_rate", "spectral_radius", "trial_x0", "validate_walk",
    "verify_ges", "walk_for_horizon", "walk_to_signal", "write_instance",
]


def test_exports_are_unchanged():
    assert len(EXPORTS) == 61
    assert sorted(swstab.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_defining_modules_object(name):
    value = getattr(swstab, name)
    if isinstance(value, ModuleType):
        assert value is sys.modules[f"swstab.{name}"]
    elif callable(value):
        assert value.__module__.startswith("swstab.")
        assert getattr(sys.modules[value.__module__], name) is value
    else:
        assert value is swstab.linalg.SCHUR_MARGIN


def test_an_oracle_name_is_stored_on_first_use(monkeypatch):
    monkeypatch.delitem(vars(swstab), "envelope_profile", raising=False)
    assert swstab.envelope_profile is swstab.oracle.envelope_profile
    assert vars(swstab)["envelope_profile"] is swstab.oracle.envelope_profile


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swstab.no_such_name
    assert not hasattr(swstab, "no_such_name")


def test_submodule_imports_keep_the_exported_names(child_env):
    code = (
        "import sys\n"
        "import swstab\n"
        "lazy = 'swstab.oracle' not in sys.modules\n"
        "import swstab.simulate\n"
        "import swstab.oracle\n"
        "print(lazy, swstab.simulate is sys.modules['swstab.simulate'].simulate,\n"
        "      swstab.envelope_profile is swstab.oracle.envelope_profile)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "True True True\n"


def test_star_import_binds_every_export(child_env):
    code = "from swstab import *\nprint(*sorted(name for name in dir() if not name.startswith('_')))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout.split() == EXPORTS


def test_private_lookups_leave_the_oracle_unloaded(child_env):
    code = (
        "import sys\n"
        "import swstab\n"
        "print(hasattr(swstab, '_x'), getattr(swstab, '__wrapped__', None), 'swstab.oracle' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "False None False\n"
