"""Instance files and seeded random instance generation.

An instance file is plain JSON with an explicit dimension and nested
row-major arrays, so fixtures stay diffable and any language can emit
them:

    {
      "dim": 2,
      "matrices": [[[1.2, 0.0], [0.0, 0.4]], [[0.4, 0.0], [0.0, 1.2]]],
      "name": "diagonal-pair",
      "seed": null
    }
"""

from __future__ import annotations

import json
import math

import numpy as np

from .family import MatrixFamily
from .linalg import is_schur_stable

MAX_RESAMPLES = 10_000


class InstanceParseError(ValueError):
    """Malformed instance file; the message carries the offending position."""


def parse_instance(path) -> MatrixFamily:
    """Load and validate an instance file."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise InstanceParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "matrices" not in data:
        raise InstanceParseError(f"{path}: expected keys 'dim' and 'matrices'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InstanceParseError(f"{path}: 'dim' must be a positive integer")
    raw = data["matrices"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise InstanceParseError(f"{path}: need a list of at least two matrices")
    mats = []
    for k, rows in enumerate(raw, start=1):
        if not isinstance(rows, list) or len(rows) != dim:
            raise InstanceParseError(f"{path}: matrix {k}: expected {dim} rows")
        for r, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != dim:
                raise InstanceParseError(
                    f"{path}: matrix {k}, row {r}: expected {dim} entries"
                )
            for c, value in enumerate(row, start=1):
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise InstanceParseError(
                        f"{path}: matrix {k}, row {r}, entry {c}: not a number"
                    )
                if not math.isfinite(value):
                    raise InstanceParseError(
                        f"{path}: matrix {k}, row {r}, entry {c}: non-finite value"
                    )
        mats.append(np.array(rows, dtype=float))
    return MatrixFamily(tuple(mats))


def write_instance(path, family: MatrixFamily, name=None, seed=None) -> None:
    """Write an instance file that round-trips bit-for-bit through JSON."""
    data = {
        "dim": family.dim,
        "matrices": [a.tolist() for a in family.subsystems],
        "name": name,
        "seed": seed,
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def generate_random_instance(n_subsystems: int, dim: int, seed: int) -> MatrixFamily:
    """Family of matrices with entries uniform on [-1, 1], all unstable.

    Each matrix is resampled until its spectral radius reaches 1 (within
    the classification margin), matching the usual random ensemble for
    this problem.  Fully deterministic per seed (numpy PCG64).
    """
    if n_subsystems < 2 or dim < 1:
        raise ValueError("need at least two subsystems and dim >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = []
    for _ in range(n_subsystems):
        for _ in range(MAX_RESAMPLES):
            a = rng.uniform(-1.0, 1.0, size=(dim, dim))
            if not is_schur_stable(a):
                mats.append(a)
                break
        else:
            raise RuntimeError(
                f"no unstable matrix found in {MAX_RESAMPLES} draws (dim={dim})"
            )
    return MatrixFamily(tuple(mats))
