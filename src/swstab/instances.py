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
import sys

import numpy as np

from .family import MatrixFamily
from .linalg import batch_rows, schur_stable

MAX_RESAMPLES = 10_000


class InstanceParseError(ValueError):
    """Malformed instance file; the message carries the offending position."""


def parse_instance(path) -> MatrixFamily:
    """Load and validate an instance file (JSON, so UTF-8)."""
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
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
                if not abs(value) <= sys.float_info.max:  # exact for ints of any size
                    raise InstanceParseError(
                        f"{path}: matrix {k}, row {r}, entry {c}: non-finite or past double range"
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
    this problem.  Fully deterministic per seed (numpy PCG64).  The draws
    are taken eight families' worth at a time (at most `batch_rows(dim)`
    matrices), classified with one `schur_stable` call, and the accepted ones
    consumed in order, so the family is the one that one draw per matrix
    gives from the same stream; the draws left over when the family is
    complete are unused.  MAX_RESAMPLES rejections in a row, counted
    across chunks, raise RuntimeError at the draw where one draw per
    matrix would.
    """
    if n_subsystems < 2 or dim < 1:
        raise ValueError("need at least two subsystems and dim >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    size = min(8 * n_subsystems, batch_rows(dim))
    mats = []
    rejected = 0  # draws rejected in a row since the last accepted one
    while True:
        chunk = rng.uniform(-1.0, 1.0, size=(size, dim, dim))
        last = -1  # position of the chunk's last accepted draw
        for i in (~schur_stable(chunk)).nonzero()[0].tolist():
            rejected += i - last - 1
            if rejected >= MAX_RESAMPLES:
                break
            mats.append(chunk[i])
            if len(mats) == n_subsystems:
                return MatrixFamily(tuple(mats))
            rejected, last = 0, i
        else:
            rejected += size - last - 1
        if rejected >= MAX_RESAMPLES:
            raise RuntimeError(
                f"no unstable matrix found in {MAX_RESAMPLES} draws (dim={dim})"
            )
