"""The switched system's data: a family of square subsystem matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _finite


@dataclass(frozen=True)
class MatrixFamily:
    """An ordered family of N >= 2 square matrices sharing one dimension.

    Subsystem indices are 1-based everywhere in this package (index set
    {1, ..., N}); the underlying tuple is 0-based as usual.  Its matrices
    are read-only views of `stack`, one read-only (N, d, d) float64 array:
    the family's own copy of the matrices it was given, checked for
    finiteness in one call.  Stacked kernels take `stack` as it is.
    """

    subsystems: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = [np.asarray(a, dtype=float) for a in self.subsystems]
        for k, a in enumerate(mats, start=1):
            if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
                raise ValueError(f"expected a square matrix, got shape {a.shape}")
            if a.shape[0] != mats[0].shape[0]:
                raise ValueError(f"subsystem {k} has dim {a.shape[0]}, expected {mats[0].shape[0]}")
        if len(mats) < 2:
            raise ValueError("a family needs at least two subsystems")
        stack = _finite(np.array(mats))
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "subsystems", tuple(stack))

    @property
    def dim(self) -> int:
        return self.subsystems[0].shape[0]

    @property
    def size(self) -> int:
        """Number of subsystems N."""
        return len(self.subsystems)

    def matrix(self, index: int) -> np.ndarray:
        """Subsystem matrix for a 1-based index."""
        if not 1 <= index <= self.size:
            raise ValueError(f"subsystem index {index} outside 1..{self.size}")
        return self.subsystems[index - 1]
