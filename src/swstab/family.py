"""The switched system's data: a family of square subsystem matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


@dataclass(frozen=True)
class MatrixFamily:
    """An ordered family of N >= 2 square matrices sharing one dimension.

    Subsystem indices are 1-based everywhere in this package (index set
    {1, ..., N}); the underlying tuple is 0-based as usual.
    """

    subsystems: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(a) for a in self.subsystems)
        if len(mats) < 2:
            raise ValueError("a family needs at least two subsystems")
        dim = mats[0].shape[0]
        for k, a in enumerate(mats, start=1):
            if a.shape[0] != dim:
                raise ValueError(
                    f"subsystem {k} has dim {a.shape[0]}, expected {dim}"
                )
            a.setflags(write=False)
        object.__setattr__(self, "subsystems", mats)

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
