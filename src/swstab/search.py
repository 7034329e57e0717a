"""Search for a Schur-stable two-subsystem product and its contraction pair.

The scheduler needs one product A_head^hp @ A_tail^tp that is Schur stable
even though every individual subsystem is unstable, plus the smallest power
of that product whose operator norm drops below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .family import MatrixFamily
from .linalg import batch_rows, is_schur_stable, operator_norm, schur_stable


class ContractionError(RuntimeError):
    """No power of the candidate product contracted within the allowed cap."""


@dataclass(frozen=True)
class StableCombination:
    """A Schur-stable product of two unstable subsystems.

    product = A_head^head_power @ A_tail^tail_power.  When the combination
    is scheduled it runs `steps`: the tail subsystem first (tail_power
    steps) and the head subsystem second, so the accumulated product over
    those steps is exactly `product`.
    """

    head: int
    tail: int
    head_power: int
    tail_power: int
    product: np.ndarray
    contraction_power: int
    contraction_norm: float

    def __post_init__(self):
        if self.head == self.tail:
            raise ValueError("head and tail must be distinct subsystems")
        if min(self.head_power, self.tail_power, self.contraction_power) < 1:
            raise ValueError("powers must be positive integers")
        if not 0.0 < self.contraction_norm < 1.0:
            raise ValueError("contraction norm must lie in (0, 1)")
        p = np.asarray(self.product, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "product", p)

    @property
    def steps(self) -> tuple[int, ...]:
        """The subsystem run at each step of one scheduled combination block."""
        return (self.tail,) * self.tail_power + (self.head,) * self.head_power

    @property
    def block_duration(self) -> int:
        """Time steps one scheduled instance of the combination occupies."""
        return self.head_power + self.tail_power


def assert_all_unstable(family: MatrixFamily) -> list[int]:
    """Return the 1-based indices of subsystems that are Schur stable.

    An empty list means the all-unstable assumption holds.  Marginal
    matrices count as unstable (see `is_schur_stable`).
    """
    stable = schur_stable(family.stack).tolist()
    return [ell for ell, s in enumerate(stable, start=1) if s]


def compute_contraction(combo: np.ndarray, m_max: int = 512) -> tuple[int, float]:
    """Smallest power m in [1, m_max] with ||combo^m|| < 1, and that norm.

    Raises ValueError for a non-Schur-stable input and ContractionError if
    m_max is exhausted (possible for highly non-normal products; raise the
    cap in that case) or a power leaves the double range first.
    """
    if not is_schur_stable(combo):
        raise ValueError("precondition violated: matrix is not Schur stable")
    p = np.eye(combo.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, m_max + 1):
            p = combo @ p
            try:
                norm = operator_norm(p)
            except ValueError:  # refused: an entry past double range
                raise ContractionError(
                    f"power {m} leaves the double range before contracting"
                ) from None
            if norm < 1.0:
                return m, norm
    raise ContractionError(
        f"no power up to m_max={m_max} has operator norm below 1"
    )


def find_stable_combination(
    family: MatrixFamily,
    p_max: int = 10,
    q_max: int = 10,
    m_max: int = 512,
) -> StableCombination | None:
    """First Schur-stable product A_i^p A_j^q in a fixed deterministic order.

    Candidates are scanned by total exponent p+q ascending, then p
    ascending, then ordered pairs (i, j), i != j, lexicographically; the
    smallest total exponent loosens the downstream certificate the most.
    Pairs with i == j are skipped: powers of an unstable matrix have
    spectral radius >= 1 and are never Schur stable.  Stable hits whose
    power norms never contract within m_max (spectral radius barely under
    1) are skipped as unusable, and so are nilpotent hits whose first
    contracting power is exactly zero: the certificate takes the
    logarithm of its norm.  Candidates, and powers of candidates, that
    leave the double range are skipped as unusable too.

    The candidates are formed in scan order by stacked matmuls: the first
    stack holds one exponent pair's N(N-1) candidates, and each later
    stack twice as many as the one before, up to `batch_rows(d)`; a stack
    may end inside an exponent pair.  They come from a table of powers
    that grows only as far as the largest exponent of the current stack
    needs.  Each candidate is then classified by `is_schur_stable` on its
    own, in scan order.  The result is the one a candidate-by-candidate
    scan over cached powers gives, bit for bit.

    Returns None when the bounded grid is exhausted.
    """
    if p_max < 1 or q_max < 1:
        raise ValueError("exponent bounds must be at least 1")
    n, d = family.size, family.dim
    mats = family.stack
    # powers[k][l] = A_{l+1}^k by iterated left-multiplication from I:
    # powers[k] = mats @ powers[k - 1]; `table` stacks them, indexed [k, l]
    powers = [np.eye(d)[None].repeat(n, axis=0)]
    # A power or product past double range holds inf or nan entries, which
    # is_schur_stable and operator_norm refuse; such a candidate is skipped.
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q, i, j, top in _scan_stacks(n, p_max, q_max, batch_rows(d)):
            if len(powers) <= top:  # always so for the first stack
                while len(powers) <= top:
                    powers.append(np.matmul(mats, powers[-1]))
                table = np.stack(powers)
            candidates = np.matmul(table[p, i], table[q, j])
            for r, candidate in enumerate(candidates):
                try:
                    stable = is_schur_stable(candidate)
                except ValueError:
                    continue
                if not stable:
                    continue
                try:
                    m, rho = compute_contraction(candidate, m_max)
                except ContractionError:
                    # spectral radius barely under 1 (norms of its powers
                    # never drop below 1 within the cap) or powers past
                    # double range: an unusable hit, keep scanning
                    continue
                if rho == 0.0:
                    continue
                return StableCombination(
                    head=int(i[r]) + 1,
                    tail=int(j[r]) + 1,
                    head_power=int(p[r]),
                    tail_power=int(q[r]),
                    product=candidate.copy(),
                    contraction_power=m,
                    contraction_norm=rho,
                )
    return None


def _scan_stacks(n: int, p_max: int, q_max: int, rows: int):
    """The candidates of the scan as index arrays (p, q, i, j), i and j
    0-based, and their largest exponent, in stacks of min(N(N-1), rows)
    candidates and then twice the size of the stack before, up to `rows`.
    Exponent pairs are listed one total p+q at a time, as far as the next
    stack reaches, so a scan that stops early builds no index array the
    size of the grid."""
    heads, tails = np.nonzero(~np.eye(n, dtype=bool))  # i != j, lexicographic
    per_pair = heads.size
    totals = iter(range(2, p_max + q_max + 1))
    ps, qs = [], []  # the exponent pairs listed so far, in scan order
    start, size = 0, min(per_pair, rows)
    while True:
        while len(ps) * per_pair < start + size and (total := next(totals, None)):
            lo, hi = max(1, total - q_max), min(p_max, total - 1)
            ps.extend(range(lo, hi + 1))
            qs.extend(range(total - lo, total - hi - 1, -1))
        stop = min(start + size, len(ps) * per_pair)
        if stop == start:
            return
        k, r = np.divmod(np.arange(start, stop), per_pair)
        reached = slice(start // per_pair, -(-stop // per_pair))
        top = max(max(ps[reached]), max(qs[reached]))
        yield np.array(ps)[k], np.array(qs)[k], heads[r], tails[r], top
        start, size = stop, min(2 * size, rows)
