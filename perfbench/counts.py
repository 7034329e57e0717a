"""Work counts computed from the inputs alone, not from swstab's code.

They define the denominators of the per-layer rates, so that a later
change to an algorithm (pruning, batching, a different scan) shows up as
a change in work done per unit, never as a shift of the unit itself.
"""

from __future__ import annotations

P_MAX = Q_MAX = 10  # find_stable_combination's default exponent grid


def exponent_pairs(p_max: int = P_MAX, q_max: int = Q_MAX):
    """The documented scan order: total exponent p+q ascending, then p."""
    for total in range(2, p_max + q_max + 1):
        for p in range(max(1, total - q_max), min(p_max, total - 1) + 1):
            yield p, total - p


def grid_size(n: int, p_max: int = P_MAX, q_max: int = Q_MAX) -> int:
    """Candidates in the full search grid: every (p, q) times every i != j."""
    return p_max * q_max * n * (n - 1)


def candidates_scanned(n: int, comb) -> int:
    """1-based position of the accepted candidate in the scan, or the grid.

    Candidates run over (p, q) in ``exponent_pairs`` order, then ordered
    pairs (i, j), i != j, lexicographically; ``comb`` is A_i^p A_j^q with
    head=i, tail=j, head_power=p, tail_power=q, or None on a miss.
    """
    if comb is None:
        return grid_size(n)
    pairs = n * (n - 1)
    before = 0
    for p, q in exponent_pairs():
        if (p, q) == (comb.head_power, comb.tail_power):
            break
        before += pairs
    else:
        raise ValueError("combination exponents outside the search grid")
    i, j = comb.head, comb.tail
    within = (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)
    return before + within + 1


def admissible_products(n: int, block: int, horizon: int) -> int:
    """Number of admissible products of length 1..horizon.

    Counted by dynamic programming over the time-expanded switch graph:
    plain vertices 1..n emit one step each, and the hub is split into
    ``block`` unit-step vertices (the combination's tail steps, then its
    head steps).  Edges: l -> l+1, l -> hub_1, hub_k -> hub_{k+1},
    hub_block -> l; a product may start at any plain vertex or at hub_1
    and may stop after any step, including partway through a block.
    """
    plain = [1] * n
    hub = [0] * block
    hub[0] = 1
    total = 0
    for _ in range(horizon):
        total += sum(plain) + sum(hub)
        into_hub = sum(plain)
        leave_hub = hub[-1]
        plain = [leave_hub + (plain[k - 1] if k else 0) for k in range(n)]
        hub = [into_hub] + hub[:-1]
    return total


def horizons_for_budget(n: int, block: int, start: int, budget: int) -> list[int]:
    """Horizons >= start, longest first, whose product counts fill ``budget``.

    Greedy: repeatedly take the longest horizon whose count still fits
    what is left.  The counts grow geometrically with the horizon, so the
    total lands within one count(start) of the budget and every instance
    gets about the same number of products whatever its size.
    """
    out = []
    left = budget
    while admissible_products(n, block, start) <= left:
        h = start
        while admissible_products(n, block, h + 1) <= left:
            h += 1
        out.append(h)
        left -= admissible_products(n, block, h)
    return out


def reach_horizon(n: int, block: int, us_per_product: float, budget_s: float) -> int:
    """Largest horizon whose admissible count times the unit cost fits."""
    h = 0
    while admissible_products(n, block, h + 1) * us_per_product <= budget_s * 1e6:
        h += 1
    return h
