"""Seeded instance factories shared by the CLI and the test suite.

Every family is deterministic in its parameters and seed.
"""

from __future__ import annotations

import random

from .errors import ContractViolation
from .extract import find_homogeneous_block
from .patterns import FiniteColoring, StableColoring
from .perms import Permutation, perm_to_pattern


def constant_coloring(n: int, color: int) -> FiniteColoring:
    return FiniteColoring.constant(n, color)


def split_order_coloring(n: int, top: set) -> StableColoring:
    """The order with the non-top elements ascending below a descending
    block of top elements, read as a coloring: every column is constant,
    every element settles immediately, and the limit of x records whether
    x sits in the top block.

    Rows are constant, so any pattern with a non-constant row (2301 and
    1302 among them) is avoided outright.
    """
    limits = [1 if x in top else 0 for x in range(n)]
    return StableColoring(n, limits, range(1, n + 1))


def interleaved_split_order(n: int, seed: int, top_fraction: float = 0.34) -> StableColoring:
    """Seeded random interleaving of the two parts of a split order; each
    element joins the top part with probability top_fraction."""
    if not 0 <= top_fraction <= 1:  # nan included
        raise ContractViolation(f"top fraction {top_fraction} must be a number in [0, 1]")
    rng = random.Random(seed)
    top = {x for x in range(n) if rng.random() < top_fraction}
    return split_order_coloring(n, top)


def blocked_split_order(n: int, seed: int) -> StableColoring:
    """Split order whose top part arrives in contiguous runs of up to 25
    elements, stressing block searches with long gaps."""
    rng = random.Random(seed)
    top: set = set()
    x = 0
    while x < n:
        run = rng.randint(1, 25)
        if rng.random() < 0.35:
            top.update(range(x, min(n, x + run)))
        x += run
    return split_order_coloring(n, top)


def avoiding_family(count: int, n: int, master_seed: int) -> list[StableColoring]:
    """The fixture family for the randomized and oracle extractors:
    stable colorings avoiding the binary dimension-2 fractal (2301)."""
    out = []
    for i in range(count):
        seed = master_seed * 1_000 + i
        if i % 3 == 2:
            out.append(blocked_split_order(n, seed))
        else:
            frac = 0.25 + 0.2 * ((i * 7) % 5) / 5.0
            out.append(interleaved_split_order(n, seed, frac))
    return out


def alternating_stable(n: int) -> StableColoring:
    """Alternating limits with settle times 2x + 2 (capped at n); before
    the settling time every pair reads the opposite of the limit."""
    limits = [x % 2 for x in range(n)]
    # the pairs (x, x + 1 .. 2x + 1) read the opposite of x's limit
    windows = [(1 << x + 1) - 1 << x + 1 for x in range(n)]
    rows = [(1 << n) - 1 ^ w if lim else w for w, lim in zip(windows, limits)]
    return StableColoring.from_rows(n, rows, limits)


def grouped_unbalanced(n: int, k: int, seed: int) -> FiniteColoring:
    """No 0-homogeneous k-set: color 0 joins distinct groups out of k-1,
    so 0-cliques are transversals of size at most k-1."""
    if k < 2:
        raise ContractViolation("need k >= 2")
    rng = random.Random(seed)
    group = [rng.randrange(k - 1) for _ in range(n)]
    return FiniteColoring.from_function(
        n, lambda x, y: 0 if group[x] != group[y] else 1
    )


def repaired_random_unbalanced(n: int, k: int, seed: int) -> FiniteColoring:
    """Random sparse-0 coloring (each pair 0 with chance 0.06) with every
    0-homogeneous k-set destroyed by flipping one of its pairs to 1: the
    least such set loses its first pair until none is left."""
    if k < 2:
        raise ContractViolation("need k >= 2")
    rng = random.Random(seed)
    f = FiniteColoring.from_function(n, lambda x, y: 0 if rng.random() < 0.06 else 1)
    rows = list(f.rows)
    while (clique := find_homogeneous_block(f, range(n), k, 0)) is not None:
        a, b = clique[:2]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        f = FiniteColoring._from_rows(n, rows)
    return f


def order_from_ranks(ranks: list) -> StableColoring:
    """Read a rank permutation as a coloring: the upward pair (x, y) gets
    color 0 exactly when x ranks below y.  Each row's limit is its last
    color and its settling time the least one (StableColoring.from_rows)."""
    return StableColoring.from_rows(len(ranks), perm_to_pattern(Permutation(ranks)).rows if ranks else [])


def dipped_split_order(n: int) -> StableColoring:
    """Split order whose ascending part contains rank dips at positions 12,
    36, 108 and 324: each dip position carries a rank reserved much earlier
    in the walk, so a long stretch of its predecessors settles against it
    with color 1.  A descending top run of 3 follows every dip.

    Dips are isolated and their reserved ranks live in pairwise disjoint
    zones; the tests check exhaustively that the order avoids the two
    forbidden size-4 permutations.
    """
    if n < 0:
        raise ContractViolation(f"size {n} must be >= 0")
    dips = [q for q in (12, 36, 108, 324) if q < n]
    top_positions = set()
    for q in dips:
        for j in range(1, 4):
            if q + j < n:
                top_positions.add(q + j)
    a_positions = [p for p in range(n) if p not in top_positions]
    # each dip's rank is reserved just past the previous dip, so the
    # position stretches affected by different dips never interleave
    hold_pos = {q: (0 if i == 0 else dips[i - 1] + 1) for i, q in enumerate(dips)}
    reserved: dict = {}
    ranks = [None] * n
    counter = 0
    for p in a_positions:
        for q in dips:
            if q not in reserved and hold_pos[q] <= p < q:
                reserved[q] = counter
                counter += 1
        if p in hold_pos:  # a dip position
            if p not in reserved:
                reserved[p] = counter
                counter += 1
            ranks[p] = reserved[p]
        else:
            ranks[p] = counter
            counter += 1
    for j, p in enumerate(sorted(top_positions)):
        ranks[p] = n - 1 - j
    return order_from_ranks(ranks)
