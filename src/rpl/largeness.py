"""Iterated largeness of finite sets, grouping searches, and the
grouping-to-homogeneous extractions.

A largeness notion is a superset-closed family of finite sets met by
every sufficiently long stretch of naturals.  The iterated notion used
here: every nonempty set is large at level 0, and a set is large at level
n+1 when, past its minimum, it contains min-many successive disjoint
level-n-large subsets.  By the literal reading, a set containing 0 is
large at every positive level (zero subsets are demanded).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ContractViolation, DegenerateInstance, InternalInvariant
from .extract import thin_reservoir, verify_homogeneous
from .patterns import Pattern, StableColoring, VertexSet, find_realization, realizes
from .perms import is_convergent


# ---------------------------------------------------------------------------
# Iterated largeness


@dataclass
class LargeWitness:
    elements: tuple
    level: int
    blocks: list  # LargeWitness children, one per carved subset


def _carve_prefix(xs: list, level: int, start: int = 0) -> tuple | None:
    """End index of the shortest large run of xs from start at the level,
    with its witness; None if no run qualifies.  With start 0 the end is
    the length of the shortest large prefix."""
    if start >= len(xs):
        return None
    if level == 0:
        return start + 1, LargeWitness((xs[start],), 0, [])
    need = xs[start]
    blocks = []
    pos = start + 1
    while len(blocks) < need:
        sub = _carve_prefix(xs, level - 1, pos)
        if sub is None:
            return None
        pos, w = sub
        blocks.append(w)
    return pos, LargeWitness(tuple(xs[start:pos]), level, blocks)


_SIZES: dict = {}  # (m, n) -> (size, exact); an inexact size is a lower bound


def minimal_large_size(m: int, n: int, room: int = sys.maxsize) -> int:
    """Cardinality of the smallest level-n-large set whose minimum is m
    (achieved by consecutive integers); a feasibility bound for searches.
    The sizes grow like the fast-growing hierarchy, so the count stops
    once it passes room: the result is min(size, room + 1)."""
    if n == 0:
        return 1
    size, exact = _SIZES.get((m, n), (0, False))
    if not exact and size <= room:
        size = 1
        for _ in range(m):
            if size > room:
                break
            size += minimal_large_size(m + size, n - 1, room)
        _SIZES[(m, n)] = size, size <= room  # a count stopped at room ends above it
    return min(size, room + 1)


def omega_n_decompose(elements, n: int) -> LargeWitness | None:
    """Witness tree for level-n largeness by greedy shortest-prefix
    carving, or None.  Greedy is exact here: the notion is closed under
    superset, so an early finish never hurts a later block."""
    if n < 0:
        raise ContractViolation("level must be >= 0")
    xs = sorted(set(elements))
    if any(x < 0 for x in xs):
        raise ContractViolation("elements must be naturals")
    carved = _carve_prefix(xs, n)
    if carved is None:
        return None
    return LargeWitness(tuple(xs), n, carved[1].blocks)


def is_omega_n_large(elements, n: int) -> bool:
    return omega_n_decompose(elements, n) is not None


def check_witness(w: LargeWitness) -> bool:
    """A witness tree really decomposes its elements: blocks one level
    down sit past the minimum, in increasing disjoint order, min-many of
    them."""
    xs = list(w.elements)
    if w.level == 0:
        return bool(xs)
    if not xs:
        return False
    if len(w.blocks) != xs[0]:
        return False
    prev_max = xs[0]
    pool = set(xs)
    for blk in w.blocks:
        if blk.level != w.level - 1 or not blk.elements or min(blk.elements) <= prev_max:
            return False
        if not set(blk.elements) <= pool:
            return False
        if not check_witness(blk):
            return False
        prev_max = max(blk.elements)
    return True


# ---------------------------------------------------------------------------
# Largeness notions


@dataclass(frozen=True)
class LargenessPredicate:
    """Level-n largeness when pattern is None, else membership is carrying
    a realization of the pattern under the coloring, found within `budget`
    search nodes (None: unbounded)."""

    level: int = 0
    pattern: Pattern | None = None
    coloring: object = None
    budget: int | None = None

    def holds(self, elements) -> bool:
        xs = sorted(set(elements))
        if self.pattern is None:
            return is_omega_n_large(xs, self.level)
        return find_realization(self.coloring, xs, self.pattern, self.budget) is not None


def omega_largeness(n: int) -> LargenessPredicate:
    return LargenessPredicate(level=n)


def pattern_largeness(p: Pattern, coloring, budget: int | None = None) -> LargenessPredicate:
    return LargenessPredicate(pattern=p, coloring=coloring, budget=budget)


# ---------------------------------------------------------------------------
# Groupings


@dataclass
class Grouping:
    blocks: list  # VertexSets, increasing
    notion: LargenessPredicate
    coloring: object
    complete: bool
    obstruction: dict | None = None

    def check(self) -> bool:
        """Inter-block color constancy plus largeness of every block."""
        return (all(self.notion.holds(blk) for blk in self.blocks)
                and _constant_across(self.coloring, self.blocks))


def _constant_across(f, blocks) -> bool:
    """Every two blocks see one color across all their pairs."""
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            if len({f.color(x, y) for x in a for y in b}) != 1:
                return False
    return True


def _minimal_large_prefix(notion: LargenessPredicate, pool: list) -> list | None:
    """Shortest large prefix of the ascending pool.  The omega notion
    carves it directly.  Otherwise, since largeness is closed under
    superset, the prefix length is found by doubling it until the prefix
    is large (the whole pool last), then bisecting below that.
    """
    if notion.pattern is None:
        carved = _carve_prefix(pool, notion.level)
        return pool[: carved[0]] if carved else None
    n = len(pool)
    small, t = 0, 1  # the prefix of length small is not large
    while t < n and not notion.holds(pool[:t]):
        small, t = t, 2 * t
    if t >= n:
        if not notion.holds(pool):
            return None
        t = n
    return pool[:bisect_left(range(t), True, small + 1, key=lambda k: notion.holds(pool[:k]))]


def find_grouping(f, notion: LargenessPredicate, count: int, horizon: int) -> Grouping:
    """Greedy grouping search: carve a minimal large block from the
    reservoir, then keep only later elements with one uniform color
    toward it (majority class, ties to 0), and repeat.

    Uniformity toward every earlier block makes inter-block constancy
    automatic; the grouping is still re-verified before returning.  A
    reservoir with no large subset at all ends the search with an
    obstruction report instead of a loop.
    """
    if count < 0:
        raise ContractViolation(f"block count {count} must be >= 0")
    reservoir = list(range(min(horizon, f.horizon)))
    blocks: list = []
    dropped = 0
    while len(blocks) < count:
        block = _minimal_large_prefix(notion, reservoir)
        if block is None:
            # the pattern route ended on holds(reservoir); cross-check only carving
            if notion.pattern is None and notion.holds(reservoir):
                raise InternalInvariant("reservoir large but no prefix qualified")
            reason = (
                "reservoir emptied by majority thinning"
                if not reservoir and dropped
                else "no large subset in the reservoir"
            )
            grouping = Grouping(blocks, notion, f, False,
                                {"reason": reason,
                                 "reservoir_size": len(reservoir),
                                 "dropped_mixed": dropped})
            if not grouping.check():
                raise InternalInvariant("partial grouping failed verification")
            return grouping
        blocks.append(VertexSet(block))
        rest = [y for y in reservoir if y > block[-1]]
        by_class: dict = {0: [], 1: []}
        for y in rest:
            colors = {f.color(x, y) for x in block}
            if len(colors) == 1:
                by_class[colors.pop()].append(y)
        keep = max((by_class[0], by_class[1]), key=lambda c: (len(c), c == by_class[0]))
        dropped += len(rest) - len(keep)
        reservoir = keep
    grouping = Grouping(blocks, notion, f, True)
    if not grouping.check():
        raise InternalInvariant("grouping failed verification")
    return grouping


# ---------------------------------------------------------------------------
# Groupings to homogeneous sets


@dataclass
class MinimaOutcome:
    kind: str  # "homogeneous" | "violation"
    vertices: VertexSet | None
    color: int | None
    certificate: VertexSet | None


def grouping_to_homogeneous(f, avoided: Pattern, grouping: Grouping) -> MinimaOutcome:
    """Block minima of a grouping for the realization notion of the
    avoided pattern's front part.

    The avoided pattern must append one constantly colored position to its
    front part; cross colors between blocks then cannot take that color
    without completing a realization, so the minima come out homogeneous
    in the other color.  If they do not, the discovered realization is
    returned as the precondition-violation certificate.
    """
    c = is_convergent(avoided)
    if c is None:
        raise ContractViolation("avoided pattern must end in a constant column")
    front = avoided.restrict(range(avoided.size - 1))
    for blk in grouping.blocks:
        if find_realization(f, blk, front, budget=None) is None:
            raise ContractViolation(f"block {blk} carries no front realization")
    minima = [blk[0] for blk in grouping.blocks]
    for i in range(len(minima)):
        for j in range(i + 1, len(minima)):
            if f.color(minima[i], minima[j]) == c:
                inner = find_realization(f, grouping.blocks[i], front, budget=None)
                certificate = VertexSet(list(inner) + [minima[j]])
                if not realizes(f, certificate, avoided):
                    raise InternalInvariant("violation certificate failed re-check")
                return MinimaOutcome("violation", None, None, certificate)
    return MinimaOutcome("homogeneous", VertexSet(minima), 1 - c, None)


@dataclass
class EmOutcome:
    kind: str  # "grouping" | "homogeneous-minima"
    color: int
    blocks: list
    vertices: VertexSet | None


def em_grouping_extract(f: StableColoring, n: int, horizon: int,
                        count: int = 4) -> EmOutcome:
    """Extract a level-n grouping from a transitive coloring avoiding the
    two forbidden size-4 permutations.

    The loop gathers a level-n-large block homogeneous in the working
    color, a later witness seeing the block minimum in the opposite color,
    then thins the reservoir to the elements the minimum settles against;
    the transfer fact makes cross colors constant block to block: if
    a < b < c, color(a, b) = i and color(a, c) = color(b, c) = 1 - i, then
    every d > c has color(a, d) = color(b, d).  When the first block has
    no witness, the loop goes on without witnesses: each block's minimum
    thins the reservoir to its partners in the working color, so the
    minima accumulate into a homogeneous set, returned labeled as such.
    Every cut is thin_reservoir on the suffix past the block or past its
    witness.  Color 0 is tried first; color 1 when color 0 gives neither
    minima nor two blocks.
    """
    horizon = min(horizon, f.horizon)

    def attempt(color: int) -> EmOutcome | None:
        reservoir = range(horizon)
        blocks: list = []
        minima: list = []  # once the first one is found, every block adds its minimum
        while len(blocks) < count:
            block = _homog_large_block(f, reservoir, color, n)
            if block is None:
                if minima:
                    return EmOutcome("homogeneous-minima", color, [], VertexSet(minima))
                return None if not blocks else EmOutcome("grouping", color, blocks, None)
            m = block[0]
            suffix = reservoir[bisect_left(reservoir, block[-1] + 1):]
            w = None if minima else next(
                (i for i, y in enumerate(suffix) if f.color(m, y) == 1 - color), None)
            if w is not None:
                blocks.append(VertexSet(block))
                reservoir = thin_reservoir(f, suffix[w + 1:], m, f.limit(m))
            elif blocks:  # later stall: the grouping gathered so far stands
                return EmOutcome("grouping", color, blocks, None)
            else:  # no opposite sighting past the block: gather minima
                minima.append(m)
                reservoir = thin_reservoir(f, suffix, m, color)
        return EmOutcome("grouping", color, blocks, None)

    first = attempt(0)
    if first is not None and (first.kind == "homogeneous-minima" or len(first.blocks) >= 2):
        _verify_em(f, first)
        return first
    second = attempt(1)
    chosen = second if second is not None else first
    if chosen is None:
        raise ContractViolation("no homogeneous large block for either color")
    _verify_em(f, chosen)
    return chosen


LARGE_BLOCK_SEARCH_BUDGET = 200_000


def _homog_large_block(f, reservoir, color: int, n: int) -> VertexSet | None:
    """Least level-n-large homogeneous subset of the ascending reservoir,
    a list or a range, by ascending depth-first search with backtracking.

    Backtracking matters: a greedy chain can pick up an element that
    pairs correctly but blocks every continuation; the search pops it and
    moves on.  A chain rooted at m needs minimal_large_size(m, n)
    elements, which bounds the room every branch asks for: an element is
    visited only while the chain's need fits in what is left, and a root
    without room ends the search, since every later root needs more.  A
    shorter chain cannot be large, so only a chain of that size is carved.
    Each visit is a node; the node past LARGE_BLOCK_SEARCH_BUDGET raises
    DegenerateInstance.
    """
    size = len(reservoir)
    chosen: list = []
    trail: list = []  # (reservoir index, need) at each admission
    need = 1  # the elements every completion of the chain still needs
    nodes = i = 0
    while need:
        if i <= size - need:
            nodes += 1
            if nodes > LARGE_BLOCK_SEARCH_BUDGET:
                raise DegenerateInstance(f"large block search budget exhausted at color {color}, "
                                         f"level {n}; treat as degenerate")
            y = reservoir[i]
            room = size - i + len(chosen)  # the longest chain through y
            if not chosen and minimal_large_size(y, n, room) > room:
                return None
            if all(f.color(x, y) == color for x in chosen):
                chosen.append(y)
                trail.append((i, need))
                need = minimal_large_size(chosen[0], n, room) - len(chosen)
                if need <= 0:  # only a chain this long can be large
                    need = 0 if _carve_prefix(chosen, n) is not None else 1
            i += 1
            continue
        if not chosen:
            return None
        chosen.pop()
        i, need = trail.pop()
        i += 1
    return tuple.__new__(VertexSet, chosen)  # ascending and distinct as the reservoir


def _verify_em(f, outcome: EmOutcome) -> None:
    if outcome.kind == "homogeneous-minima":
        if not verify_homogeneous(f, outcome.vertices, outcome.color):
            raise InternalInvariant("labeled minima set is not homogeneous")
    elif not _constant_across(f, outcome.blocks):
        raise InternalInvariant("grouping blocks lost cross-color constancy")
