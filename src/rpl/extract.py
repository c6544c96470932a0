"""Homogeneous-set extraction from stable and finite colorings.

Three extraction routes share this module: the unbalanced tree
extractor for colorings with no small clique of one color, a seeded
randomized extractor driven by a thinning sequence, and an extractor
answering to an escaping oracle.
The oracle extractor classifies blocks as good or bad with one search,
_bad_witness; under a good parent at most k - 1 blocks are bad.

An escaping oracle names a value below a bound outside a set enumerated
against it, `pick(enumerated, hi)`; the oracle extractor asks it for a
block index outside the bad blocks.

Limit facts ("x settles to color c") are answered from StableColoring's
declared data; that is the finite-scale stand-in for the limit oracle all
these procedures consume.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, islice, repeat
from operator import lt
import random

from .errors import (
    BudgetExhausted,
    ContractViolation,
    DegenerateInstance,
    InternalInvariant,
    PreconditionWitness,
    RangeError,
)
from .fractals import fractal_pattern, level_color, navigate, occurrence_blocks
from .patterns import (
    Pattern,
    StableColoring,
    VertexSet,
    _realization_search,
    find_realization,
)

FAILURE_EXPONENT = 3  # a thinning sequence's reciprocals sum below 2**-FAILURE_EXPONENT


def verify_homogeneous(f, vertices, color: int) -> bool:
    """True iff every pair of the vertices has the color, 0 or 1; every
    extractor re-checks through this.  Each vertex's row (f.rows[x], or a
    stable coloring's upper row f[x]) must hold the later vertices as
    partners of the color.  As in a pairwise scan of the sorted vertices,
    a repeated or out-of-horizon vertex raises what f.color raises on its
    first pair, unless a pair before that one differs in color."""
    vs = sorted(vertices)
    rows = f.rows if isinstance(f, Pattern) else f
    end = bisect_left(vs, f.horizon)  # vs[end:] lie past the horizon
    later = 0  # the mask of vs[1:end]; at step i its bits above x are vs[i + 1:end]
    if vs and vs[0] >= 0:
        for v in vs[1:end]:
            later |= 1 << v
    for i, x in enumerate(vs[:-1]):
        if x < 0 or vs[i + 1] == x or i + 1 >= end:  # its first pair is invalid
            f.color(x, vs[i + 1])  # raises
        if (rows[x] & later) >> x + 1 != (later >> x + 1 if color else 0):
            return False
        if end < len(vs):
            f.color(x, vs[end])  # raises
    return True


def _rank(pool, x: int) -> int:
    """bisect_left(pool, x) on an ascending pool: by arithmetic on a
    step-1 range, which allocates no int per probe."""
    if pool.__class__ is range and pool.step == 1:
        x -= pool.start
        return 0 if x < 0 else x if x < len(pool) else len(pool)
    return bisect_left(pool, x)


def thin_reservoir(f, reservoir, x: int, color: int):
    """Keep reservoir elements above x whose pair with x has the color.

    The reservoir ascends, a list or a range; both are located in by
    _rank.  Fast path for stable colorings: beyond x's settling time the
    pair color equals x's limit, so only the window below settle(x) needs
    explicit checks.  When x keeps its limit and no element lies in that
    window, the result is the slice past x, so a range stays a range;
    otherwise it is a new list.
    """
    if color not in (0, 1):
        raise ContractViolation(f"color {color!r} is not 0 or 1")
    idx = _rank(reservoir, x + 1)
    if isinstance(f, StableColoring):
        keep = f.limit(x) == color
        if reservoir and reservoir[-1] >= f.horizon:
            raise RangeError(f"vertex {reservoir[-1]} beyond horizon {f.horizon}")
        s = f.settle[x]  # s > x, so j >= idx; an empty window leaves j = idx
        j = idx if s == x + 1 else _rank(reservoir, s)
        if keep and j == idx:
            return reservoir[j:]
        out = [y for y in reservoir[idx:j] if f.color(x, y) == color]
        if keep:
            out += reservoir[j:]
        return out
    return [y for y in reservoir[idx:] if f.color(x, y) == color]


# ---------------------------------------------------------------------------
# Unbalanced tree extraction


@dataclass
class UnbalancedResult:
    vertices: VertexSet
    level: int
    populations: list
    lower_bound: int


def unbalanced_extract(f, k: int, horizon: int) -> UnbalancedResult:
    """Extract a 1-homogeneous set from a coloring with no 0-homogeneous
    set of size k.

    Vertices are inserted into a tree whose root-to-node paths are
    0-homogeneous stems and whose sibling sets are pairwise color 1.  The
    depth then stays below k, so some level holds a large share of the
    horizon; the answer is the largest sibling set at the least level of
    maximal population.  A stem reaching size k exposes the violated
    precondition and is reported with its witness clique.
    """
    if k < 1:
        raise ContractViolation("clique size must be >= 1")
    if horizon < 1:
        raise ContractViolation(f"horizon {horizon} must be >= 1")
    if horizon > f.horizon:
        raise ContractViolation(f"horizon {horizon} beyond the coloring's generation bound {f.horizon}")
    children: dict = {None: []}  # vertex -> its children in the tree; None is the root
    depth: dict = {None: 0}

    for x in range(horizon):
        stem = []  # x's path below the root: at each node, its first child of color 0 to x
        parent = None
        while (child := next((c for c in children[parent] if f.color(c, x) == 0), None)) is not None:
            stem.append(child)
            parent = child
        if len(stem) + 1 >= k:
            raise PreconditionWitness(
                "coloring admits a 0-homogeneous clique of the forbidden size",
                VertexSet(stem[: k - 1] + [x]),
            )
        children[parent].append(x)
        children[x] = []
        depth[x] = depth[parent] + 1

    counts = Counter(depth.values())
    populations = [counts[lvl] for lvl in range(1, max(counts) + 1)]
    top = max(populations)
    level = populations.index(top) + 1  # least level of maximal population
    # the first largest sibling set at that level
    group = max((kids for v, kids in children.items() if depth[v] == level - 1), key=len)
    result = VertexSet(group)
    if not verify_homogeneous(f, result, 1):
        raise InternalInvariant("sibling set failed 1-homogeneity re-verification")
    parents_above = 1 if level == 1 else populations[level - 2]
    bound = max(1, top // max(1, parents_above))
    return UnbalancedResult(result, level, populations, bound)


# ---------------------------------------------------------------------------
# Block search inside a reservoir


def find_homogeneous_block(f, reservoir, size: int, color: int, budget=None):
    """Lexicographically least size-`size` subset of the reservoir whose
    pairs all have the color, as a VertexSet, or None; the one block
    search entry that boxes its answer.  The reservoir, in any order, must
    hold distinct vertices: a repeated one is read as a pair on the
    diagonal, which raises ContractViolation.  The budget, positive or
    None, caps the nodes of the search, one per admitted vertex.

    A stable coloring whose every settle(x) is x + 1 is answered without
    search (see _window_one_block): no node is expanded, so the budget
    cannot run out.  Every other coloring takes the realization search of
    the constant pattern of the size and color (see the patterns module).
    It admits a vertex at depth d only while size - d candidates are
    left from it on, and for a size of 3 or more, its greedy-coloring
    cut at depth 0 rules out, before any admission, a pool (or a pool
    suffix) that splits into fewer sets pairwise not of the color than
    the size.  A size beyond the pool is None before the pattern is
    built.

    The extractors skip the sort and the box: their reservoir ascends,
    and _block_search checks that a list pool does, so a repeated or
    out-of-order vertex there still raises ContractViolation.
    """
    if color not in (0, 1):
        raise ContractViolation(f"color {color!r} is not 0 or 1")
    if size < 0:
        raise ContractViolation(f"block size {size} is negative")
    if budget is not None and budget <= 0:
        raise ContractViolation("budget must be positive")
    pool = reservoir if reservoir.__class__ is range and reservoir.step == 1 else sorted(reservoir)
    if pool and not 0 <= pool[0] <= pool[-1] < f.horizon:
        raise RangeError(f"vertices {pool[0]}..{pool[-1]} outside horizon {f.horizon}")
    block = _block_search(f, pool, size, color, budget)
    return None if block is None else tuple.__new__(VertexSet, block)


def _block_search(f, pool, size: int, color: int, budget):
    """find_homogeneous_block over a pool of vertices below the horizon,
    used as given: a step-1 range, or a list, which is checked to ascend
    strictly.  Window-1 colorings take the closed form, whose block is an
    ascending sequence not boxed into a VertexSet."""
    if pool.__class__ is not range and not all(map(lt, pool, pool[1:])):
        raise ContractViolation("block search pool does not ascend strictly; "
                                "a repeated vertex is a pair on the diagonal")
    if isinstance(f, StableColoring) and (index := f.limit_index())[2]:
        return _window_one_block(f, index[color], pool, size, color)
    if size > len(pool):  # no block fits, answered before the pattern is built
        return None
    return _realization_search(f, pool, Pattern.constant(size, color), budget) if size else ()


def _window_one_block(f: StableColoring, pos, pool, size: int, color: int):
    """_block_search in closed form when every settle(x) is x + 1; pos
    lists the vertices of limit `color` in ascending order.
    Then color(x, y) = limit(x) for x < y, so a block is size - 1
    vertices of limit `color` and any vertex above them, and the least
    one is the first size - 1 of those in the pool plus the pool vertex
    right after the last; None when the pool holds fewer or nothing
    follows.  A step-1 range copies them as a machine-int slice of the
    coloring's limit index, a list filters its limits; the block is that
    sequence with the next vertex appended, so a step boxes only the
    vertices its caller reads.  No search runs: no node is expanded, so
    no budget can run out."""
    if size < 2:
        return pool[:size] if len(pool) >= size else None
    if pool.__class__ is range and pool.step == 1:
        lo = bisect_left(pos, pool.start)
        head = pos[lo:lo + size - 1]  # may run past the pool; then nothing follows
        if len(head) < size - 1 or head[-1] + 1 >= pool.stop:
            return None
        head.append(head[-1] + 1)  # the pool vertex right after head[-1]
        return head
    head = [*islice(compress(pool, map(color.__eq__, map(f.limits.__getitem__, pool))),
                    size - 1)]
    if len(head) < size - 1:
        return None
    j = bisect_left(pool, head[-1] + 1)
    if j == len(pool):
        return None
    head.append(pool[j])
    return head


EXTRACTOR_SEARCH_BUDGET = 2_000_000


def _extractor_block(f, reservoir, arity: int, dim: int, step: int):
    """Least occurrence of the arity-ary dimension-dim fractal in the
    reservoir, as an ascending sequence, inside an extractor loop.
    Dimension 1 takes the homogeneous-block search, which answers a
    window-1 coloring without search or boxing; every search runs under a
    budget of EXTRACTOR_SEARCH_BUDGET admitted vertices, and a fractal of
    more than len(reservoir) points is absent before its pattern is
    built.  Exhaustion, like proven absence, ends the run as a degenerate
    instance (the unbalanced route applies); the cause and the step are
    named."""
    block = None
    if arity ** dim <= len(reservoir):
        try:
            if dim == 1:  # the reservoir ascends, as thin_reservoir keeps it
                block = _block_search(f, reservoir, arity, 0, EXTRACTOR_SEARCH_BUDGET)
            else:
                block = find_realization(f, reservoir, fractal_pattern(arity, dim),
                                         EXTRACTOR_SEARCH_BUDGET)
        except BudgetExhausted as exc:
            raise DegenerateInstance(f"block search budget exhausted at step {step} "
                                     f"(arity {arity}, dimension {dim}); treat as degenerate",
                                     step) from exc
    if block is None:
        raise DegenerateInstance(f"no {arity}-ary dimension-{dim} block in the reservoir at step "
                                 f"{step}; the unbalanced extractor applies instead", step)
    return block


def _grow_stem(f: StableColoring, k: int, n: int, horizon: int, arities, descend):
    """The stem loop of the randomized and oracle extractors against the
    k-ary dimension-n fractal.  arities(d), asked once n and k pass their
    checks, lists each step's arity; step s hands the least such block of
    dimension d = n - 1 in the reservoir to descend(step, arity, block, d,
    color), which returns its vertex, or None to end the run, and the
    step's transcript entry.  A vertex settling to another color ends the
    run too; a good one joins the stem and thins the reservoir.  Returns
    (stem, color, transcript), the stem re-verified as a VertexSet, or
    None when the run ended early, at its last entry's step.
    """
    if n < 2:
        raise ContractViolation("avoided fractal dimension must be >= 2")
    if k < 1:
        raise ContractViolation("fractal arity k must be >= 1")
    d = n - 1
    arities = arities(d)
    color = level_color(d)
    horizon = min(horizon, f.horizon)
    if horizon < 1:  # refused as the unbalanced extractor refuses it
        raise ContractViolation(f"horizon {horizon} must be >= 1")
    stem: list = []
    reservoir = range(horizon)
    transcript: list[dict] = []

    for step, arity in enumerate(arities):
        x, entry = descend(step, arity, _extractor_block(f, reservoir, arity, d, step), d, color)
        transcript.append(entry)
        if x is None or f.limit(x) != color:
            return None, color, transcript
        stem.append(x)
        reservoir = thin_reservoir(f, reservoir, x, color)

    result = VertexSet(stem)
    if not verify_homogeneous(f, result, color):
        raise InternalInvariant("extracted stem failed homogeneity re-verification")
    return result, color, transcript


# ---------------------------------------------------------------------------
# Randomized extraction


@dataclass(frozen=True)
class ExtractionConfig:
    """Seeded extraction parameters.

    thinning is the increasing sequence u_0 < u_1 < ... bounding the
    per-step failure chance at 1/u_s; its reciprocal sum must stay below
    2**-FAILURE_EXPONENT, which is verified at construction.
    """

    thinning: tuple
    seed: int
    steps: int
    horizon: int

    def __post_init__(self):
        _check_thinning(tuple(self.thinning))
        if self.steps < 1:
            raise ContractViolation(f"steps={self.steps} must be >= 1")
        if self.steps > len(self.thinning):
            raise ContractViolation("thinning sequence shorter than the step budget")

    def block_size(self, step: int, k: int, dim: int) -> int:
        # arity sized so a uniformly random descent can go wrong with
        # chance at most 1/u_step: at most k-1 bad blocks per level over
        # dim levels
        return max(k, self.thinning[step] * (k - 1) * dim)


@cache
def _check_thinning(us: tuple) -> None:
    """Validate a thinning sequence, once per distinct sequence; a bad one
    raises on every call, since a raising call caches nothing."""
    if not us or us[0] < 2:
        raise ContractViolation("thinning sequence must start at >= 2")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ContractViolation("thinning sequence must be strictly increasing")
    total = sum(Fraction(1, u) for u in us)
    if total >= Fraction(1, 2**FAILURE_EXPONENT):
        raise ContractViolation(
            f"sum of reciprocals {float(total):.4f} is not below "
            f"2**-{FAILURE_EXPONENT}"
        )


def default_config(seed: int, horizon: int = 10_000, steps: int = 30) -> ExtractionConfig:
    if steps < 1:
        raise ContractViolation(f"steps={steps} must be >= 1")
    base = steps * 2**FAILURE_EXPONENT * 10 // 9 + 2
    us = tuple(base + 2 * s for s in range(steps))
    return ExtractionConfig(us, seed, steps, horizon)


@dataclass
class RandomizedOutcome:
    success: bool
    vertices: VertexSet | None
    color: int
    failure_step: int | None
    transcript: list


def randomized_extract(f: StableColoring, k: int, n: int,
                       cfg: ExtractionConfig) -> RandomizedOutcome:
    """Seeded stem-growing extraction from a coloring avoiding the k-ary
    dimension-n fractal.

    Each step finds the least large-arity block (a fractal occurrence one
    dimension below the avoided one) in the reservoir, draws a uniformly
    random descent path through its decomposition, and extends the stem
    by the singleton reached.  The run fails at the first step whose
    chosen element settles to the wrong color; identical seeds give
    identical transcripts.
    """
    rng = random.Random(cfg.seed)

    def descend(step, arity, block, d, color):
        path = [*map(rng.randrange, repeat(arity, d))]
        offset, length = navigate(arity, d, path)
        assert length == 1
        x = block[offset]
        return x, {"step": step, "arity": arity, "block_min": block[0], "block_max": block[-1],
                   "path": path, "chosen": x, "verdict": "good"}

    def arities(d):
        return map(cfg.block_size, range(cfg.steps), repeat(k), repeat(d))

    stem, color, transcript = _grow_stem(f, k, n, cfg.horizon, arities, descend)
    if stem is None:
        transcript[-1]["verdict"] = "bad"
        return RandomizedOutcome(False, None, color, len(transcript) - 1, transcript)
    return RandomizedOutcome(True, stem, color, None, transcript)


# ---------------------------------------------------------------------------
# Oracle-driven extraction


class ReferenceEscapingOracle:
    """Escapes honestly: the least natural outside the enumerated set,
    which must lie below hi."""

    def pick(self, enumerated, hi: int) -> int:
        v = 0
        while v in enumerated:
            v += 1
        if v >= hi:
            raise ContractViolation(f"enumerated set covers [0, {hi})")
        return v


class AdversarialEscapingOracle(ReferenceEscapingOracle):
    """Stress oracle: breaks the escape contract with the least enumerated
    value below hi whenever one exists, else answers honestly."""

    def pick(self, enumerated, hi: int) -> int:
        inside = [v for v in enumerated if v < hi]
        return min(inside) if inside else super().pick(enumerated, hi)


@dataclass
class OracleOutcome:
    success: bool
    vertices: VertexSet | None
    color: int
    transcript: list
    failure: dict | None


def _bad_witness(f: StableColoring, vertices, k: int, dim: int, color: int):
    """A k-ary dimension-dim sub-occurrence among the elements settling to
    the wrong color, or None: a block holding one is bad for the color."""
    pool = [x for x in vertices if f.limit(x) == 1 - color]
    return find_realization(f, pool, fractal_pattern(k, dim), budget=None)


def oracle_extract(f: StableColoring, k: int, n: int, oracle, horizon: int,
                   steps: int = 32) -> OracleOutcome:
    """Stem-growing extraction where block choices along each descent are
    answered by an escaping oracle.

    Step s searches blocks of arity k + 1 + s.  At every level the indices
    of bad blocks (at most k-1 of them under a good parent) are enumerated
    and handed to the oracle, which is asked for an index below the arity
    outside them.  An answer out of range, or a dead stem, both reachable
    only when the oracle breaks its contract, is reported as a failure
    carrying the offending query transcript.
    """
    def arities(d):  # checked after n and k
        if steps < 1:
            raise ContractViolation(f"steps={steps} must be >= 1")
        return range(k + 1, k + 1 + steps)

    def descend(step, arity, node, d, color):
        queries = []
        for level in range(d):
            blocks = occurrence_blocks(node, arity, d - level)
            bad = [i for i, blk in enumerate(blocks)
                   if _bad_witness(f, blk, k, d - level - 1, color) is not None]
            answer = oracle.pick(set(bad), arity)
            queries.append({"level": level, "arity": arity, "bad": bad, "answer": answer})
            if not 0 <= answer < arity:
                return None, {"step": step, "queries": queries}
            node = blocks[answer]
        return node[0], {"step": step, "queries": queries, "chosen": node[0]}

    stem, color, transcript = _grow_stem(f, k, n, horizon, arities, descend)
    if stem is not None:
        return OracleOutcome(True, stem, color, transcript, None)
    last = transcript[-1]
    reason = "dead stem: chosen element settles to the wrong color" if "chosen" in last else "range"
    return OracleOutcome(False, None, color, transcript, {**last, "reason": reason})
