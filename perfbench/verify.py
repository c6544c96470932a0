"""Output checks for every benchmark op kind.

Each check reads the op's output and the op's input data and decides
correctness with its own arithmetic: no function of the `rpl` package is
called, so a defect in the code under test cannot hide itself.  Every
check returns None when the output is correct and a one-line reason when
it is not.
"""

from __future__ import annotations

import json

FORBIDDEN = ("1302", "2031")


# ---------------------------------------------------------------------------
# Shared readers


def perm_text(values) -> str:
    """The CLI's permutation argument form."""
    if len(values) <= 10:
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


def perm_values(text: str) -> list:
    text = text.strip()
    if "," in text:
        return [int(t) for t in text.split(",")]
    return [int(ch) for ch in text]


def perm_pair_color(values, i: int, j: int) -> int:
    """Color of the position pair i < j in a permutation's coding."""
    return 0 if values[i] < values[j] else 1


class TriangleFile:
    """A finite coloring read from its text file: line one is N, then one
    upper-triangular bit row per vertex."""

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        self.n = int(lines[0])
        self.rows = [lines[1 + x] if 1 + x < len(lines) else "" for x in range(self.n)]
        for x in range(self.n - 1):
            if len(self.rows[x]) != self.n - 1 - x:
                raise ValueError(f"row {x} has the wrong length")
        # masks[c][x]: vertices y > x with color(x, y) == c
        self.masks = ([0] * self.n, [0] * self.n)
        for x in range(self.n):
            for off, ch in enumerate(self.rows[x]):
                self.masks[int(ch)][x] |= 1 << (x + 1 + off)

    def color(self, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        return int(self.rows[x][y - x - 1])


class StableRecord:
    """A stable coloring read from its JSON record (limits, settle times
    and overrides)."""

    def __init__(self, record: dict):
        self.horizon = record["horizon"]
        self.limits = list(record["limits"])
        self.settle = list(record["settle"])
        self.overrides = {(x, y): c for x, y, c in record["overrides"]}

    def color(self, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        if y >= self.settle[x]:
            return self.limits[x]
        return self.overrides.get((x, y), self.limits[x])


def find_pattern(coloring: TriangleFile, pool_mask: int, values) -> list | None:
    """Least-first search for positions inside pool_mask realizing the
    permutation pattern, by intersecting per-vertex color masks."""
    m = len(values)

    def extend(chosen: list, cand: int):
        if len(chosen) == m:
            return chosen
        t = len(chosen)
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            picked = chosen + [v]
            if t + 1 == m:
                return picked
            nxt = pool_mask
            for i, u in enumerate(picked):
                nxt &= coloring.masks[perm_pair_color(values, i, t + 1)][u]
            found = extend(picked, nxt)
            if found is not None:
                return found
        return None

    return extend([], pool_mask)


def is_omega_large(elements, level: int) -> bool:
    """Iterated largeness by its definition: every nonempty set is large at
    level 0; at level n+1 the set must hold, past its minimum, min-many
    successive disjoint level-n-large subsets, each found as the shortest
    large run of what is left."""
    xs = sorted(set(elements))
    if not xs:
        return False
    if level == 0:
        return True
    rest = xs[1:]
    for _ in range(xs[0]):
        for k in range(1, len(rest) + 1):
            if is_omega_large(rest[:k], level - 1):
                rest = rest[k:]
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# extract-mc


def check_extraction(record: StableRecord, outcome, min_size: int = 30) -> str | None:
    """A success is a homogeneous set of at least min_size in the stem
    color; a failure ends on a chosen element whose limit is the wrong
    color, after a stem of correct ones."""
    color = 0  # stem color over dimension-1 blocks (avoided dimension 2)
    if outcome.color != color:
        return f"stem color {outcome.color}, expected {color}"
    chosen = [e["chosen"] for e in outcome.transcript]
    good = chosen if outcome.success else chosen[:-1]
    for x in good:
        if record.limits[x] != color:
            return f"stem element {x} settles to {record.limits[x]}"
    for i, x in enumerate(good):
        for y in good[i + 1:]:
            if record.color(x, y) != color:
                return f"stem pair ({x},{y}) has color {record.color(x, y)}"
    if outcome.success:
        vs = list(outcome.vertices)
        if vs != sorted(set(vs)) or vs != sorted(good):
            return "returned set differs from the transcript's stem"
        if len(vs) < min_size:
            return f"homogeneous set of size {len(vs)} < {min_size}"
        return None
    if not chosen:
        return "failure with an empty transcript"
    last = chosen[-1]
    if record.limits[last] != 1 - color:
        return f"failure at {last}, whose limit is the stem color"
    if outcome.failure_step != len(chosen) - 1:
        return "failure step does not match the transcript"
    return None


def max_homogeneous(record: StableRecord, pool: list, color: int) -> int | None:
    """Size of the largest color-homogeneous subset of pool, or None when
    the record is not a split order.

    In a split order every element settles at once and nothing is
    overridden, so a pair reads the limit of its lower element: a set is
    homogeneous exactly when all its members but the largest have the
    color as limit.
    """
    if record.overrides or any(record.settle[x] > x + 1 for x in pool):
        return None
    if not pool:
        return 0
    top = max(pool)
    return 1 + sum(1 for x in pool if x != top and record.limits[x] == color)


def check_degenerate(record: StableRecord, stem_outcome, step: int, arity: int) -> str | None:
    """A run that stops at `step` for want of an `arity`-element
    homogeneous block: the stem of its first `step` steps (stem_outcome,
    a run of exactly those steps) is valid, and the reservoir that stem
    leaves holds no homogeneous block of that size."""
    color = 0
    if not stem_outcome.success or len(stem_outcome.transcript) != step:
        return f"replay of the first {step} steps did not give a {step}-element stem"
    bad = check_extraction(record, stem_outcome, min_size=step)
    if bad:
        return f"stem before the degenerate step: {bad}"
    stem = [e["chosen"] for e in stem_outcome.transcript]
    low = stem[-1] + 1 if stem else 0
    reservoir = [y for y in range(low, record.horizon)
                 if all(record.color(x, y) == color for x in stem)]
    best = max_homogeneous(record, reservoir, color)
    if best is None:
        return "cannot check a degenerate verdict on a coloring that is not a split order"
    if best >= arity:
        return f"degenerate at step {step}, but the reservoir holds a {arity}-element block"
    return None


# ---------------------------------------------------------------------------
# search


def parse_term(term: str):
    """A separating-tree term `0` or `+(t,...)` / `-(t,...)` as nested
    (op, children) tuples; raises ValueError on malformed text."""
    pos = 0

    def node():
        nonlocal pos
        if term.startswith("0", pos):
            pos += 1
            return None
        op = term[pos]
        if op not in "+-" or term[pos + 1] != "(":
            raise ValueError(f"bad term at offset {pos}")
        pos += 2
        children = [node()]
        while term[pos] == ",":
            pos += 1
            children.append(node())
        if term[pos] != ")":
            raise ValueError(f"bad term at offset {pos}")
        pos += 1
        return op, children

    tree = node()
    if pos != len(term):
        raise ValueError("trailing text after term")
    return tree


def evaluate_term(tree) -> list:
    """Value sequence of a term: `+` stacks each child above the previous
    ones (direct sum), `-` below them (skew sum)."""
    if tree is None:
        return [0]
    op, children = tree
    parts = [evaluate_term(c) for c in children]
    total = sum(len(p) for p in parts)
    out: list = []
    below = 0
    for p in parts:
        base = below if op == "+" else total - below - len(p)
        out.extend(base + v for v in p)
        below += len(p)
    return out


def order_type(values) -> str:
    ranked = sorted(range(len(values)), key=lambda i: values[i])
    out = [0] * len(values)
    for r, i in enumerate(ranked):
        out[i] = r
    return "".join(str(v) for v in out)


def check_sep_check(values, stdout: str, built_separable: bool) -> str | None:
    """A separable verdict's term evaluates to the input; a non-separable
    verdict names 1302 or 2031 at four positions carrying that order type.
    Inputs built separable must be called separable."""
    line = stdout.rstrip("\n")
    if "\n" in line:
        return "more than one output line"
    if line.startswith("separable (") and line.endswith(")"):
        try:
            tree = parse_term(line[len("separable ("):-1])
        except (ValueError, IndexError) as exc:
            return f"unparsable term: {exc}"
        if evaluate_term(tree) != list(values):
            return "separating term does not evaluate to the input"
        return None
    if built_separable:
        return "separable input reported non-separable"
    if not (line.startswith("non-separable (") and line.endswith(")")):
        return f"unexpected output {line[:60]!r}"
    try:
        witness, positions = line[len("non-separable ("):-1].split(" at ")
        pos = [int(t) for t in positions.split(",")]
    except ValueError:
        return f"unparsable witness {line[:60]!r}"
    if witness not in FORBIDDEN:
        return f"witness {witness} is not a forbidden pattern"
    if len(pos) != 4 or pos != sorted(set(pos)) or pos[0] < 0 or pos[-1] >= len(values):
        return f"witness positions {pos} are not four increasing positions"
    if order_type([values[p] for p in pos]) != witness:
        return f"positions {pos} do not carry {witness}"
    return None


def check_pattern_avoids(coloring: TriangleFile, pattern: str, stdout: str) -> str | None:
    """A realized set carries the pattern's pair colors as read back from
    the file; an avoids verdict is confirmed by an independent search."""
    values = perm_values(pattern)
    line = stdout.rstrip("\n")
    full = (1 << coloring.n) - 1
    if line == "avoids":
        hit = find_pattern(coloring, full, values)
        return None if hit is None else f"avoids, but {hit} realizes {pattern}"
    if not line.startswith("realized "):
        return f"unexpected output {line[:60]!r}"
    vs = [int(t) for t in line[len("realized "):].split(",")]
    if len(vs) != len(values) or vs != sorted(set(vs)) or vs[-1] >= coloring.n:
        return f"realized set {vs} is not {len(values)} increasing vertices"
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if coloring.color(vs[i], vs[j]) != perm_pair_color(values, i, j):
                return f"pair ({vs[i]},{vs[j]}) has the wrong color"
    return None


def check_grouping(coloring: TriangleFile, notion: str, count: int, stdout: str) -> str | None:
    """Blocks ascend, each is large for the notion, and every pair of
    blocks sees a single cross color."""
    try:
        d = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    blocks = d["blocks"]
    if d["verified"] is not True:
        return "grouping reported unverified"
    if d["complete"] != (len(blocks) == count):
        return "complete flag disagrees with the block count"
    prev = -1
    for blk in blocks:
        if not blk or blk != sorted(set(blk)) or blk[0] <= prev or blk[-1] >= coloring.n:
            return f"block {blk} is not an ascending run above the previous one"
        prev = blk[-1]
    kind, _, arg = notion.partition(":")
    for blk in blocks:
        if kind == "omega":
            large = is_omega_large(blk, int(arg))
        else:
            mask = sum(1 << v for v in blk)
            large = find_pattern(coloring, mask, perm_values(arg)) is not None
        if not large:
            return f"block {blk} is not large for {notion}"
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            if len({coloring.color(x, y) for x in a for y in b}) != 1:
                return f"blocks {a} and {b} see two cross colors"
    return None


# ---------------------------------------------------------------------------
# orders


def check_gamma(n: int, members, keys: dict, log) -> str | None:
    """Members ascend inside the ground, their keys are pairwise distinct
    (a strict total order), excluded arrivals are exactly the non-members,
    and every node's disable transitions form one chain from block 0."""
    if list(members) != sorted(set(members)) or (members and members[-1] >= n):
        return "members are not an ascending subset of the ground"
    if set(keys) != set(members):
        return "key table does not cover exactly the members"
    if len(set(keys.values())) != len(keys):
        return "two members share a comparator key"
    excluded = set()
    disabled: dict = {}
    for e in log:
        if e["event"] == "exclude":
            excluded.add(e["stage"])
        elif e["event"] == "transition":
            node = tuple(e["node"])
            if e["old"] != disabled.get(node, 0) or e["new"] <= e["old"]:
                return f"transition chain broken at node {list(node)}"
            disabled[node] = e["new"]
    if excluded != set(range(n)) - set(members):
        return "excluded stages differ from the non-members"
    return None


def check_delta(keys: dict, status: str, sequence) -> str | None:
    """An ok sequence is increasing both in the natural order and in the
    built order."""
    if status not in ("ok", "dead_block"):
        return f"unknown status {status!r}"
    if status == "dead_block":
        return None
    for a, b in zip(sequence, sequence[1:]):
        if a not in keys or b not in keys:
            return f"sequence holds a non-member near {a},{b}"
        if not (a < b and keys[a] < keys[b]):
            return f"sequence not doubly increasing at {a},{b}"
    return None


def check_priority(table, stable: StableRecord) -> str | None:
    """Transitivity of the pair table by the distinct-score test (a
    tournament is transitive iff its out-degrees are pairwise distinct),
    and settled rows reading their declared limits."""
    n = stable.horizon
    score = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            c = table.color(x, y)
            score[x if c == 0 else y] += 1
            if y >= stable.settle[x] and c != stable.limits[x]:
                return f"pair ({x},{y}) disagrees with the settled limit"
    if len(set(score)) != n:
        return "pair table is not a transitive tournament"
    return None
