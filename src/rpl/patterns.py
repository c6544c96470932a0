"""Pair-coloring patterns, finite and stable colorings, realization search.

A pattern of size `l` colors every pair of distinct positions in
{0..l-1} with 0 or 1.  Its storage is one row mask per position: bit y of
`rows[x]` is the color of the pair {x, y}, so the rows are symmetric and
bit x of `rows[x]` is 0.  The canonical lexicographic pair order
(0,1),(0,2),...,(0,l-1),(1,2),...,(l-2,l-1) is only the file form: `bits`,
`to_text` and the repr produce it and `Pattern(size, bits)` reads it, so
fixtures stay bit-exact.

Every search of a reservoir (realization here, homogeneous blocks in
`extract`, large blocks in `largeness`) runs on one ascending depth-first
kernel, `_ascending_search(pool, step, need, budget)`, over a strictly
ascending pool.  It owns the stack, the cut of candidates with fewer than
`need` pool elements left, node counting, the budget (exhaustion raises
BudgetExhausted) and the answer None for proven absence.  The hook
`step(chosen, i, need)` judges pool[i]:
None passes it over, BACKTRACK abandons the depth, and an int admits it as
the number of elements every completion still needs (0 when done).

A step may also settle many candidates in one verdict, a run: the tuple
(indices, nodes).  The ascending pool indices, the first of them at least
i, are admitted in order, each needing one element fewer, and the search
goes on after the last of them.  `nodes` is the count the unit steps
would have made up to that admission, this call included; a run that
crosses the budget raises the BudgetExhausted the unit steps would have.
A run may be empty, ((), nodes): no candidate left at the depth fits, so
the kernel charges the nodes of the unit pass-overs and backtracks.

On every coloring the realization search takes one step call per
admission, and a pattern longer than the pool is None before any table.
A vertex's row mask holds its color-1 partners, its complement the
color-0 ones.  The positions q >= d with equal colors toward 0..d-1 form
a class at depth d, sharing one candidate mask; refined once per search,
one AND with row d of p per class, the classes are ordered by least
position, so d lies in class 0.  Admitting v at depth d cuts each child
class's mask from its parent's to v's partners of its color toward d.
Masks are read only above the last admission, so a stable coloring
hands over upper rows, which hold only the partners above the vertex.
A step takes the least candidate at or above pool[i] as a one-element
run charging the pass-overs before it, or an empty run when none fits.
With two positions left, one step settles both: it walks the depth's
candidates, charges each whose last-position mask is empty its admission
and the last level's pass-overs, and returns the first pair that fits.

The search carries MCQ's greedy-coloring bound (Tomita & Seki; on bit
masks as in San Segundo et al.'s BBMC).  Class 0 at depth d is fresh
unless it is class 0 at depth d - 1 less d - 1; depth 0 always is.  When
a fresh class 0 has 3+ positions, all pairs of one color b, each step at
its depth peels the candidates at or above pool[i], ascending, into
greedy sets pairwise not of color b: first those below pool[i] + 2 *
size, then a window four times as wide while too few sets come out (a
prefix peels into the sets of the whole, cut short).  Fewer sets than
positions over all candidates return BACKTRACK, one node; hits stay the
same.  Later depths of the class are not colored again: that cost more
than it saved on hit searches.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from operator import eq, gt, not_
import sys

from .errors import BudgetExhausted, ContractViolation, InstanceLoadError, RangeError


def iter_pairs(size: int):
    """Ordered pairs (i, j), i < j, in canonical lexicographic order."""
    for i in range(size - 1):
        for j in range(i + 1, size):
            yield i, j


class VertexSet(tuple):
    """A strictly increasing finite set of naturals."""

    def __new__(cls, elements):
        elems = tuple(elements)
        for x in elems:
            if not isinstance(x, int) or x < 0:
                raise ContractViolation(f"vertex {x!r} is not a natural")
        if len(set(elems)) != len(elems):
            raise ContractViolation(f"duplicate vertices in {elems}")
        return super().__new__(cls, sorted(elems))

    def __repr__(self):
        return "{" + ",".join(str(x) for x in self) + "}"


class Pattern:
    """A 2-coloring of the pairs of distinct positions in {0..size-1},
    stored as row masks (module docstring)."""

    __slots__ = ("size", "rows")

    def __init__(self, size: int, bits):
        if size < 1:
            raise ContractViolation("pattern size must be >= 1")
        bits = tuple(map(int, bits))
        expected = size * (size - 1) // 2
        if len(bits) != expected:
            raise ContractViolation(
                f"pattern of size {size} needs {expected} bits, got {len(bits)}"
            )
        if not set(bits) <= {0, 1}:
            raise ContractViolation("pattern bits must be 0 or 1")
        text = bytes(bits).hex()[1::2]  # a 0/1 byte is "00" or "01" in hex
        starts = [x * (2 * size - x - 1) // 2 for x in range(size)]  # index of (x, x + 1)
        self.size = size
        self.rows = _symmetric_rows([text[a:b] for a, b in zip(starts, starts[1:])])

    @classmethod
    def _from_rows(cls, size: int, rows) -> "Pattern":
        """The pattern of the given row masks, taken as they are."""
        if size < 1:
            raise ContractViolation("pattern size must be >= 1")
        p = object.__new__(cls)
        p.size, p.rows = size, tuple(rows)
        return p

    @property
    def horizon(self) -> int:
        return self.size

    @property
    def bits(self) -> tuple:
        """The colors in canonical pair order."""
        return tuple(map(int, "".join(self._upper_rows())))

    def _upper_rows(self) -> list:
        """For each x < size - 1, the colors of (x, y), y > x, as a 0/1 string."""
        n = self.size
        return [format(r >> x + 1, f"0{n - 1 - x}b")[::-1] for x, r in enumerate(self.rows[:-1])]

    @classmethod
    def constant(cls, size: int, color: int) -> "Pattern":
        if color not in (0, 1):
            raise ContractViolation("pattern bits must be 0 or 1")
        rows = [((1 << size) - 1) ^ (1 << x) for x in range(size)] if color else [0] * size
        return cls._from_rows(size, rows)

    def color(self, i: int, j: int) -> int:
        """Color of the pair (i, j); rejects i >= j."""
        if not 0 <= i < j < self.size:
            raise ContractViolation(f"pair ({i},{j}) invalid for size {self.size}")
        return self.rows[i] >> j & 1

    def dual(self) -> "Pattern":
        """Bitwise complement; an involution."""
        full = (1 << self.size) - 1
        return self._from_rows(self.size, [r ^ full ^ (1 << x) for x, r in enumerate(self.rows)])

    def restrict(self, positions) -> "Pattern":
        """Induced sub-pattern on a strictly increasing position subset."""
        pos = list(positions)
        if sorted(set(pos)) != pos:
            raise ContractViolation("positions must be strictly increasing")
        if pos and not (0 <= pos[0] and pos[-1] < self.size):
            raise RangeError(f"positions {pos} out of range for size {self.size}")
        return Pattern._from_rows(len(pos), [sum((self.rows[x] >> y & 1) << j for j, y in enumerate(pos))
                                             for x in pos])

    def __eq__(self, other):
        return (
            isinstance(other, Pattern)
            and self.size == other.size
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.size, self.rows))

    def __repr__(self):
        return f"{type(self).__name__}({self.size}, {''.join(self._upper_rows())})"

    def to_text(self) -> str:
        """File form: `size=l` then the bits in canonical pair order."""
        return f"size={self.size}\n{''.join(self._upper_rows())}\n"


def _symmetric_rows(upper) -> tuple:
    """Row masks of the pattern of size len(upper) + 1 whose row x lists
    the colors of (x, y), y > x, as the 0/1 string upper[x]."""
    # row x of the square reads color(x, y) for y > x and 0 elsewhere, so
    # column x reads color(y, x) for y < x
    square = ["0" * (x + 1) + u for x, u in enumerate([*upper, ""])]
    return tuple(int(("".join(column[:x]) + line[x:])[::-1], 2)
                 for x, (column, line) in enumerate(zip(zip(*square), square)))


# The two non-transitivity configurations on three vertices: the induced
# successor relation (x before y iff the pair has color 0 read upward)
# forms a 3-cycle.  They are dual to each other.
NON_TRANSITIVE = (Pattern(3, (0, 1, 0)), Pattern(3, (1, 0, 1)))


def is_transitive(p) -> bool:
    """True iff no 3 positions induce a non-transitivity configuration;
    p is a Pattern or any coloring."""
    return all(avoids(p, range(p.horizon), q) for q in NON_TRANSITIVE)


class FiniteColoring(Pattern):
    """A pattern read as a total coloring of pairs over {0..horizon-1}:
    pairs are read in either order, and the file form lists rows."""

    __slots__ = ()

    @classmethod
    def from_function(cls, horizon: int, fn) -> "FiniteColoring":
        return cls(horizon, tuple(fn(i, j) for i, j in iter_pairs(horizon)))

    def color(self, x: int, y: int) -> int:
        if x == y:
            raise ContractViolation("coloring undefined on the diagonal")
        n = self.size  # the slot, not the horizon property: read once per pair
        if not (0 <= x < n and 0 <= y < n):
            raise RangeError(f"pair ({min(x, y)},{max(x, y)}) beyond horizon {n}")
        return self.rows[x] >> y & 1  # the rows are symmetric

    def to_text(self) -> str:
        """File form: first line N, then one upper-triangular row per vertex."""
        return "\n".join([str(self.size), *self._upper_rows()]) + "\n"

    @classmethod
    def from_text(cls, text: str, path: str = "<text>") -> "FiniteColoring":
        """Parse the file form; row x is line x + 2.  A first line that is
        not a vertex count, a row of the wrong length or with a character
        other than 0 and 1, and any line after the last row raise
        InstanceLoadError naming the path and the line."""
        lines = [ln.strip() for ln in text.splitlines()]
        while lines and not lines[-1]:
            lines.pop()
        head = lines[0] if lines else ""
        if not (head.isascii() and head.isdigit() and len(head) <= 9 and int(head)):
            raise InstanceLoadError(path, 1, f"vertex count {head!r} is not in 1..999999999")
        n = int(head)
        upper = lines[1:n] + [""] * (n - len(lines))  # a missing row reads empty
        for x, row in enumerate(upper):
            if len(row) != n - 1 - x or not set(row) <= {"0", "1"}:
                raise InstanceLoadError(path, x + 2,
                                        f"row {x} must be {n - 1 - x} 0s and 1s, got {row!r}")
        if len(lines) > n:
            raise InstanceLoadError(path, n + 1, f"a line after the last of {n - 1} rows")
        return cls._from_rows(n, _symmetric_rows(upper))


class StableColoring:
    """A coloring whose rows settle: f(x, y) = limit(x) once y >= settle(x),
    where settle(x) > x.

    Limits and settling times are explicit data, so limit queries are
    decidable at finite scale.  Bit i of flips[x] is set when the pair
    (x, x + 1 + i) lies below the horizon and reads the opposite of x's
    limit; a vertex with no such pair has no entry.
    """

    __slots__ = ("horizon", "limits", "settle", "flips", "_index")

    def __init__(self, horizon: int, limits, settle, overrides=()):
        """Overrides are (x, y, color) triples with x < y < settle(x); one
        equal to its limit, or past the horizon, is checked but not kept."""
        if isinstance(limits, (str, bytes)) or isinstance(settle, (str, bytes)):
            raise ContractViolation("limits and settle must be integer sequences, not text")
        self.horizon = horizon
        self.limits = tuple(map(int, limits))
        self.settle = tuple(map(int, settle))
        if len(self.limits) != horizon or len(self.settle) != horizon:
            raise ContractViolation("limits and settle must cover the horizon")
        if not set(self.limits) <= {0, 1}:
            raise ContractViolation("limits must be 0 or 1")
        if not all(map(gt, self.settle, range(horizon))):
            x = next(x for x, s in enumerate(self.settle) if s <= x)
            raise ContractViolation(f"settle({x})={self.settle[x]} must exceed {x}")
        given: dict = {}  # x -> {y: color}
        for x, y, c in overrides:
            if not (0 <= x < horizon and x < y < self.settle[x]):
                raise ContractViolation(
                    f"override ({x},{y}) must satisfy 0 <= x < y < settle(x), x below {horizon}"
                )
            c = int(c)
            if c not in (0, 1):
                raise ContractViolation(f"override ({x},{y}) has color {c}, not 0 or 1")
            if y in given.setdefault(x, {}):
                raise ContractViolation(f"override ({x},{y}) is listed twice")
            given[x][y] = c
        self.flips = {x: m for x, row in given.items() if (m := _mask(
            [y - x - 1 for y, c in row.items() if y < horizon and c != self.limits[x]]))}
        self._index = None

    @classmethod
    def from_rows(cls, horizon: int, rows, limits=None) -> "StableColoring":
        """The stable coloring whose pair (x, y), x < y, reads bit y of
        rows[x].  A row's limit defaults to its last color (0 for the last
        row, which has none); it settles just past its last disagreement
        with its limit, the least settling time possible."""
        if limits is None:
            limits = [r >> horizon - 1 & 1 for r in rows[:-1]] + [0] if horizon else []
        flips, settle = {}, []
        for x, (r, lim) in enumerate(zip(rows, limits)):
            diff = (r >> x + 1 ^ -lim) & (1 << horizon - 1 - x) - 1  # the pairs (x, y), y > x
            settle.append(x + 1 + diff.bit_length())
            if diff:
                flips[x] = diff
        f = cls(horizon, limits, settle)  # checks that rows and limits cover the horizon
        f.flips = flips
        return f

    def limit_index(self) -> tuple:
        """(vertices of limit 0, vertices of limit 1, whether every
        settle(x) is x + 1), the vertices as ascending arrays; built on
        first use and cached."""
        if self._index is None:
            h, limits = self.horizon, self.limits
            self._index = (array("i", compress(range(h), map(not_, limits))),
                           array("i", compress(range(h), limits)),
                           all(map(eq, self.settle, range(1, h + 1))))
        return self._index

    def upper_row(self, x: int) -> int:
        """Bitmask of the y > x below the horizon with color(x, y) = 1:
        x's limit ones XOR its flip mask."""
        return ((1 << self.horizon) - (2 << x) if self.limits[x] else 0) ^ self.flips.get(x, 0) << x + 1

    __getitem__ = upper_row  # f[x], as the mask search reads a pattern's rows[x]

    def color(self, x: int, y: int) -> int:
        if x == y:
            raise ContractViolation("coloring undefined on the diagonal")
        if x > y:
            x, y = y, x
        if y >= self.horizon or x < 0:
            raise RangeError(f"pair ({x},{y}) beyond horizon {self.horizon}")
        if y >= self.settle[x]:
            return self.limits[x]
        return self.limits[x] ^ self.flips.get(x, 0) >> y - x - 1 & 1

    def limit(self, x: int) -> int:
        if not 0 <= x < self.horizon:
            raise RangeError(f"vertex {x} beyond horizon {self.horizon}")
        return self.limits[x]

    def restrict(self, horizon: int) -> "FiniteColoring":
        """The pairs below the horizon as a FiniteColoring, read off the
        upper rows."""
        if horizon > self.horizon:
            raise RangeError("cannot restrict beyond the generated horizon")
        upper = [format(self[x] >> x + 1 & (1 << w) - 1, f"0{w}b")[::-1]
                 for x, w in zip(range(horizon - 1), range(horizon - 1, 0, -1))]
        return FiniteColoring._from_rows(horizon, _symmetric_rows(upper))

    def to_json_dict(self) -> dict:
        return {
            "type": "stable",
            "horizon": self.horizon,
            "limits": list(self.limits),
            "settle": list(self.settle),
            "overrides": [[x, y, 1 - self.limits[x]] for x in sorted(self.flips)
                          for y, b in enumerate(format(self.flips[x], "b")[::-1], x + 1) if b == "1"],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "StableColoring":
        """Read a to_json_dict record.  The horizon and every entry of
        limits, settle and overrides must be a JSON integer: a bool, float
        or string is not read as one."""
        if d.get("type") != "stable":
            raise ContractViolation("not a stable-coloring record")
        overrides = d.get("overrides", [])
        for v in chain([d["horizon"]], d["limits"], d["settle"], chain.from_iterable(overrides)):
            if type(v) is not int:
                raise ContractViolation(f"{v!r} is not an integer")
        return cls(d["horizon"], d["limits"], d["settle"], overrides)


def _mask(positions) -> int:
    """The integer whose set bits are the given naturals."""
    marks = bytearray(b"0") * (max(positions) + 1 if positions else 1)
    for v in positions:
        marks[v] = 49  # "1"
    return int(marks[::-1], 2)


def realizes(f, vertices, p: Pattern) -> bool:
    """True iff the vertex set carries exactly the pair colors of p."""
    vs = VertexSet(vertices)
    if len(vs) != p.size:
        raise ContractViolation(
            f"vertex set of size {len(vs)} cannot realize a pattern of size {p.size}"
        )
    if vs and vs[-1] >= f.horizon:
        raise RangeError(f"vertex {vs[-1]} beyond horizon {f.horizon}")
    for i, j in iter_pairs(p.size):
        if f.color(vs[i], vs[j]) != p.color(i, j):
            return False
    return True


BACKTRACK = object()  # step verdict: abandon the current depth


def _ascending_search(pool, step, need: int, budget: int | None):
    """The search kernel of the module docstring: the hit least in the
    lexicographic order of pool indices, or None when none exists.  Each
    step call is one node, a run as many as it names; the node past the
    budget raises BudgetExhausted."""
    if budget is not None and budget <= 0:
        raise ContractViolation("budget must be positive")
    limit = sys.maxsize if budget is None else budget
    n = len(pool)
    chosen: list = []
    trail: list = []  # (pool index, need) at each admission
    nodes = i = 0
    while need:
        if i <= n - need:
            nodes += 1
            if nodes > limit:
                raise BudgetExhausted(nodes)
            verdict = step(chosen, i, need)
            if verdict is None:
                i += 1
                continue
            if verdict is not BACKTRACK:
                if verdict.__class__ is tuple:
                    run, cost = verdict
                    nodes += cost - 1
                    if nodes > limit:
                        raise BudgetExhausted(limit + 1)
                    if not run:  # every candidate left at this depth was passed over
                        i = n
                        continue
                    chosen.extend(map(pool.__getitem__, run))
                    trail.extend(zip(run, range(need, need - len(run), -1)))
                    need -= len(run)
                    i = run[-1] + 1
                    continue
                chosen.append(pool[i])
                trail.append((i, need))
                need = verdict
                i += 1
                continue
        if not chosen:
            return None
        chosen.pop()
        i, need = trail.pop()
        i += 1
    return tuple.__new__(VertexSet, chosen)  # ascending and distinct as the pool


def find_realization(f, reservoir, p: Pattern, budget: int | None = 10**6):
    """The least subset of the reservoir realizing p, or None; a candidate
    is admitted when its pairs with the chosen vertices carry p's colors.
    The budget counts search nodes, as in _ascending_search."""
    if budget is not None and budget <= 0:  # an oversized p never reaches the kernel's check
        raise ContractViolation("budget must be positive")
    pool = sorted(set(reservoir))
    if pool and not 0 <= pool[0] <= pool[-1] < f.horizon:
        raise RangeError(f"vertices {pool[0]}..{pool[-1]} outside horizon {f.horizon}")
    return _realization_search(f, pool, p, budget)


def _one_color(rows, head: int):
    """b when every pair inside the positions of the mask head, two or
    more of them, has color b in the pattern rows; else None."""
    rest = head & head - 1  # head without its least position
    b = rows[(head & -head).bit_length() - 1] >> (rest & -rest).bit_length() - 1 & 1
    left = head
    while left:
        low = left & -left
        if rows[low.bit_length() - 1] & head != (head ^ low if b else 0):
            return None
        left ^= low
    return b


def _realization_search(f, pool: list, p: Pattern, budget):
    """find_realization on a strictly ascending pool inside the horizon."""
    m, n = p.size, len(pool)
    if m > n:  # answered before any table is built
        return None
    rows = f.rows if isinstance(f, Pattern) else f  # a stable coloring's f[x] is its upper row
    at = dict(zip(pool, range(n)))  # pool index of each vertex
    # split[d]: (c, parent, flip) per class c at depth d + 1: its class at
    # depth d, and its color b toward d less 1, so rows[v] ^ flip has color b
    split, parts = [], [(1, (1 << m) - 1, 0, 0)]  # (least bit, positions, parent, flip)
    # cuts[d]: (size, -b) when class 0 at depth d is fresh and its 3+
    # positions pair in color b; rows[v] ^ -b are v's partners not of color b
    cuts, prev = [], 0
    for d, r in enumerate(p.rows):
        head = parts[0][1]  # class 0: d and the positions sharing its candidates
        size = head.bit_count()
        b = _one_color(p.rows, head) if size >= 3 and head != prev & prev - 1 else None
        cuts.append(None if b is None else (size, -b))
        prev = head
        zeros = ~(r | 1 << d)  # the positions of color 0 toward d, d itself left out
        parts = sorted((part & -part, part, c, flip) for c, (_, cls, _, _) in enumerate(parts)
                       for part, flip in ((cls & r, 0), (cls & zeros, -1)) if part)
        split.append([(c, parent, flip) for c, (_, _, parent, flip) in enumerate(parts)])
    cands = [[_mask(pool)]] + [[0] * len(s) for s in split]  # [d][c]: the candidates of class c

    def step(chosen, i, need):
        d = m - need
        lo = pool[i]
        cand = cands[d][0] >> lo  # position d lies in class 0
        if need == 2:  # settle both last levels
            last, flip = cands[d][-1], split[d][0][2]  # position d + 1 lies in the last class
            cost = 0
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1 + lo
                j = at[v]
                if j > n - 2:
                    break
                tail = (last & (rows[v] ^ flip)) >> (v + 1)
                if tail:
                    j2 = at[(tail & -tail).bit_length() + v]
                    return (j, j2), cost + j2 - i + 1
                cost += n - i  # pass-overs, the admission, the last level's pass-overs
                i = j + 1
                cand ^= low
            return (), cost + n - 1 - i
        if cuts[d]:
            size, flip = cuts[d]
            width = 2 * size
            while True:  # color the candidates below lo + width, widened fourfold
                free = (cand & (1 << width) - 1) << lo
                for _ in range(size - 1):  # peel off a greedy set pairwise not of class 0's color
                    left = free
                    while left:
                        low = left & -left
                        free ^= low
                        left = (left ^ low) & (rows[low.bit_length() - 1] ^ flip)
                if free:  # size sets or more: room for class 0
                    break
                if width >= cand.bit_length():  # every candidate, fewer sets than positions
                    return BACKTRACK
                width *= 4
        if cand:
            v = (cand & -cand).bit_length() - 1 + lo
            j = at[v]
            if j <= n - need:
                here, below = cands[d], cands[d + 1]
                ones = rows[v]
                for c, parent, flip in split[d]:
                    below[c] = here[parent] & (ones ^ flip)
                return (j,), j - i + 1
        return (), n - need - i + 1

    return _ascending_search(pool, step, m, budget)


def avoids(f, reservoir, p: Pattern, budget: int | None = None) -> bool:
    """True iff no subset of the reservoir realizes p (complete search)."""
    return find_realization(f, reservoir, p, budget) is None
