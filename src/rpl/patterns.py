"""Pair-coloring patterns, finite and stable colorings, realization search.

A pattern of size `l` colors every pair of distinct positions in
{0..l-1} with 0 or 1.  Its storage is one row mask per position: bit y of
`rows[x]` is the color of the pair {x, y}, so the rows are symmetric and
bit x of `rows[x]` is 0.  The canonical lexicographic pair order
(0,1),(0,2),...,(0,l-1),(1,2),...,(l-2,l-1) is only the file form: `bits`,
`to_text` and the repr produce it and `Pattern(size, bits)` reads it, so
fixtures stay bit-exact.

Realization search, and block search in `extract` as the search of a
constant pattern, is one depth-first walk over bit masks of a strictly
ascending pool.  A vertex's row mask holds its color-1 partners, its
complement the color-0 ones.  The positions q >= d with equal colors
toward 0..d-1 form a class at depth d, sharing one candidate mask;
refined once per search, one AND with row d of p per class, the classes
are ordered by least position, so d lies in class 0.  At depth d the
walk admits class 0's least untried candidate v, charging one node, and
cuts each child class's mask from its parent's to v's partners of its
color toward d; masks are read only above the last admission, so a
stable coloring hands over upper rows, which hold only the partners
above the vertex.  The admission at the last depth is the hit, the least
in the lexicographic order of the pool; a depth with no candidate left
backtracks, and backtracking past depth 0 proves absence (None).  The
node past the budget raises BudgetExhausted.

Three cuts end a depth at its least untried candidate v without a node.
Room: v has fewer pool vertices above it than positions after d.  Class
size: fewer of class 0's candidates are left from v on than the class
has positions.  Greedy coloring, MCQ's bound (Tomita & Seki; on bit
masks as in San Segundo et al.'s BBMC): class 0 at depth d is fresh
unless it is class 0 at depth d - 1 less d - 1, and depth 0 always is;
when a fresh class 0 has 3+ positions, all pairs of one color b, its
candidates from v on are peeled, ascending, into greedy sets pairwise
not of color b, and fewer sets than positions end the depth.  Later
depths of the class are not colored again: that cost more than it saved
on hit searches.  No cut removes a hit, so the hit does not depend on
them; they only save nodes.
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


def find_realization(f, reservoir, p: Pattern, budget: int | None = 10**6):
    """The least subset of the reservoir realizing p, or None; a candidate
    is admitted when its pairs with the chosen vertices carry p's colors.
    The budget counts search nodes, one per admitted vertex; the node past
    it raises BudgetExhausted.  A pattern longer than the pool is None
    before any search table is built."""
    if budget is not None and budget <= 0:
        raise ContractViolation("budget must be positive")
    pool = reservoir if reservoir.__class__ is range and reservoir.step == 1 else sorted(set(reservoir))
    if pool and not 0 <= pool[0] <= pool[-1] < f.horizon:
        raise RangeError(f"vertices {pool[0]}..{pool[-1]} outside horizon {f.horizon}")
    return None if p.size > len(pool) else _realization_search(f, pool, p, budget)


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


def _colorable(rows, cand: int, low: int, size: int, flip: int) -> bool:
    """False when the candidate mask cand, least bit low, peels greedily
    into fewer than size sets pairwise not of a color b, the coloring's
    rows[v] ^ flip being v's partners not of color b; then no size of them
    pair in color b.  The candidates below low << 2 * size are peeled
    first, then a window four times as wide while too few sets come out:
    a prefix peels into the sets of the whole, cut short."""
    width = 2 * size
    while True:
        free = cand & (low << width) - 1
        for _ in range(size - 1):  # peel off a greedy set
            rest = free
            while rest:
                bit = rest & -rest
                free ^= bit
                rest = (rest ^ bit) & (rows[bit.bit_length() - 1] ^ flip)
        if free or low << width > cand:  # size sets or more, or every candidate peeled
            return free != 0
        width *= 4


def _realization_search(f, pool, p: Pattern, budget):
    """find_realization on a strictly ascending pool inside the horizon, a
    list or a step-1 range, holding at least p.size vertices."""
    m, n = p.size, len(pool)
    rows = f.rows if isinstance(f, Pattern) else f  # a stable coloring's f[x] is its upper row
    whole = (1 << pool.stop) - (1 << pool.start) if pool.__class__ is range else _mask(pool)
    # levels[d]: (top, size, cut, split, here, below) at depth d.  top is
    # the highest vertex with m - 1 - d pool vertices above it, size the
    # positions of class 0, and cut is -b when that class is fresh and its
    # 3+ positions pair in color b, so rows[v] ^ -b are v's partners not of
    # color b, else None.  split lists (c, parent, flip) per class c at
    # depth d + 1: its class at depth d, and its color b toward d less 1,
    # so rows[v] ^ flip has color b.  here and below hold the candidates
    # of each class at depths d and d + 1.
    levels, parts, prev = [], [(1, (1 << m) - 1, 0, 0)], 0  # (least bit, positions, parent, flip)
    here = [whole]
    for d, (r, top) in enumerate(zip(p.rows, pool[n - m:])):
        head = parts[0][1]  # class 0: d and the positions sharing its candidates
        size = head.bit_count()
        b = _one_color(p.rows, head) if size >= 3 and head != prev & prev - 1 else None
        prev = head
        zeros = ~(r | 1 << d)  # the positions of color 0 toward d, d itself left out
        parts = sorted((part & -part, part, c, flip) for c, (_, cls, _, _) in enumerate(parts)
                       for part, flip in ((cls & r, 0), (cls & zeros, -1)) if part)
        below = [0] * len(parts)
        levels.append((top, size, None if b is None else -b,
                       [(c, parent, flip) for c, (_, _, parent, flip) in enumerate(parts)],
                       here, below))
        here = below
    left = [whole] * m  # [d]: class 0's untried candidates at depth d, above the admissions
    chosen = [0] * m
    limit = sys.maxsize if budget is None else budget
    nodes = d = 0
    while True:
        top, size, cut, split, here, below = levels[d]
        cand = left[d]
        while True:  # admit class 0's candidates at depth d in turn
            low = cand & -cand
            v = low.bit_length() - 1
            # the cuts: no candidate with room, too few for class 0, too few color sets
            if v < 0 or v > top or size > 1 and cand.bit_count() < size or (
                    cut is not None and not _colorable(rows, cand, low, size, cut)):
                deeper = 0
                break
            nodes += 1
            if nodes > limit:
                raise BudgetExhausted(nodes)
            chosen[d] = v
            if d == m - 1:
                return tuple.__new__(VertexSet, chosen)  # ascending and distinct as the pool
            cand ^= low
            ones = rows[v]
            for c, parent, flip in split:
                below[c] = here[parent] & (ones ^ flip)
            deeper = below[0] & -(low << 1)  # class 0 at depth d + 1 is read only above v
            if deeper:
                break
        if deeper:
            left[d] = cand
            d += 1
            left[d] = deeper
        elif d:
            d -= 1
        else:
            return None


def avoids(f, reservoir, p: Pattern, budget: int | None = None) -> bool:
    """True iff no subset of the reservoir realizes p (complete search)."""
    return find_realization(f, reservoir, p, budget) is None
