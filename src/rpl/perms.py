"""Permutations, their pattern coding, whose decoding decides
transitivity, sum/join/converge operators, separability by a
forbidden-pattern scan for 1302/2031 and by a tree decomposition, which
must agree, and the trichotomy classifier."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ContractViolation, InternalInvariant
from .patterns import FiniteColoring, Pattern, VertexSet


class Permutation:
    """A bijection on {0..l-1}, written as its range sequence."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(int(v) for v in values)
        if sorted(vals) != list(range(len(vals))):
            raise ContractViolation(f"{vals} is not a permutation of 0..{len(vals) - 1}")
        if not vals:
            raise ContractViolation("permutations have size >= 1")
        self.values = vals

    @property
    def size(self) -> int:
        return len(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Permutation({self.to_text()!r})"

    def to_text(self) -> str:
        """Digit string up to size 10, comma-separated values beyond."""
        if self.size <= 10:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        text = text.strip()
        try:
            return cls(parse_naturals(text.split(",") if "," in text else text))
        except ValueError:
            raise ContractViolation(f"permutation text {text!r} is not a string of ASCII digits "
                                    "or comma-separated ASCII-digit naturals") from None


def parse_naturals(tokens) -> list:
    """Tokens of ASCII digits read as natural numbers, else ValueError.
    int() alone would also take a sign, underscores, surrounding spaces
    and non-ASCII digits."""
    tokens = list(tokens)
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise ValueError(f"{t!r} is not a natural number in ASCII digits")
    return [int(t) for t in tokens]


def perm_to_pattern(perm: Permutation) -> Pattern:
    """Code the order induced by the permutation: the upward pair (x, y)
    gets color 0 exactly when the value at x is below the value at y.
    Row x is the mask of the positions valued below v[x], built as a
    prefix OR in value order, with its bits below x flipped."""
    rows = [0] * perm.size
    below = 0
    for x in sorted(range(perm.size), key=perm.values.__getitem__):
        rows[x] = below ^ (1 << x) - 1
        below |= 1 << x
    return Pattern._from_rows(perm.size, rows)


def pattern_to_perm(f) -> Permutation | None:
    """The permutation whose coding is f, a Pattern or any coloring, else
    None: f does not order its vertices, or has none.  The later partners
    of color 1 in x's upper row are the later positions valued below x, a
    Lehmer code, decoded by list insertion; the values must code back to f."""
    n = f.horizon
    if not n:
        return None
    rows = f.rows if isinstance(f, Pattern) else f  # a stable coloring's f[x] is its upper row
    upper = [rows[x] >> x + 1 for x in range(n)]
    ranked = []  # the positions from x on, least value first
    for x in reversed(range(n)):
        ranked.insert(upper[x].bit_count(), x)
    perm = Permutation(sorted(range(n), key=ranked.__getitem__))
    return perm if [r >> x + 1 for x, r in enumerate(perm_to_pattern(perm).rows)] == upper else None


def is_transitive(f) -> bool:
    """True iff f, a Pattern or any coloring, orders its vertices: it
    codes a permutation, or has no vertex."""
    return not f.horizon or pattern_to_perm(f) is not None


def perm_coloring(perm: Permutation) -> FiniteColoring:
    """The permutation's pattern viewed as a coloring of a clique."""
    return FiniteColoring._from_rows(perm.size, perm_to_pattern(perm).rows)


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    m = a.size
    return Permutation(tuple(a.values) + tuple(v + m for v in b.values))


def skew_sum(a: Permutation, b: Permutation) -> Permutation:
    n = b.size
    return Permutation(tuple(v + n for v in a.values) + tuple(b.values))


def join(p: Pattern, q: Pattern) -> Pattern:
    """Glue q onto p at p's last position g; size |p|+|q|-1.

    Pairs inside the p-part keep p's colors, pairs inside the q-part keep
    q's colors, and pairs straddling the glue point copy the p-color
    toward the shared position: a row x < g is extended across the q-part
    by its own bit g.
    """
    g = p.size - 1
    ext = (1 << g + q.size) - (1 << p.size)  # the positions past the glue
    rows = [r | ext if r >> g & 1 else r for r in p.rows[:g]]
    rows += [r << g | p.rows[g] for r in q.rows]
    return Pattern._from_rows(g + q.size, rows)


def converge(p: Pattern, c: int) -> Pattern:
    """Append one position colored c against every earlier position."""
    if c not in (0, 1):
        raise ContractViolation("color must be 0 or 1")
    n = p.size
    return Pattern._from_rows(n + 1, [r | c << n for r in p.rows] + [c * ((1 << n) - 1)])


def is_convergent(p: Pattern) -> int | None:
    """The color c with p = p' followed by a c-constant last column, else None."""
    if p.size < 2:
        return None
    last = p.rows[-1]  # the colors p(x, size - 1), x < size - 1
    return 0 if last == 0 else 1 if last == (1 << p.size - 1) - 1 else None


def split_reducible(p: Pattern) -> tuple[Pattern, Pattern] | None:
    """A witness (p0, p1) with join(p0, p1) = p and both parts of size >= 2,
    minimizing |p0|; None when p is irreducible.  Glue position m works
    iff every row x < m is constant from bit m on."""
    n = p.size
    for m in range(1, n - 1):  # glue position; |p0| = m+1, |p1| = n-m
        if all(r >> m in (0, (1 << n - m) - 1) for r in p.rows[:m]):
            return p.restrict(range(m + 1)), p.restrict(range(m, n))
    return None


# ---------------------------------------------------------------------------
# Separability


@dataclass(frozen=True)
class SeparatingTree:
    """Leaf or an operator node combining >= 2 children left to right.

    op is "+" for the direct sum, "-" for the skew sum.  Evaluating the
    tree reproduces the permutation it was built from; the leaf count is
    the permutation size.  evaluate and to_term keep an explicit stack,
    so they take a tree as deep as its permutation is long.
    """

    op: str | None  # None for leaves, "+" or "-" otherwise
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def evaluate(self) -> Permutation:
        """The permutation, from the sizes of the inner nodes, taken in
        reverse pre-order so children come first, and a pre-order pass that
        hands each child the least value of its block: a "+" child sits
        above its left siblings, a "-" child above its right siblings."""
        inner, todo = [], [self]
        while todo:
            node = todo.pop()
            if node.op is not None:
                inner.append(node)
                todo.extend(node.children)
        size = {}  # leaves are absent and count 1
        for node in reversed(inner):
            size[id(node)] = sum([size.get(id(c), 1) for c in node.children])
        values, todo = [], [(self, 0)]
        while todo:
            node, base = todo.pop()
            if node.op is None:
                values.append(base)
                continue
            kids = node.children if node.op == "+" else node.children[::-1]
            placed = []
            for c in kids:
                placed.append((c, base))
                base += size.get(id(c), 1)
            todo.extend(placed if node.op == "-" else placed[::-1])
        return Permutation(values)

    def to_term(self) -> str:
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif item.is_leaf:
                out.append("0")
            else:
                parts = [f"{item.op}("]
                for c in item.children:
                    parts += [c, ","]
                parts[-1] = ")"
                todo.extend(reversed(parts))
        return "".join(out)


LEAF = SeparatingTree(None)

FORBIDDEN = (Permutation((1, 3, 0, 2)), Permutation((2, 0, 3, 1)))  # 1302, 2031


def _node(op, kids) -> SeparatingTree:
    return LEAF if op is None else SeparatingTree(op, tuple(kids))


def separating_tree(perm: Permutation) -> SeparatingTree | None:
    """Block decomposition into direct/skew sums by one stack pass (Bose,
    Buss and Lubiw 1998), in O(n).

    Each value is pushed as a block: a value interval with its node.
    While the top two blocks' intervals abut they merge, by "+" when the
    lower one comes first and by "-" otherwise; a child with the merge's
    own operator gives up its children instead, so each node's children
    are its finest one-level blocks.  The permutation is separable iff
    one block is left; otherwise None.
    """
    stack = []  # (lo, hi, op, children): open blocks, left to right
    for x in perm.values:
        lo, hi, op, kids = x, x, None, None
        while stack:
            plo, phi, pop, pkids = stack[-1]
            if phi + 1 == lo:
                merge = "+"
            elif hi + 1 == plo:
                merge = "-"
            else:
                break
            stack.pop()
            merged = pkids if pop == merge else [_node(pop, pkids)]
            if op == merge:
                merged += kids
            else:
                merged.append(_node(op, kids))
            lo, hi, op, kids = min(lo, plo), max(hi, phi), merge, merged
        stack.append((lo, hi, op, kids))
    if len(stack) > 1:
        return None
    _, _, op, kids = stack[0]
    return _node(op, kids)


def _least_1302(v) -> tuple | None:
    """Least position tuple a < b < c < d with v[c] < v[a] < v[d] < v[b].

    Each a gets an existence test over the chain r = nge[a], nge[r], ...
    of left-to-right maxima above v[a] after it, where nge[r] is the next
    position right of r with a greater value.  Within the segment
    [r, nge[r]) no b beats b = r, whose value is largest, and a c after
    nge[r] is better paired with b = nge[r]; so a hits iff for some r the
    least c in (r, nge[r]) valued below v[a] is followed by a value in
    (v[a], v[r]).  Both questions are bit operations on below[t], the mask
    of the positions valued below t, built up to the largest t asked so
    far.  The first a that hits takes the least b above v[a] with the
    least c after it valued below v[a] and then a d after c valued in
    (v[a], v[b]); the least c leaves d the most room.
    """
    n = len(v)
    pos = [0] * n
    for i, x in enumerate(v):
        pos[x] = i
    nge = [n] * n
    rising = []  # positions whose next greater value is still unseen
    for i, x in enumerate(v):
        while rising and v[rising[-1]] < x:
            nge[rising.pop()] = i
        rising.append(i)
    below = [0]

    def mask(t: int) -> int:
        while len(below) <= t:
            below.append(below[-1] | 1 << pos[len(below) - 1])
        return below[t]

    for a in range(n - 3):
        va = v[a]
        low = mask(va)
        r = nge[a]
        while r < n:
            after = low >> r + 1
            if not after:  # no c after r, nor after any later r
                break
            c = r + (after & -after).bit_length()
            nxt = nge[r]
            if c < nxt and (mask(v[r]) ^ mask(va + 1)) >> c + 1:
                for b in range(a + 1, n - 2):
                    after = low >> b + 1
                    if not after:  # no c after b, nor after any later b
                        break
                    c = b + (after & -after).bit_length()
                    mid = (mask(v[b]) ^ mask(va + 1)) >> c + 1 if v[b] > va else 0
                    if mid:
                        return a, b, c, c + (mid & -mid).bit_length()
                raise InternalInvariant(f"1302 test hit at {a} but no occurrence starts there")
            r = nxt
    return None


def forbidden_witness(perm: Permutation):
    """(witness permutation, positions) for the least occurrence of 1302,
    else of 2031 (the complement of 1302), inside perm, found by scanning
    the value sequence; None when perm contains neither."""
    v = perm.values
    for witness, seq in zip(FORBIDDEN, (v, [perm.size - 1 - x for x in v])):
        hit = _least_1302(seq)
        if hit is not None:
            return witness, VertexSet(hit)
    return None


def separation(perm: Permutation):
    """(tree, None) for a separable perm, else (None, witness), from one
    run of each route.  The routes must agree, the tree must evaluate to
    perm and the witness must sit at its positions, or InternalInvariant."""
    witness = forbidden_witness(perm)
    tree = separating_tree(perm)
    if witness is None:
        ok = tree is not None and tree.evaluate() == perm
    else:
        values = [perm.values[x] for x in witness[1]]
        ok = tree is None and [sorted(values).index(x) for x in values] == list(witness[0])
    if not ok:
        raise InternalInvariant(f"separability routes disagree or fail their re-check "
                                f"on {perm.to_text()}: witness={witness} tree={tree}")
    return tree, witness


def is_separable(perm: Permutation) -> bool:
    """Separability decided by BOTH the forbidden-pattern scan and the
    tree decomposition (see separation)."""
    return separation(perm)[0] is not None


class Trichotomy(Enum):
    ADS_SIDE = "ads"
    EM_SIDE = "em"
    SIDE_1302 = "1302"


def classify_trichotomy(p: Pattern) -> Trichotomy:
    """Every pattern is a separable permutation, contains a
    non-transitivity configuration, or is a permutation containing
    1302/2031."""
    perm = pattern_to_perm(p)
    if perm is None:
        return Trichotomy.EM_SIDE
    return Trichotomy.ADS_SIDE if is_separable(perm) else Trichotomy.SIDE_1302
