"""Permutations, their pattern coding, sum/join/converge operators,
separability by a forbidden-pattern scan for 1302/2031 and by a tree
decomposition, which must agree, and the trichotomy classifier."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ContractViolation, InternalInvariant
from .patterns import (
    FiniteColoring,
    LinearOrderView,
    Pattern,
    VertexSet,
    is_transitive,
    iter_pairs,
    order_key,
)


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
            return cls([int(t) for t in (text.split(",") if "," in text else text)])
        except ValueError:
            raise ContractViolation(f"permutation text {text!r} is not a digit string "
                                    "or comma-separated integers") from None


TRIVIAL_PERM = Permutation((0,))


def perm_to_pattern(perm: Permutation) -> Pattern:
    """Code the order induced by the permutation: the upward pair (x, y)
    gets color 0 exactly when the value at x is below the value at y."""
    v = perm.values
    return Pattern(
        perm.size,
        tuple(0 if v[i] < v[j] else 1 for i, j in iter_pairs(perm.size)),
    )


def pattern_to_perm(p: Pattern) -> Permutation | None:
    """Recover the permutation whose coding is p, or None if p is not
    transitive."""
    if not is_transitive(p):
        return None
    ranks = [0] * p.size
    less = LinearOrderView(p).less
    for r, x in enumerate(sorted(range(p.size), key=order_key(less))):
        ranks[x] = r
    return Permutation(ranks)


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
    """Glue q onto p at p's last position; size |p|+|q|-1.

    Pairs inside the p-part keep p's colors, pairs inside the q-part keep
    q's colors, and pairs straddling the glue point copy the p-color
    toward the shared position.
    """
    lp = p.size
    size = lp + q.size - 1

    def col(x: int, y: int) -> int:
        if y < lp:
            return p.color(x, y)
        if x >= lp - 1:
            return q.color(x - lp + 1, y - lp + 1)
        return p.color(x, lp - 1)

    return Pattern(size, tuple(col(x, y) for x, y in iter_pairs(size)))


def converge(p: Pattern, c: int) -> Pattern:
    """Append one position colored c against every earlier position."""
    if c not in (0, 1):
        raise ContractViolation("color must be 0 or 1")
    size = p.size + 1
    return Pattern(size, tuple(p.color(x, y) if y < p.size else c for x, y in iter_pairs(size)))


def is_convergent(p: Pattern) -> int | None:
    """The color c with p = p' followed by a c-constant last column, else None."""
    if p.size < 2:
        return None
    last = p.rows[-1]  # the colors p(x, size - 1), x < size - 1
    return 0 if last == 0 else 1 if last == (1 << p.size - 1) - 1 else None


def split_reducible(p: Pattern) -> tuple[Pattern, Pattern] | None:
    """A witness (p0, p1) with join(p0, p1) = p and both parts of size >= 2,
    minimizing |p0|; None when p is irreducible."""
    n = p.size
    for m in range(1, n - 1):  # glue position; |p0| = m+1, |p1| = n-m
        if all(p.color(x, y) == p.color(x, m) for x in range(m) for y in range(m + 1, n)):
            return p.restrict(range(m + 1)), p.restrict(range(m, n))
    return None


# ---------------------------------------------------------------------------
# Separability


@dataclass(frozen=True)
class SeparatingTree:
    """Leaf or an operator node combining >= 2 children left to right.

    op is "+" for the direct sum, "-" for the skew sum.  Evaluating the
    tree reproduces the permutation it was built from; the leaf count is
    the permutation size.
    """

    op: str | None  # None for leaves, "+" or "-" otherwise
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return sum(c.leaf_count() for c in self.children)

    def evaluate(self) -> Permutation:
        if self.is_leaf:
            return TRIVIAL_PERM
        parts = [c.evaluate() for c in self.children]
        out = parts[0]
        combine = direct_sum if self.op == "+" else skew_sum
        for part in parts[1:]:
            out = combine(out, part)
        return out

    def to_term(self) -> str:
        if self.is_leaf:
            return "0"
        inner = ",".join(c.to_term() for c in self.children)
        return f"{self.op}({inner})"


LEAF = SeparatingTree(None)

FORBIDDEN = (Permutation((1, 3, 0, 2)), Permutation((2, 0, 3, 1)))  # 1302, 2031


def separating_tree(perm: Permutation) -> SeparatingTree | None:
    """Recursive block decomposition into direct/skew sums.

    Splits greedily at every proper consecutive-interval boundary, so the
    children of a node are its finest one-level blocks.  Returns None when
    no proper split exists at some composite step.
    """
    v = perm.values
    n = perm.size
    if n == 1:
        return LEAF

    def prefix_cuts(kind: str) -> list[int]:
        # proper boundaries m where the first m values fill a bottom
        # interval ("+") or a top interval ("-")
        out = []
        lo = hi = v[0]
        for m in range(1, n):
            if hi - lo == m - 1:
                if kind == "+" and lo == 0:
                    out.append(m)
                elif kind == "-" and hi == n - 1:
                    out.append(m)
            lo = min(lo, v[m])
            hi = max(hi, v[m])
        return out

    for op in ("+", "-"):
        bounds = prefix_cuts(op)
        if not bounds:
            continue
        edges = [0] + bounds + [n]
        children = []
        for a, b in zip(edges, edges[1:]):
            block = v[a:b]
            base = min(block)
            sub = separating_tree(Permutation(tuple(x - base for x in block)))
            if sub is None:
                return None
            children.append(sub)
        return SeparatingTree(op, tuple(children))
    return None


def _least_1302(v) -> tuple | None:
    """Least position tuple a < b < c < d with v[c] < v[a] < v[d] < v[b],
    in O(n^2).  For b above v[a], the next position below v[a] is the
    least c and leaves d the most room, so (a, b) extends iff a value
    between v[a] and v[b] follows it; suffix tables per a answer both."""
    n = len(v)
    for a in range(n - 3):
        va = v[a]
        below = [n] * (n + 1)  # next position at or after j valued below va
        above = [n] * (n + 1)  # least value above va at or after j; n: none
        for j in range(n - 1, a, -1):
            below[j] = j if v[j] < va else below[j + 1]
            above[j] = above[j + 1] if v[j] < va else min(v[j], above[j + 1])
        for b in range(a + 1, n - 2):
            c = below[b + 1]
            if c >= n - 1:  # no c with a d after it, for this b or any later one
                break
            if v[b] > va and above[c + 1] < v[b]:
                return a, b, c, next(d for d in range(c + 1, n) if va < v[d] < v[b])
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
    if not is_transitive(p):
        return Trichotomy.EM_SIDE
    perm = pattern_to_perm(p)
    if perm is None:  # unreachable: transitive patterns code permutations
        raise InternalInvariant("transitive pattern failed to decode")
    if is_separable(perm):
        return Trichotomy.ADS_SIDE
    return Trichotomy.SIDE_1302
