"""Self-similar basis permutations ("fractals"), block addressing,
embedding of separable permutations, and the two-sided partition lemma.

The k-ary fractal of dimension 0 is the one-point permutation; the
fractal of dimension n+1 combines k copies of the dimension-n fractal
with a direct sum when n is even and a skew sum when n is odd.  Its k
level-1 sub-intervals are its blocks, each a fractal one dimension lower.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ge

from .errors import ContractViolation, InternalInvariant, RangeError, ResourceLimit
from .patterns import Pattern, VertexSet
from .perms import Permutation, SeparatingTree, direct_sum, perm_to_pattern, separating_tree, skew_sum

SIZE_CAP = 1 << 15


@lru_cache(maxsize=None)
def fractal_perm(k: int, n: int) -> Permutation:
    """The k-ary fractal permutation of dimension n (size k**n)."""
    if k < 1 or n < 0:
        raise ContractViolation("need arity >= 1 and dimension >= 0")
    if k**n > SIZE_CAP:
        raise ResourceLimit(f"fractal size {k}**{n} exceeds cap {SIZE_CAP}")
    if n == 0:
        return Permutation((0,))
    prev = fractal_perm(k, n - 1)
    combine = direct_sum if (n - 1) % 2 == 0 else skew_sum
    result = prev
    for _ in range(k - 1):
        result = combine(result, prev)
    return result


def fractal_pattern(k: int, n: int) -> Pattern:
    return perm_to_pattern(fractal_perm(k, n))


def level_color(n: int) -> int:
    """Color between two level-1 blocks of a dimension-n fractal (n >= 1):
    0 under a direct-sum level, 1 under a skew-sum level."""
    if n < 1:
        raise ContractViolation("blocks only exist from dimension 1 on")
    return 0 if (n - 1) % 2 == 0 else 1


def navigate(k: int, n: int, path) -> tuple[int, int]:
    """(offset, length) of the sub-fractal addressed by a block path.

    The empty path is the whole interval; each step descends into one of
    the k blocks, which partition the parent in increasing position order.
    """
    path = tuple(path)
    if len(path) > n:
        raise ContractViolation(f"path of length {len(path)} exceeds dimension {n}")
    offset = 0
    for w in path:  # Horner's rule on the path's base-k digits
        if not 0 <= w < k:
            raise RangeError(f"path entry {w} out of range for arity {k}")
        offset = offset * k + w
    length = k ** (n - len(path))
    return offset * length, length


def occurrence_blocks(occurrence, k: int, n: int) -> list[VertexSet]:
    """The k blocks of a fractal occurrence: consecutive chunks one
    dimension lower, in increasing position order."""
    occ = VertexSet(occurrence)
    if len(occ) != k**n:
        raise ContractViolation(
            f"occurrence of size {len(occ)} is not a {k}-ary dimension-{n} fractal"
        )
    if n < 1:
        raise ContractViolation("dimension-0 occurrences have no blocks")
    w = k ** (n - 1)
    return [VertexSet(occ[i * w : (i + 1) * w]) for i in range(k)]


def embed_separable(perm: Permutation, k: int) -> tuple[int, VertexSet]:
    """Embed a separable permutation into the k-ary fractal.

    Constructive induction on the separating tree: a leaf sits at
    dimension 0; an operator node lands at the smallest dimension of the
    right parity strictly above all its children, each child placed in its
    own block (wide nodes are folded into nested same-operator groups).
    The tree is walked with an explicit stack, so its depth is not
    bounded by Python's recursion limit.  The returned positions are
    re-verified, from their base-k digits, to carry the permutation's
    order type in the fractal; no fractal is built, so the dimension has
    no size cap.
    """
    if k < 2:
        raise ContractViolation("embedding needs arity >= 2")
    tree = separating_tree(perm)
    if tree is None:
        raise ContractViolation(f"{perm.to_text()} is not separable")

    placed = []  # (dimension, positions) of the placed subtrees, left to right
    todo = [tree]  # subtrees to place, and (op, child count) once their children are placed
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            op, count = node
            kids, placed[-count:] = placed[-count:], []
            n = max(d for d, _ in kids) + 1
            n += (n % 2 == 1) != (op == "+")  # direct-sum levels have odd dimension
            width = k ** (n - 1)
            # a lower-dimensional embedding stays valid at the front of a
            # taller fractal, so block-local positions carry over directly
            placed.append((n, [block * width + q for block, (_, sub) in enumerate(kids) for q in sub]))
        elif node.is_leaf:
            placed.append((0, [0]))
        else:
            kids = node.children
            if len(kids) > k:  # fold the rest into a nested same-operator node
                kids = (*kids[: k - 1], SeparatingTree(node.op, kids[k - 1 :]))
            todo += [(node.op, len(kids)), *reversed(kids)]
    [(dim, positions)] = placed
    out = VertexSet(positions)
    if not _induces(out, k, dim, perm):
        raise InternalInvariant(
            f"embedding of {perm.to_text()} into arity-{k} dimension-{dim} "
            "fractal failed re-verification"
        )
    return dim, out


def partition_extract(a: int, b: int, n: int, vertex_colors) -> tuple[int, VertexSet]:
    """Two-sided pigeonhole on a vertex 2-coloring of the (a+b-1)-ary
    dimension-n fractal: an all-0 a-ary sub-fractal or an all-1 b-ary
    sub-fractal of the same dimension, preferring the 0 side.

    vertex_colors maps each position below (a+b-1)**n to {0,1}.
    """
    if a < 1 or b < 1 or n < 0:
        raise ContractViolation("need a, b >= 1 and n >= 0")
    k = a + b - 1
    total = k**n
    colors = [int(vertex_colors(v)) for v in range(total)]
    if any(c not in (0, 1) for c in colors):
        raise ContractViolation("vertex colors must be total over {0,1}")

    def recurse(offset: int, dim: int) -> tuple[int, list[int]]:
        if dim == 0:
            return colors[offset], [offset]
        width = k ** (dim - 1)
        verdicts = []
        for i in range(k):
            verdicts.append(recurse(offset + i * width, dim - 1))
        zeros = [pos for c, pos in verdicts if c == 0]
        if len(zeros) >= a:
            return 0, [p for pos in zeros[:a] for p in pos]
        ones = [pos for c, pos in verdicts if c == 1]
        if len(ones) < b:
            raise InternalInvariant(
                f"pigeonhole failed at dimension {dim}: "
                f"{len(zeros)} zero-blocks, {len(ones)} one-blocks of {k}"
            )
        return 1, [p for pos in ones[:b] for p in pos]

    side, positions = recurse(0, n)
    result = VertexSet(positions)
    arity = a if side == 0 else b
    if len(result) != arity**n:
        raise InternalInvariant("extracted sub-fractal has the wrong cardinality")
    if any(colors[v] != side for v in result):
        raise InternalInvariant("extracted sub-fractal is not monochromatic")
    if not is_subfractal(result, k, n, arity):
        raise InternalInvariant("extracted positions do not form the claimed shape")
    return side, result


def is_subfractal(positions, ambient_k: int, ambient_n: int, arity: int) -> bool:
    """Positions inside the ambient fractal induce the arity-ary fractal
    pattern of the same dimension."""
    return _induces(positions, ambient_k, ambient_n, fractal_perm(arity, ambient_n))


def _induces(positions, k: int, n: int, perm: Permutation) -> bool:
    """The ascending positions, one per point of perm, lie inside the k-ary
    dimension-n fractal and carry perm's order type there.  A position's
    fractal value is read off its base-k digits: the digit d at level L
    counts d * k**(L - 1), or (k - 1 - d) * k**(L - 1) under a skew level."""
    pos = list(positions)
    if len(pos) != perm.size or pos[-1] >= k**n:
        return False
    if pos[0] < 0 or any(map(ge, pos, pos[1:])):
        raise ContractViolation(f"positions {pos} are not ascending naturals")
    skews = [level_color(level) for level in range(1, n + 1)]
    values = []
    for x in pos:
        v, weight = 0, 1
        for skew in skews:
            x, d = divmod(x, k)
            v += (k - 1 - d if skew else d) * weight
            weight *= k
        values.append(v)
    return [v for _, v in sorted(zip(perm.values, values))] == sorted(values)  # same order type
