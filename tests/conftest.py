import itertools

import pytest

from rpl.build import chain_order, mirror_double
from rpl.errors import ResourceLimit
from rpl.instances import order_from_ranks
from rpl.patterns import FiniteColoring, Pattern, VertexSet
from rpl.perms import Permutation, perm_coloring, perm_to_pattern


def perm(text: str) -> Permutation:
    return Permutation.from_text(text)


def pat(text: str) -> Pattern:
    return perm_to_pattern(Permutation.from_text(text))


def mirror_chain_coloring(n: int):
    """The mirror-doubled chain of n elements read as a coloring."""
    m = mirror_double(chain_order(n))
    return order_from_ranks([m.keys[x][0] for x in range(m.horizon)])


def single_zero_edge(n: int) -> FiniteColoring:
    """All 1 except the pair (0, 1)."""
    return FiniteColoring.from_function(
        n, lambda x, y: 0 if (x, y) == (0, 1) else 1
    )


BRUTE_FORCE_CAP = 24


def brute_force_max_homogeneous(f):
    """Maximum-cardinality homogeneous set over both colors of a
    FiniteColoring, exhaustively: the extractors' test oracle.

    Branch-and-bound over its row masks; ties prefer color 0.
    """
    n = f.horizon
    if n > BRUTE_FORCE_CAP:
        raise ResourceLimit(f"horizon {n} exceeds brute-force cap {BRUTE_FORCE_CAP}")
    full = (1 << n) - 1
    results = {}
    for color in (0, 1):
        adj = [r if color else r ^ full ^ (1 << x) for x, r in enumerate(f.rows)]
        best = 0  # bitmask of best clique

        def expand(cur: int, cand: int):
            nonlocal best
            if cur.bit_count() + cand.bit_count() <= best.bit_count():
                return
            if cand == 0:
                if cur.bit_count() > best.bit_count():
                    best = cur
                return
            v = (cand & -cand).bit_length() - 1
            expand(cur | (1 << v), cand & adj[v])
            expand(cur, cand & ~(1 << v))

        expand(0, full)
        results[color] = best
    c0, c1 = results[0].bit_count(), results[1].bit_count()
    color = 0 if c0 >= c1 else 1
    mask = results[color]
    return color, VertexSet(v for v in range(n) if mask >> v & 1)


def all_perms(size: int):
    for vals in itertools.permutations(range(size)):
        yield Permutation(vals)


def exhaustive_find(f, pool, p: Pattern):
    """Independent realization search: plain subset enumeration, no
    pruning, no shared code with the engine under test."""
    pool = sorted(pool)
    for combo in itertools.combinations(pool, p.size):
        good = True
        for a in range(p.size):
            for b in range(a + 1, p.size):
                if f.color(combo[a], combo[b]) != p.color(a, b):
                    good = False
                    break
            if not good:
                break
        if good:
            return combo
    return None


def order_type(values) -> tuple:
    """Pattern of a value sequence: each value replaced by its rank."""
    ranked = sorted(range(len(values)), key=lambda i: values[i])
    out = [0] * len(values)
    for r, i in enumerate(ranked):
        out[i] = r
    return tuple(out)


def contains_order_type(values, target) -> bool:
    """Quadruple-free containment check by direct enumeration; the
    independent separability oracle builds on this."""
    k = len(target)
    for combo in itertools.combinations(range(len(values)), k):
        if order_type([values[i] for i in combo]) == tuple(target):
            return True
    return False


def oracle_separable(p: Permutation) -> bool:
    """Independent separability oracle: containment of the two forbidden
    order types checked by direct enumeration on the value sequence."""
    v = list(p.values)
    return not (
        contains_order_type(v, (1, 3, 0, 2)) or contains_order_type(v, (2, 0, 3, 1))
    )


def zigzag(n: int) -> list:
    """Values of the zigzag separable permutation of size n: starting from
    one point, alternately take the direct sum with a point on top and
    the skew sum with a point below.  Its separating tree is a path of
    depth n - 1.  Value i is where the point added at step i starts (i
    for a point on top, 0 below), raised by each later skew step."""
    values, skews = [0] * n, 0
    for i in range(n - 1, 0, -1):
        values[i] = (i if i % 2 else 0) + skews
        skews += i % 2 == 0
    values[0] = skews
    return values


@pytest.fixture
def clique_2031():
    return perm_coloring(Permutation.from_text("2031"))
