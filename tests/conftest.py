import itertools

import pytest
from hypothesis import settings

from rpl.build import chain_order, mirror_double
from rpl.errors import ResourceLimit
from rpl.instances import order_from_ranks
from rpl.patterns import FiniteColoring, Pattern, VertexSet
from rpl.perms import Permutation, perm_coloring, perm_to_pattern

# every run draws the same examples, and no run replays failures saved by
# an earlier one
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


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


def unit_realization_search(f, pool, p: Pattern):
    """Reference for the row-mask search: the least realization of p in
    the ascending pool, one pair read per check.  Returns (hit as a tuple
    or None, admissions, visits).

    A plain depth-first search visits each candidate while enough of the
    pool is left; visits is their count.  The class of depth d is the
    positions q >= d with d's colors toward 0..d-1, and class 0's
    candidates from a vertex on are the pool vertices from there that
    carry those colors.  It makes the greedy-coloring cut from pair reads:
    the class is fresh when it is not the class of d - 1 less d - 1, and
    at a depth whose fresh class has 3+ positions pairing in one color b,
    each visit first colors class 0's candidates at or above it first-fit
    in ascending order (a vertex joins the first set holding no b-pair
    with it); fewer sets than positions end the depth at that visit.

    The mask search makes one more cut: a depth also ends once fewer of
    class 0's candidates are left than the class has positions.  No hit
    lies past it, so the reference keeps visiting there and counts the
    admissions made outside it: the nodes of the mask search."""
    n, m = len(pool), p.size

    def cls(d):
        return [q for q in range(d, m) if all(p.color(t, q) == p.color(t, d) for t in range(d))]

    sizes = [len(cls(d)) for d in range(m)]
    cuts = []  # per depth: b or None
    for d in range(m):
        here = cls(d)
        colors = {p.color(a, b) for a, b in itertools.combinations(here, 2)}
        fresh = d == 0 or here != [q for q in cls(d - 1) if q != d - 1]
        cuts.append(colors.pop() if len(here) >= 3 and fresh and len(colors) == 1 else None)
    admissions = visits = 0

    def fits(chosen, v):
        d = len(chosen)
        return all(f.color(u, v) == p.color(t, d) for t, u in enumerate(chosen))

    def first_fit_sets(vertices, b):
        sets = []
        for v in vertices:
            for s in sets:
                if all(f.color(u, v) != b for u in s):
                    s.append(v)
                    break
            else:
                sets.append([v])
        return len(sets)

    def extend(chosen, start, counted):
        nonlocal admissions, visits
        d = len(chosen)
        if d == m:
            return tuple(chosen)
        for i in range(start, n - (m - d) + 1):
            visits += 1
            later = [v for v in pool[i:] if fits(chosen, v)]  # class 0's candidates
            if cuts[d] is not None and first_fit_sets(later, cuts[d]) < sizes[d]:
                return None
            counted = counted and len(later) >= sizes[d]
            if fits(chosen, pool[i]):
                admissions += counted
                found = extend(chosen + [pool[i]], i + 1, counted)
                if found is not None:
                    return found
        return None

    return extend([], 0, True), admissions, visits


def pairwise_homogeneous(f, vertices, color: int) -> bool:
    """The pairwise homogeneity scan: every pair of the sorted vertices
    read by f.color, the first differing pair answering False; a repeated
    or out-of-horizon vertex raises what f.color raises on its first pair."""
    vs = sorted(vertices)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if f.color(vs[i], vs[j]) != color:
                return False
    return True


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
