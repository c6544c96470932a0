import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import all_perms, oracle_separable, pat, perm, zigzag
from rpl.errors import ContractViolation
from rpl.fractals import fractal_perm
from rpl.patterns import Pattern, find_realization, iter_pairs
from rpl.perms import (
    FORBIDDEN,
    LEAF,
    Permutation,
    SeparatingTree,
    _least_1302,
    Trichotomy,
    classify_trichotomy,
    converge,
    direct_sum,
    forbidden_witness,
    is_convergent,
    is_separable,
    is_transitive,
    join,
    pattern_to_perm,
    perm_coloring,
    perm_to_pattern,
    separating_tree,
    separation,
    skew_sum,
    split_reducible,
)


def test_permutation_validation_and_text():
    with pytest.raises(ContractViolation):
        Permutation((0, 0, 1))
    with pytest.raises(ContractViolation):
        Permutation(())
    p = perm("2031")
    assert p.to_text() == "2031"
    big = Permutation(tuple(range(11)))
    assert big.to_text() == "0,1,2,3,4,5,6,7,8,9,10"
    assert Permutation.from_text(big.to_text()) == big
    assert Permutation.from_text(" 0,1 ") == perm("01")
    # int() would read each of these as a permutation
    for text in ("0,+1", "0,1,2,3,4,5,6,7,8,9,1_0", "0, 1", "\u0661\u0660", "0,1,2,3,4,5,6,7,8,9,\uff11\uff10"):
        with pytest.raises(ContractViolation):
            Permutation.from_text(text)


def test_sum_examples():
    assert direct_sum(perm("0"), perm("0")) == perm("01")
    assert skew_sum(perm("0"), perm("0")) == perm("10")
    assert skew_sum(perm("01"), perm("01")) == perm("2301")


def test_sum_sizes_and_associativity_small():
    for a in all_perms(2):
        for b in all_perms(3):
            assert direct_sum(a, b).size == 5
            assert skew_sum(a, b).size == 5
    for trip in itertools.product(list(all_perms(2)) + list(all_perms(3)), repeat=3):
        a, b, c = trip
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert skew_sum(skew_sum(a, b), c) == skew_sum(a, skew_sum(b, c))


def test_join_examples():
    assert join(pat("01"), pat("01")) == pat("012")
    assert join(pat("01"), pat("10")) == pat("021")
    trivial = Pattern(1, ())
    for size in range(1, 6):
        for pm in all_perms(size):
            p = perm_to_pattern(pm)
            assert join(p, trivial) == p


def test_converge_examples():
    assert converge(Pattern(1, ()), 0) == pat("01")
    assert converge(Pattern(1, ()), 1) == pat("10")


def test_sum_laws_through_join_and_converge():
    for na in range(1, 5):
        for nb in range(1, 5):
            for a in all_perms(na):
                pa = perm_to_pattern(a)
                for b in all_perms(nb):
                    pb = perm_to_pattern(b)
                    assert perm_to_pattern(direct_sum(a, b)) == join(converge(pa, 0), pb)
                    assert perm_to_pattern(skew_sum(a, b)) == join(converge(pa, 1), pb)


def test_split_reducible_examples():
    assert split_reducible(pat("012")) == (pat("01"), pat("01"))
    assert split_reducible(pat("120")) is None
    assert split_reducible(pat("102")) is None
    # minimal left part: 0123 splits as (01, 012), not (012, 01)
    left, right = split_reducible(pat("0123"))
    assert left == pat("01") and right == pat("012")


def test_split_reducible_round_trip():
    for size in range(2, 6):
        for pm in all_perms(size):
            p = perm_to_pattern(pm)
            got = split_reducible(p)
            if got is not None:
                p0, p1 = got
                assert p0.size >= 2 and p1.size >= 2
                assert join(p0, p1) == p


def test_is_convergent():
    # 120 appends a bottom element to 12: constant last column of color 1
    assert is_convergent(pat("120")) == 1
    assert is_convergent(pat("102")) == 0
    assert is_convergent(pat("012")) == 0
    assert is_convergent(pat("021")) is None
    assert is_convergent(pat("201")) is None
    assert is_convergent(Pattern(1, ())) is None
    for size in range(2, 6):
        for pm in all_perms(size):
            p = perm_to_pattern(pm)
            c = is_convergent(p)
            if c is not None:
                assert converge(p.restrict(range(size - 1)), c) == p


def test_separability_examples():
    assert is_separable(perm("120"))
    for pm in all_perms(3):
        assert is_separable(pm)  # every size-3 permutation is separable
    assert not is_separable(perm("2031"))
    assert not is_separable(perm("1302"))
    w = forbidden_witness(perm("2031"))
    assert w is not None and w[0] == perm("2031") and tuple(w[1]) == (0, 1, 2, 3)


def generic_witness(pm: Permutation):
    """The least realization of 1302, else of 2031, by the generic search
    on the permutation's clique coloring."""
    for w in FORBIDDEN:
        hit = find_realization(perm_coloring(pm), range(pm.size), perm_to_pattern(w), None)
        if hit is not None:
            return w, tuple(hit)
    return None


def scan_witness(pm: Permutation):
    found = forbidden_witness(pm)
    return None if found is None else (found[0], tuple(found[1]))


def swap_up_to_two(draw, rng, values: list) -> Permutation:
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.randrange(len(values)), rng.randrange(len(values))
        values[i], values[j] = values[j], values[i]
    return Permutation(values)


@st.composite
def near_separable(draw, lo: int, hi: int):
    """A random direct/skew-sum tree, evaluated, then up to two values
    swapped, so both separability verdicts come up."""
    rng = draw(st.randoms(use_true_random=False))

    def tree(n):
        if n == 1:
            return [0]
        k = rng.randint(1, n - 1)
        a, b = tree(k), tree(n - k)
        if rng.random() < 0.5:
            return a + [v + k for v in b]
        return [v + n - k for v in a] + b

    return swap_up_to_two(draw, rng, tree(draw(st.integers(lo, hi))))


@st.composite
def near_zigzag(draw, lo: int, hi: int):
    """A zigzag permutation, the deepest separating tree, with up to two
    values swapped."""
    rng = draw(st.randoms(use_true_random=False))
    return swap_up_to_two(draw, rng, zigzag(draw(st.integers(lo, hi))))


def perms(lo: int, hi: int):
    shuffled = st.integers(lo, hi).flatmap(lambda n: st.permutations(range(n)))
    return st.one_of(near_separable(lo, hi), shuffled.map(Permutation))


def reference_separating_tree(pm: Permutation):
    """The recursive block decomposition: split at every proper prefix
    that fills a bottom ("+") or top ("-") value interval, and recurse on
    each block; None when a composite block has no such split."""
    v = pm.values
    n = pm.size
    if n == 1:
        return LEAF

    def prefix_cuts(kind: str) -> list:
        out = []
        lo = hi = v[0]
        for m in range(1, n):
            if hi - lo == m - 1 and (lo == 0 if kind == "+" else hi == n - 1):
                out.append(m)
            lo, hi = min(lo, v[m]), max(hi, v[m])
        return out

    for op in ("+", "-"):
        edges = [0] + prefix_cuts(op) + [n]
        if len(edges) == 2:
            continue
        children = []
        for a, b in zip(edges, edges[1:]):
            base = min(v[a:b])
            sub = reference_separating_tree(Permutation([x - base for x in v[a:b]]))
            if sub is None:
                return None
            children.append(sub)
        return SeparatingTree(op, tuple(children))
    return None


def reference_least_1302(v):
    """Least a < b < c < d with v[c] < v[a] < v[d] < v[b], in O(n^2): per
    a, suffix tables give the next position below v[a] (the best c for
    any b) and the least value above v[a] after it (the best d)."""
    n = len(v)
    for a in range(n - 3):
        va = v[a]
        below = [n] * (n + 1)
        above = [n] * (n + 1)
        for j in range(n - 1, a, -1):
            below[j] = j if v[j] < va else below[j + 1]
            above[j] = above[j + 1] if v[j] < va else min(v[j], above[j + 1])
        for b in range(a + 1, n - 2):
            c = below[b + 1]
            if c >= n - 1:
                break
            if v[b] > va and above[c + 1] < v[b]:
                return a, b, c, next(d for d in range(c + 1, n) if va < v[d] < v[b])
    return None


def assert_routes_match_references(pm: Permutation):
    tree, want = separating_tree(pm), reference_separating_tree(pm)
    assert (tree is None) == (want is None)
    if tree is not None:
        assert tree.to_term() == want.to_term()
    for seq in (pm.values, [pm.size - 1 - x for x in pm.values]):
        assert _least_1302(seq) == reference_least_1302(seq)


def test_routes_match_references_up_to_8():
    for size in range(1, 9):
        for pm in all_perms(size):
            assert_routes_match_references(pm)


@settings(max_examples=120, deadline=None)
@given(st.one_of(near_separable(1, 200), near_zigzag(1, 200)))
@example(fractal_perm(2, 10))
@example(Permutation(zigzag(200)))
def test_routes_match_references_random(pm):
    assert_routes_match_references(pm)


def test_separation_of_a_large_fractal_is_fast():
    pm = fractal_perm(2, 10)
    best = float("inf")
    for _ in range(3):  # the least of three, so a stalled CPU does not fail it
        start = time.perf_counter()
        tree, witness = separation(pm)
        best = min(best, time.perf_counter() - start)
    assert witness is None and tree.evaluate().size == 1024
    assert best < 0.1


def test_forbidden_witness_is_least_realization_up_to_7():
    for size in range(1, 8):
        for pm in all_perms(size):
            assert scan_witness(pm) == generic_witness(pm), pm.to_text()


@settings(max_examples=80, deadline=None)
@given(perms(8, 40))
def test_forbidden_witness_is_least_realization_random(pm):
    assert scan_witness(pm) == generic_witness(pm)


@settings(max_examples=150, deadline=None)
@given(perms(7, 12))
def test_separability_routes_match_oracle(pm):
    want = oracle_separable(pm)
    tree = separating_tree(pm)
    assert (tree is not None) == want
    if tree is not None:
        assert tree.evaluate() == pm
    assert is_separable(pm) == want


def test_separating_tree_example_and_evaluation():
    tree = separating_tree(perm("2301"))
    assert tree.to_term() == "-(+(0,0),+(0,0))"
    assert tree.evaluate().size == 4
    assert tree.evaluate() == perm("2301")
    assert separating_tree(perm("2031")) is None
    for size in range(1, 7):
        for pm in all_perms(size):
            tree = separating_tree(pm)
            if tree is not None:
                assert tree.evaluate() == pm
                assert tree.evaluate().size == size


def test_dual_route_agreement_and_counts_up_to_6():
    counts = []
    for size in range(1, 7):
        c = 0
        for pm in all_perms(size):
            mine = is_separable(pm)  # asserts internal agreement itself
            assert mine == oracle_separable(pm)
            c += mine
        counts.append(c)
    assert counts == [1, 2, 6, 22, 90, 394]


def test_separable_iff_no_diverging_irreducible_subpattern():
    # checked by exhaustive sub-pattern enumeration, sizes up to 7
    cache = {}

    def div_irr(p: Pattern) -> bool:
        key = (p.size, p.bits)
        if key not in cache:
            cache[key] = is_convergent(p) is None and split_reducible(p) is None
        return cache[key]

    for size in range(1, 8):
        for pm in all_perms(size):
            p = perm_to_pattern(pm)
            found = False
            for m in range(4, size + 1):
                for combo in itertools.combinations(range(size), m):
                    if div_irr(p.restrict(combo)):
                        found = True
                        break
                if found:
                    break
            assert found == (not is_separable(pm)), pm.to_text()


def test_trichotomy():
    assert classify_trichotomy(pat("120")) is Trichotomy.ADS_SIDE
    assert classify_trichotomy(Pattern(3, (0, 1, 0))) is Trichotomy.EM_SIDE
    assert classify_trichotomy(pat("1302")) is Trichotomy.SIDE_1302
    assert classify_trichotomy(pat("2031")) is Trichotomy.SIDE_1302
    # a permutation containing 2031 strictly
    assert classify_trichotomy(pat("24031")) is Trichotomy.SIDE_1302
    for size in range(1, 6):
        for pm in all_perms(size):
            got = classify_trichotomy(perm_to_pattern(pm))
            want = Trichotomy.ADS_SIDE if oracle_separable(pm) else Trichotomy.SIDE_1302
            assert got is want


def test_pattern_to_perm_requires_transitive():
    assert pattern_to_perm(Pattern(3, (1, 0, 1))) is None
    assert is_transitive(pat("31420")) is True


# ---------------------------------------------------------------------------
# The pair-by-pair pattern operations, kept as references for the row masks


def reference_perm_to_pattern(pm: Permutation) -> Pattern:
    v = pm.values
    return Pattern(pm.size, [0 if v[i] < v[j] else 1 for i, j in iter_pairs(pm.size)])


def reference_pattern_to_perm(p: Pattern):
    if not is_transitive(p):
        return None

    def precedes(y, x):  # an upward pair of color 0, or a downward one of color 1
        return p.color(y, x) == 0 if y < x else p.color(x, y) == 1

    return Permutation([sum(precedes(y, x) for y in range(p.size) if y != x) for x in range(p.size)])


def reference_restrict(p: Pattern, positions) -> Pattern:
    pos = list(positions)
    return Pattern(len(pos), [p.color(pos[i], pos[j]) for i, j in iter_pairs(len(pos))])


def reference_join(p: Pattern, q: Pattern) -> Pattern:
    lp = p.size
    size = lp + q.size - 1

    def col(x: int, y: int) -> int:
        if y < lp:
            return p.color(x, y)
        if x >= lp - 1:
            return q.color(x - lp + 1, y - lp + 1)
        return p.color(x, lp - 1)

    return Pattern(size, [col(x, y) for x, y in iter_pairs(size)])


def reference_converge(p: Pattern, c: int) -> Pattern:
    size = p.size + 1
    return Pattern(size, [p.color(x, y) if y < p.size else c for x, y in iter_pairs(size)])


def reference_split_reducible(p: Pattern):
    n = p.size
    for m in range(1, n - 1):
        if all(p.color(x, y) == p.color(x, m) for x in range(m) for y in range(m + 1, n)):
            return reference_restrict(p, range(m + 1)), reference_restrict(p, range(m, n))
    return None


def all_patterns(size: int):
    for bits in itertools.product((0, 1), repeat=size * (size - 1) // 2):
        yield Pattern(size, bits)


def assert_pattern_ops_match_references(p: Pattern):
    assert pattern_to_perm(p) == reference_pattern_to_perm(p)
    assert split_reducible(p) == reference_split_reducible(p)
    for c in (0, 1):
        assert converge(p, c) == reference_converge(p, c)


def test_pattern_ops_match_references_up_to_7():
    small = [p for size in range(1, 5) for p in all_patterns(size)]
    for p, q in itertools.product(small, repeat=2):  # joins up to size 7
        assert join(p, q) == reference_join(p, q)
    for size in range(1, 7):  # converged patterns up to size 7
        for p in all_patterns(size):
            assert_pattern_ops_match_references(p)
    for size in range(1, 6):
        for p in all_patterns(size):
            for keep in itertools.product((0, 1), repeat=size):
                pos = list(itertools.compress(range(size), keep))
                if pos:
                    assert p.restrict(pos) == reference_restrict(p, pos)
    for size in range(1, 9):
        for pm in all_perms(size):
            p = perm_to_pattern(pm)
            assert p == reference_perm_to_pattern(pm)
            if size <= 7:
                assert pattern_to_perm(p) == pm
                assert split_reducible(p) == reference_split_reducible(p)


@st.composite
def patterns(draw, lo: int, hi: int):
    """A pattern with uniform bits, or the coding of a permutation, so
    both transitive and non-transitive patterns come up."""
    if draw(st.booleans()):
        return perm_to_pattern(draw(perms(lo, hi)))
    size = draw(st.integers(lo, hi))
    pairs = size * (size - 1) // 2
    return Pattern(size, draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))


@settings(max_examples=200, deadline=None)
@given(patterns(1, 12), patterns(1, 12), st.data())
def test_pattern_ops_match_references_random(p, q, data):
    assert_pattern_ops_match_references(p)
    assert join(p, q) == reference_join(p, q)
    pos = sorted(data.draw(st.sets(st.integers(0, p.size - 1), min_size=1)))
    assert p.restrict(pos) == reference_restrict(p, pos)


@settings(max_examples=100, deadline=None)
@given(perms(1, 300))
def test_perm_coding_and_1302_scan_match_references_random(pm):
    assert perm_to_pattern(pm) == reference_perm_to_pattern(pm)
    for seq in (pm.values, [pm.size - 1 - x for x in pm.values]):
        assert _least_1302(seq) == reference_least_1302(seq)
