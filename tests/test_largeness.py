import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mirror_chain_coloring, pat
from rpl import largeness
from rpl.errors import ContractViolation, DegenerateInstance
from rpl.instances import (
    alternating_stable,
    constant_coloring,
    dipped_split_order,
    interleaved_split_order,
    order_from_ranks,
    split_order_coloring,
)
from rpl.largeness import (
    Grouping,
    LargeWitness,
    LargenessPredicate,
    _minimal_large_prefix,
    _homog_large_block,
    check_witness,
    em_grouping_extract,
    find_grouping,
    grouping_to_homogeneous,
    is_omega_n_large,
    minimal_large_size,
    omega_largeness,
    omega_n_decompose,
    pattern_largeness,
)
from rpl.patterns import FiniteColoring, Pattern, StableColoring, VertexSet, avoids


# ---------------------------------------------------------------------------
# Independent backtracking oracle (written against the definition, with a
# skip-or-take dynamic program instead of the library's greedy carve)


def bt_large(elements, n: int) -> bool:
    xs = tuple(sorted(set(elements)))
    if n == 0:
        return bool(xs)
    if not xs:
        return False
    return bt_count(xs[1:], n - 1) >= xs[0]


def bt_count(xs, n, _memo={}) -> int:
    key = (xs, n)
    if key in _memo:
        return _memo[key]
    if not xs:
        return 0
    best = bt_count(xs[1:], n)  # skip the first element
    width = bt_block(xs, n)
    if width is not None:
        best = max(best, 1 + bt_count(xs[width:], n))
    _memo[key] = best
    return best


def bt_block(xs, n):
    for t in range(1, len(xs) + 1):
        if bt_large(xs[:t], n):
            return t
    return None


def subsets_large(elements, n: int) -> bool:
    """Third route at tiny sizes: literal subset enumeration."""
    xs = tuple(sorted(set(elements)))
    if n == 0:
        return bool(xs)
    if not xs:
        return False
    m = xs[0]
    rest = xs[1:]
    return exists_split(rest, m, n - 1)


def exists_split(xs, needed, n):
    if needed == 0:
        return True
    for last in range(len(xs)):
        for size in range(1, last + 2):
            for combo in itertools.combinations(range(last + 1), size):
                if combo[-1] != last:
                    continue
                block = tuple(xs[i] for i in combo)
                if subsets_large(block, n) and exists_split(xs[last + 1 :], needed - 1, n):
                    return True
    return False


# ---------------------------------------------------------------------------
# Iterated largeness


def test_level_zero_and_examples():
    assert is_omega_n_large([5], 0)
    assert not is_omega_n_large([], 0)
    assert is_omega_n_large([2, 5, 9], 1)
    assert not is_omega_n_large([3, 4, 5], 1)
    big = [2] + [3, 4, 5, 6] + list(range(7, 15))
    assert is_omega_n_large(big, 2)
    w = omega_n_decompose(big, 2)
    assert [b.elements for b in w.blocks] == [(3, 4, 5, 6), tuple(range(7, 15))]
    assert check_witness(w)
    # the same blocks claiming level 0 do not witness level 2
    flat = LargeWitness(w.elements, 2, [LargeWitness(b.elements, 0, []) for b in w.blocks])
    assert not check_witness(flat)


def test_zero_min_quirk():
    # a set containing 0 demands zero sub-blocks at every positive level
    for n in range(1, 5):
        assert is_omega_n_large([0], n)
        assert is_omega_n_large([0, 3], n)


def test_level_one_equals_cardinality_test_sampled():
    rng = random.Random(3)
    for _ in range(300):
        size = rng.randint(1, 8)
        fs = sorted(rng.sample(range(31), size))
        assert is_omega_n_large(fs, 1) == (len(fs) > fs[0])


def test_greedy_matches_backtracking_sampled():
    rng = random.Random(4)
    for _ in range(250):
        size = rng.randint(1, 9)
        fs = tuple(sorted(rng.sample(range(15), size)))
        for n in range(4):
            assert is_omega_n_large(fs, n) == bt_large(fs, n), (fs, n)


def test_three_routes_tiny():
    for size in range(0, 6):
        for fs in itertools.combinations(range(7), size):
            for n in range(3):
                a = is_omega_n_large(fs, n)
                b = bt_large(fs, n)
                c = subsets_large(fs, n)
                assert a == b == c, (fs, n)


def test_superset_closure_sampled():
    rng = random.Random(9)
    for _ in range(200):
        size = rng.randint(1, 7)
        fs = set(rng.sample(range(18), size))
        extra = set(rng.sample(range(18), rng.randint(0, 4)))
        for n in range(4):
            if is_omega_n_large(fs, n):
                assert is_omega_n_large(fs | extra, n)


def test_minimal_large_size_consistency():
    for m in range(6):
        assert minimal_large_size(m, 1) == m + 1
    assert minimal_large_size(2, 2) == 13
    for m in range(5):
        for n in range(3):
            s = minimal_large_size(m, n)
            assert is_omega_n_large(range(m, m + s), n)
            if s > 1:
                assert not is_omega_n_large(range(m, m + s - 1), n)


@pytest.mark.parametrize("m,n,room", [
    (0, 3, 0), (3, 0, 0), (5, 1, 5), (5, 1, 6), (5, 1, 7), (2, 2, 12), (2, 2, 13),
    (2, 2, 14), (4, 2, 90), (4, 2, 91), (4, 2, 1000), (1, 3, 13), (1, 3, 14),
    (3, 1, 1), (2, 3, 60), (3, 3, 2000), (2, 5, 2000), (60, 3, 60),
])
def test_minimal_large_size_saturates_past_room(m, n, room):
    # the exact size when it is at most room, found by bisection on the
    # definition (largeness is closed under superset); room + 1 otherwise
    lo, hi = 0, room + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if is_omega_n_large(range(m, m + mid), n) else (mid, hi)
    assert minimal_large_size(m, n, room) == hi
    if hi <= room:
        assert minimal_large_size(m, n) == hi


def slicing_carve(xs, level):
    """The carve as first written: it slices off the tail for every block,
    so it is quadratic; kept as the reference for the indexed carve."""
    if not xs:
        return None
    if level == 0:
        return 1, largeness.LargeWitness((xs[0],), 0, [])
    blocks, pos = [], 1
    while len(blocks) < xs[0]:
        sub = slicing_carve(xs[pos:], level - 1)
        if sub is None:
            return None
        blocks.append(sub[1])
        pos += sub[0]
    return pos, largeness.LargeWitness(tuple(xs[:pos]), level, blocks)


def test_indexed_carve_matches_slicing_carve():
    rng = random.Random(12)
    inputs = [list(range(m, m + t)) for m in range(6) for t in (0, 1, 5, 13, 40, 200)]
    inputs += [sorted(rng.sample(range(2 * t), t)) for t in (3, 30, 300, 2000) for _ in range(4)]
    inputs.append(list(range(3, 2003)))
    for xs in inputs:
        for n in range(4):
            assert largeness._carve_prefix(xs, n) == slicing_carve(xs, n), (xs[:5], len(xs), n)


def test_carve_is_linear_on_long_runs():
    # 100,000 elements: the slicing carve copied the tail for every block
    assert not is_omega_n_large(range(3, 3 + 100_000), 3)
    size = minimal_large_size(12, 2)
    assert is_omega_n_large(range(12, 12 + size), 2)
    assert not is_omega_n_large(range(12, 12 + size - 1), 2)


def test_em_grouping_at_level_3_ends():
    # most roots have level-3 sizes far beyond the reservoir; the bound must stop counting
    out = em_grouping_extract(dipped_split_order(60), 3, 60, count=3)
    assert out.kind == "grouping" and out.blocks
    assert all(is_omega_n_large(blk, 3) for blk in out.blocks)


def test_em_grouping_budget_exhaustion_is_degenerate(monkeypatch):
    monkeypatch.setattr(largeness, "LARGE_BLOCK_SEARCH_BUDGET", 5)
    with pytest.raises(DegenerateInstance, match="color 0, level 1;"):
        em_grouping_extract(dipped_split_order(500), 1, 500, count=6)


# Exact node counts of the large-block search, one per reservoir element
# visited, with its answer as (size, first, last, sum) or None: budget
# N - 1 runs out, budget N answers.  Vertex 0 is large at every level, so
# the pools start above it.
LARGE_BLOCK_PINS = [
    ("dipped-60-level-2", lambda: (dipped_split_order(60), range(2, 60), 0, 2),
     149, (13, 2, 18, 116)),
    ("interleaved-300-level-2", lambda: (interleaved_split_order(300, 1), range(2, 300), 0, 2),
     2827, (18, 2, 29, 269)),
    ("alternating-200-level-2", lambda: (alternating_stable(200), list(range(2, 200, 3)), 1, 2),
     110, None),
]


@pytest.mark.parametrize("name, make, nodes, hit", LARGE_BLOCK_PINS,
                         ids=[p[0] for p in LARGE_BLOCK_PINS])
def test_large_block_search_node_count_pinned(monkeypatch, name, make, nodes, hit):
    f, reservoir, color, level = make()
    monkeypatch.setattr(largeness, "LARGE_BLOCK_SEARCH_BUDGET", nodes - 1)
    with pytest.raises(DegenerateInstance, match=f"color {color}, level {level};"):
        _homog_large_block(f, reservoir, color, level)
    monkeypatch.setattr(largeness, "LARGE_BLOCK_SEARCH_BUDGET", nodes)
    got = _homog_large_block(f, reservoir, color, level)
    assert (None if got is None else (len(got), got[0], got[-1], sum(got))) == hit


def count_carves(monkeypatch) -> list:
    """Count the carves that start at a chain's root, in a one-item list."""
    carves, carve = [0], largeness._carve_prefix

    def counted(xs, level, start=0):
        carves[0] += start == 0
        return carve(xs, level, start)

    monkeypatch.setattr(largeness, "_carve_prefix", counted)
    return carves


# carves of each pinned search: a chain shorter than its root's minimal
# large size is never carved, and only the hits reach that size
LARGE_BLOCK_CARVES = {"dipped-60-level-2": 1, "interleaved-300-level-2": 11,
                      "alternating-200-level-2": 0}


@pytest.mark.parametrize("name, make, nodes, hit", LARGE_BLOCK_PINS,
                         ids=[p[0] for p in LARGE_BLOCK_PINS])
def test_large_block_search_carves_only_chains_that_can_be_large(monkeypatch, name, make, nodes, hit):
    carves = count_carves(monkeypatch)
    _homog_large_block(*make())
    assert carves == [LARGE_BLOCK_CARVES[name]]


def test_large_block_search_carves_no_chain_too_short_to_be_large(monkeypatch):
    # no block exists: a color-0 set holds one top element at most, and
    # the pool's 78 other elements are fewer than the 91 that a chain
    # from its least non-top root needs; the budget ends the search
    carves = count_carves(monkeypatch)
    monkeypatch.setattr(largeness, "LARGE_BLOCK_SEARCH_BUDGET", 20_000)
    with pytest.raises(DegenerateInstance, match="color 0, level 2;"):
        _homog_large_block(interleaved_split_order(300, 2), range(2, 120), 0, 2)
    assert carves == [0]
    em = em_grouping_extract(dipped_split_order(500), 1, 500, count=6)
    assert em.kind == "grouping" and carves == [4]


# ---------------------------------------------------------------------------
# Groupings


def test_find_grouping_constant():
    f = constant_coloring(40, 0)
    g = find_grouping(f, omega_largeness(1), 3, 40)
    assert g.complete and g.check()
    assert [tuple(b) for b in g.blocks] == [(0,), (1, 2), (3, 4, 5, 6)]


def test_find_grouping_needs_constancy():
    st = split_order_coloring(60, top={1, 4, 9, 16, 25, 36, 49})
    g = find_grouping(st, omega_largeness(1), 4, 60)
    assert g.check()
    assert len(g.blocks) >= 2


def test_find_grouping_obstruction():
    f = constant_coloring(30, 1)
    notion = pattern_largeness(pat("01"), f)  # no color-0 pair anywhere
    g = find_grouping(f, notion, 2, 30)
    assert not g.complete
    assert g.obstruction["reason"] == "no large subset in the reservoir"
    assert g.blocks == []


def test_pattern_largeness_grouping():
    f = constant_coloring(30, 0)
    notion = pattern_largeness(pat("012"), f)
    g = find_grouping(f, notion, 3, 30)
    assert g.complete and g.check()
    assert all(len(b) >= 3 for b in g.blocks)


# ---------------------------------------------------------------------------
# Grouping to homogeneous


def build_grouping(f, blocks, notion):
    return Grouping([VertexSet(b) for b in blocks], notion, f, True)


def test_grouping_to_homogeneous_positive():
    # blocks are color-0 pairs (realizing the front pattern of 012) with
    # cross color 1, so the coloring avoids 012 and minima come out
    # 1-homogeneous
    from rpl.patterns import FiniteColoring

    f = FiniteColoring.from_function(6, lambda x, y: 0 if x // 2 == y // 2 else 1)
    avoided = pat("012")
    notion = pattern_largeness(pat("01"), f)
    g = build_grouping(f, [(0, 1), (2, 3), (4, 5)], notion)
    assert g.check()
    assert avoids(f, range(6), avoided)
    out = grouping_to_homogeneous(f, avoided, g)
    assert out.kind == "homogeneous"
    assert out.color == 1
    assert tuple(out.vertices) == (0, 2, 4)


def test_grouping_to_homogeneous_two_blocks():
    from rpl.patterns import FiniteColoring

    f = FiniteColoring.from_function(4, lambda x, y: 0 if x // 2 == y // 2 else 1)
    g = build_grouping(f, [(0, 1), (2, 3)], pattern_largeness(pat("01"), f))
    out = grouping_to_homogeneous(f, pat("012"), g)
    assert out.kind == "homogeneous" and len(out.vertices) == 2


def test_grouping_to_homogeneous_violation_certificate():
    # the all-0 coloring contains 012, so the avoidance precondition is
    # violated and a realization certificate comes back
    f = constant_coloring(6, 0)
    g = build_grouping(f, [(0, 1), (2, 3), (4, 5)], pattern_largeness(pat("01"), f))
    out = grouping_to_homogeneous(f, pat("012"), g)
    assert out.kind == "violation"
    from rpl.patterns import realizes

    assert realizes(f, out.certificate, pat("012"))


def test_grouping_to_homogeneous_contracts():
    f = constant_coloring(6, 0)
    g = build_grouping(f, [(0, 1), (2, 3)], pattern_largeness(pat("01"), f))
    with pytest.raises(ContractViolation):
        grouping_to_homogeneous(f, pat("201"), g)  # divergent pattern


# ---------------------------------------------------------------------------
# Transfer fact and the grouping extraction


def test_two_step_transfer_on_dipped_fixture():
    st = dipped_split_order(200)
    checked = 0
    for a in range(0, 40):
        for b in range(a + 1, 44):
            if st.color(a, b) != 0:
                continue
            for c in range(b + 1, 48):
                if st.color(a, c) == 1 and st.color(b, c) == 1:
                    for d in range(c + 1, min(c + 20, 200)):
                        assert st.color(a, d) == st.color(b, d)
                        checked += 1
    assert checked > 0


def test_large_block_search_is_least_first():
    """The block search under em_grouping_extract returns the least
    homogeneous large subset of the pool in tuple order, the order in
    which an ascending depth-first search meets them; checked against
    subset enumeration and the backtracking oracle."""
    rng = random.Random(23)
    for trial in range(60):
        h = rng.randint(3, 10)
        f = FiniteColoring.from_function(h, lambda x, y: rng.randint(0, 1))
        pool = sorted(rng.sample(range(h), rng.randint(1, h)))
        for color in (0, 1):
            for level in (0, 1, 2):
                ref = min((s for k in range(1, len(pool) + 1)
                           for s in itertools.combinations(pool, k)
                           if bt_large(s, level) and all(
                               f.color(x, y) == color for x, y in itertools.combinations(s, 2))),
                          default=None)
                got = _homog_large_block(f, pool, color, level)
                assert (None if got is None else tuple(got)) == ref


def test_em_grouping_on_dipped_fixture():
    st = dipped_split_order(500)
    out = em_grouping_extract(st, 1, 500, count=6)
    assert out.kind == "grouping"
    assert out.color == 0
    assert len(out.blocks) >= 4
    starts = [(b[0], b[-1], len(b)) for b in out.blocks]
    assert starts == [(0, 0, 1), (16, 32, 17), (40, 80, 41), (112, 224, 113)]
    for blk in out.blocks:
        assert is_omega_n_large(blk, 1)
    # cross-color constancy re-scan
    for i, a in enumerate(out.blocks):
        for b in out.blocks[i + 1 :]:
            assert len({st.color(x, y) for x in a for y in b}) == 1


def test_em_grouping_constant_redirects_to_minima():
    st = split_order_coloring(60, set())
    out = em_grouping_extract(st, 1, 60, count=3)
    assert out.kind == "homogeneous-minima"
    assert out.vertices == (0, 1, 3, 7, 15)
    for i, x in enumerate(out.vertices):
        for y in list(out.vertices)[i + 1 :]:
            assert st.color(x, y) == out.color


def test_em_grouping_mirror_double_redirects():
    st = mirror_chain_coloring(250)
    out = em_grouping_extract(st, 1, 500, count=4)
    assert out.kind == "homogeneous-minima"
    assert (out.color, out.vertices) == (0, (0, 2, 6, 18, 54, 162))


def test_em_grouping_cuts_past_the_witness():
    # block {0} of color 1 has the witness 1, color(0, 1) = 0; the next
    # block starts past it
    st = order_from_ranks([1, 9, 8, 5, 10, 2, 3, 7, 4, 0, 11, 6])
    out = em_grouping_extract(st, 1, 12, count=4)
    assert (out.kind, out.color, out.blocks) == ("grouping", 1, [(0,), (2, 3, 5)])


def test_em_minima_thin_by_every_minimum():
    # nothing sees 0 in color 1, so minima gather from block {0} on; the
    # next minimum, 1, sees 3 in color 1, so 3 must leave the reservoir
    h = 60
    settle = [x + 1 for x in range(h)]
    settle[1] = 4
    st = StableColoring(h, [0] * h, settle, [(1, 3, 1)])
    out = em_grouping_extract(st, 1, h, count=3)
    assert (out.kind, out.color, out.vertices) == ("homogeneous-minima", 0, (0, 1, 4, 9, 19))


def test_find_grouping_on_run_structured_fixture():
    from rpl.instances import blocked_split_order

    st = blocked_split_order(500, 3)
    g = find_grouping(st, omega_largeness(1), 4, 500)
    assert g.complete and g.check()
    assert [(b[0], b[-1], len(b)) for b in g.blocks] == [
        (0, 0, 1), (1, 2, 2), (3, 6, 4), (7, 14, 8)
    ]


def test_find_grouping_mirror_double_partial_is_honest():
    # every prefix block of the doubled chain straddles both limit
    # classes, so majority thinning eventually empties the reservoir;
    # the partial grouping still verifies and the report names the cause
    st = mirror_chain_coloring(250)
    g = find_grouping(st, omega_largeness(1), 4, 500)
    assert not g.complete
    assert g.check()
    assert g.obstruction["reason"] == "reservoir emptied by majority thinning"
    assert len(g.blocks) == 2


def linear_large_prefix(notion, pool):
    """Reference for the bisection: the shortest large prefix, grown one
    element at a time."""
    for t in range(1, len(pool) + 1):
        if notion.holds(pool[:t]):
            return pool[:t]
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_minimal_large_prefix_bisects_to_linear_answer(data):
    n = data.draw(st.integers(1, 14), label="n")
    pairs = n * (n - 1) // 2
    f = FiniteColoring(n, data.draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))
    m = data.draw(st.integers(1, 4), label="m")
    p = Pattern(m, data.draw(st.lists(st.integers(0, 1), min_size=m * (m - 1) // 2,
                                      max_size=m * (m - 1) // 2)))
    # find_grouping hands over ascending pools: a sorted prefix of a permutation
    pool = data.draw(st.permutations(range(n)).flatmap(
        lambda perm: st.integers(0, n).map(lambda k: sorted(perm[:k]))), label="pool")
    for notion in (pattern_largeness(p, f), omega_largeness(data.draw(st.integers(0, 2)))):
        assert _minimal_large_prefix(notion, pool) == linear_large_prefix(notion, pool)


def test_minimal_large_prefix_makes_log_many_searches(monkeypatch):
    calls = []
    holds = LargenessPredicate.holds
    monkeypatch.setattr(LargenessPredicate, "holds",
                        lambda self, xs: calls.append(len(xs)) or holds(self, xs))
    f = FiniteColoring.constant(64, 0)
    assert _minimal_large_prefix(pattern_largeness(pat("012"), f), list(range(64))) == [0, 1, 2]
    assert calls == [1, 2, 4, 3]  # the linear scan made 3 here
    calls.clear()
    assert _minimal_large_prefix(pattern_largeness(pat("012"), f.dual()), list(range(64))) is None
    assert calls == [1, 2, 4, 8, 16, 32, 64]  # the linear scan made 64


def test_find_grouping_asks_the_final_search_once(monkeypatch):
    calls = []
    holds = LargenessPredicate.holds
    monkeypatch.setattr(LargenessPredicate, "holds",
                        lambda self, xs: calls.append(list(xs)) or holds(self, xs))
    # the whole reservoir avoids 2031: the prefix search ends on the full
    # reservoir, and that search is not repeated
    f = interleaved_split_order(200, 1)
    g = find_grouping(f, pattern_largeness(pat("2031"), f), 3, 200)
    assert g.obstruction["reason"] == "no large subset in the reservoir"
    assert [len(xs) for xs in calls] == [1, 2, 4, 8, 16, 32, 64, 128, 200]
    # the omega route carves instead of searching, so holds cross-checks it
    calls.clear()
    g = find_grouping(constant_coloring(12, 0), omega_largeness(2), 3, 12)
    assert g.obstruction["reservoir_size"] == 7
    assert calls[0] == list(range(5, 12))
