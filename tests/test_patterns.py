import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_perms, exhaustive_find, pat, perm, unit_realization_search
from rpl.errors import BudgetExhausted, ContractViolation, RangeError
from rpl.patterns import (
    FiniteColoring,
    Pattern,
    StableColoring,
    VertexSet,
    avoids,
    find_realization,
    iter_pairs,
    realizes,
)
from rpl.extract import find_homogeneous_block
from rpl.fractals import fractal_pattern, fractal_perm
from rpl.perms import Permutation, is_transitive, pattern_to_perm, perm_coloring, perm_to_pattern
from rpl import patterns
from rpl.instances import (
    alternating_stable,
    avoiding_family,
    dipped_split_order,
    grouped_unbalanced,
    interleaved_split_order,
    order_from_ranks,
    repaired_random_unbalanced,
)


def test_bits_follow_canonical_pair_order():
    # (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert list(iter_pairs(4)) == order
    for k in range(6):
        bits = tuple(int(i == k) for i in range(6))
        p = Pattern(4, bits)
        assert tuple(p.color(i, j) for i, j in order) == p.bits == bits
    with pytest.raises(ContractViolation):
        p.color(2, 2)
    with pytest.raises(ContractViolation):
        p.color(3, 1)


def test_vertex_set_rejects_duplicates():
    assert tuple(VertexSet([3, 1, 2])) == (1, 2, 3)
    with pytest.raises(ContractViolation):
        VertexSet([1, 1])


def test_pattern_construction_and_query():
    p = Pattern(3, (0, 1, 0))
    assert p.color(0, 1) == 0 and p.color(0, 2) == 1 and p.color(1, 2) == 0
    with pytest.raises(ContractViolation):
        p.color(1, 1)
    with pytest.raises(ContractViolation):
        p.color(2, 1)
    with pytest.raises(ContractViolation):
        Pattern(3, (0, 1))


def test_dual_is_involution_and_examples():
    # the two size-4 forbidden permutations are dual
    assert pat("2031").dual() == pat("1302")
    assert Pattern.constant(3, 0).dual() == Pattern.constant(3, 1)
    for size in range(1, 6):
        for p in (Pattern.constant(size, 0), Pattern.constant(size, 1)):
            assert p.dual().dual() == p
    for pm in all_perms(4):
        q = perm_to_pattern(pm)
        assert q.dual().dual() == q


def test_realizes_constant_and_trivial():
    f = FiniteColoring.constant(10, 0)
    assert realizes(f, [3, 7, 9], pat("012"))
    assert realizes(f, [5], Pattern(1, ()))
    with pytest.raises(ContractViolation):
        realizes(f, [1, 2], pat("012"))
    with pytest.raises(RangeError):
        realizes(f, [8, 9, 10], pat("012"))


def test_realizes_perm_2031_coding(clique_2031):
    # edge bits of the 2031 clique: (0,1)=1,(0,2)=0,(0,3)=1,(1,2)=0,(1,3)=0,(2,3)=1
    bits = [clique_2031.color(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert bits == [1, 0, 1, 0, 0, 1]
    assert realizes(clique_2031, [0, 1, 2, 3], pat("2031"))
    assert not realizes(clique_2031, [0, 1, 2, 3], pat("1302"))


def test_find_realization_examples(clique_2031):
    f = FiniteColoring.constant(10, 0)
    hit = find_realization(f, range(10), pat("01234"))
    assert hit is not None and len(hit) == 5
    assert find_realization(f, range(10), pat("10")) is None  # proven absence
    assert find_realization(clique_2031, range(4), pat("1302")) is None


def test_find_realization_budget_distinct_from_absence():
    f = FiniteColoring.constant(12, 0)
    with pytest.raises(BudgetExhausted):
        find_realization(f, range(12), pat("10"), budget=3)
    for reservoir in (range(12), [5]):  # [5] is shorter than the pattern: no search runs
        with pytest.raises(ContractViolation):
            find_realization(f, reservoir, pat("10"), budget=0)


def test_avoids_examples():
    f1 = FiniteColoring.constant(8, 1)
    assert avoids(f1, range(8), pat("012"))
    f0 = FiniteColoring.constant(3, 0)
    assert not avoids(f0, range(3), pat("012"))


def test_split_order_avoids_1302_on_horizon():
    # interleaved two-part order, exhaustively scanned at small horizon
    inst = interleaved_split_order(40, seed=9)
    assert avoids(inst, range(40), pat("1302"))
    assert avoids(inst, range(40), pat("2031"))
    assert avoids(inst, range(40), pat("2301"))


def test_is_transitive():
    assert is_transitive(pat("120"))
    assert not is_transitive(Pattern(3, (0, 1, 0)))
    assert not is_transitive(Pattern(3, (1, 0, 1)))
    for size in range(1, 6):
        assert is_transitive(Pattern.constant(size, 0))
        assert is_transitive(Pattern.constant(size, 1))


def test_random_orders_decode_to_their_ranks():
    rng = random.Random(31)
    for n in (1000, 2500, 4000):
        ranks = rng.sample(range(n), n)
        assert pattern_to_perm(order_from_ranks(ranks)) == Permutation(ranks)


def test_one_flipped_pair_is_an_order_only_between_adjacent_values():
    """Flipping the pair of the positions valued 100 and 100 + gap swaps
    the two values when gap is 1; otherwise the position valued 101 makes
    a 3-cycle with them."""
    ranks = random.Random(5).sample(range(300), 300)
    rows = perm_to_pattern(Permutation(ranks)).rows
    for gap in (1, 2, 150):
        x, y = sorted((ranks.index(100), ranks.index(100 + gap)))
        flipped = [r ^ (1 << y if z == x else 1 << x if z == y else 0) for z, r in enumerate(rows)]
        swapped = ranks[:]
        swapped[x], swapped[y] = ranks[y], ranks[x]
        want = Permutation(swapped) if gap == 1 else None
        for f in (FiniteColoring._from_rows(300, flipped), StableColoring.from_rows(300, flipped)):
            assert pattern_to_perm(f) == want
            assert is_transitive(f) == (gap == 1)


def test_a_stable_coloring_without_vertices_is_transitive():
    f = StableColoring(0, [], [])
    assert pattern_to_perm(f) is None and is_transitive(f)


def test_is_transitive_runs_no_realization_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a realization search ran")

    monkeypatch.setattr(patterns, "_realization_search", refuse)
    assert is_transitive(order_from_ranks(random.Random(2).sample(range(500), 500)))
    assert is_transitive(interleaved_split_order(500, 3))
    assert not is_transitive(Pattern(3, (0, 1, 0)))
    assert not is_transitive(alternating_stable(20))


def test_pattern_perm_round_trips():
    # one direction pinned by hand
    assert perm_to_pattern(perm("2031")).bits == (1, 0, 1, 0, 0, 1)
    for size in range(1, 7):
        for pm in all_perms(size):
            assert pattern_to_perm(perm_to_pattern(pm)) == pm
    assert pattern_to_perm(Pattern(3, (0, 1, 0))) is None


def test_transitive_coding_all_perms_up_to_7():
    for size in range(1, 8):
        for pm in all_perms(size):
            assert is_transitive(perm_to_pattern(pm))


def test_engine_agrees_with_independent_enumerator():
    """Both searches return the lexicographically least hit, which the
    enumerator finds first; block search is checked as a constant pattern."""
    rng = random.Random(31)
    patterns = [pat(t) for t in ("01", "10", "012", "120", "2031", "1302", "0213")]
    for trial in range(40):
        n = rng.randint(4, 10)
        f = FiniteColoring.from_function(n, lambda x, y: rng.randint(0, 1))
        for p in patterns:
            if p.size > n:
                continue
            mine = find_realization(f, range(n), p, budget=None)
            ref = exhaustive_find(f, range(n), p)
            assert (None if mine is None else tuple(mine)) == ref
            if mine is not None:
                assert realizes(f, mine, p)
        pool = sorted(rng.sample(range(n), rng.randint(1, n)))
        for size in range(1, len(pool) + 1):
            for c in (0, 1):
                blk = find_homogeneous_block(f, pool, size, c)
                ref = exhaustive_find(f, pool, Pattern.constant(size, c))
                assert (None if blk is None else tuple(blk)) == ref


# Exact node counts of realization search, one per admitted vertex, with
# its answer as (size, first, last, sum) or None.  The search that charged
# a node for every candidate it passed over took 7,085, 346 and 1,190.
REALIZATION_PINS = [
    ("fractal-32-1302", lambda: (perm_coloring(fractal_perm(2, 5)), range(32), pat("1302")),
     587, None),
    ("unbalanced-30-constant-4",
     lambda: (repaired_random_unbalanced(30, 4, 1), range(30), Pattern.constant(4, 0)),
     11, None),
    ("fractal-1600-30ary",
     lambda: (perm_coloring(fractal_perm(40, 2)), range(1600), fractal_pattern(30, 2)),
     900, (900, 0, 1189, 535050)),
]


@pytest.mark.parametrize("name, make, nodes, hit", REALIZATION_PINS,
                         ids=[p[0] for p in REALIZATION_PINS])
def test_find_realization_node_count_pinned(name, make, nodes, hit):
    f, reservoir, p = make()
    with pytest.raises(BudgetExhausted) as exc:
        find_realization(f, reservoir, p, budget=nodes - 1)
    assert exc.value.nodes == nodes
    got = find_realization(f, reservoir, p, budget=nodes)
    assert (None if got is None else (len(got), got[0], got[-1], sum(got))) == hit


def test_oversized_pattern_is_answered_before_search(monkeypatch):
    # 3,600 positions in a 150-vertex pool: None without a table or a node
    def refuse(*args):
        raise AssertionError("an oversized pattern reached the search")

    monkeypatch.setattr(patterns, "_realization_search", refuse)
    assert find_realization(dipped_split_order(400), range(150), fractal_pattern(60, 2)) is None


@st.composite
def finite_coloring(draw, most=16):
    n = draw(st.integers(1, most))
    pairs = n * (n - 1) // 2
    return FiniteColoring(n, draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))


@st.composite
def stable_coloring(draw, most=16):
    """A StableColoring with windows 1..7, which may reach past the
    horizon, and random overrides: some equal to their limit, some on a
    pair past the horizon.  Vertex 0's window is at least 2, so block
    search never takes the window-1 closed form, which expands no nodes."""
    h = draw(st.integers(1, most))
    limits = draw(st.lists(st.integers(0, 1), min_size=h, max_size=h))
    settle = [x + draw(st.integers(2 if x == 0 else 1, 7)) for x in range(h)]
    overrides = [(x, y, draw(st.integers(0, 1)))
                 for x in range(h) for y in range(x + 1, settle[x]) if draw(st.booleans())]
    return StableColoring(h, limits, settle, overrides)


def assert_search_matches_unit_steps(search, f, pool, p):
    hit, nodes, visits = unit_realization_search(f, pool, p)
    assert nodes <= visits
    if nodes > 1:
        with pytest.raises(BudgetExhausted) as exc:
            search(nodes - 1)
        assert exc.value.nodes == nodes
    got = search(max(nodes, 1))
    assert (None if got is None else tuple(got)) == hit


@settings(max_examples=600, deadline=None)
@given(f=st.one_of(finite_coloring(), stable_coloring()), data=st.data())
def test_mask_search_matches_unit_steps(f, data):
    """Same hit as the unit-step reference, and its admissions as the
    node count: budget N - 1 raises at node N, budget N returns the hit;
    no search admits more vertices than the reference visits.  Pools are
    random subsets of the horizon, empty ones included, handed over
    shuffled.  Block search is the search of the constant pattern on every
    coloring drawn here, none of them window-1.  Patterns range from one
    position class (constant) over few (fractals) to many (random); the
    reference makes the three cuts independently."""
    pool = sorted(data.draw(st.sets(st.integers(0, f.horizon - 1)), label="pool"))
    shuffled = data.draw(st.permutations(pool), label="order")
    p = data.draw(st.one_of(
        st.builds(Pattern.constant, st.integers(1, 7), st.integers(0, 1)),
        st.sampled_from([fractal_pattern(k, d) for k in range(1, 10) for d in range(4)
                         if k**d <= 9]),
        small_pattern(7)), label="pattern")
    assert_search_matches_unit_steps(
        lambda budget: find_realization(f, shuffled, p, budget), f, pool, p)
    size = data.draw(st.integers(1, 5), label="size")
    for c in (0, 1):
        assert_search_matches_unit_steps(
            lambda budget: find_homogeneous_block(f, shuffled, size, c, budget),
            f, pool, Pattern.constant(size, c))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(f=st.one_of(finite_coloring(10), stable_coloring(10)), data=st.data())
def test_cut_searches_match_subset_enumeration(f, data):
    """The searches with their greedy-coloring cut against plain subset
    enumeration (itertools.combinations): the same least hit, or None, on
    a list pool and a range pool, for constant patterns (one class, cut
    at depth 0 when it is too large), fractal patterns (fresh one-color
    blocks) and random ones, and for blocks of every size up to one past
    the pool."""
    h = f.horizon
    listed = sorted(data.draw(st.sets(st.integers(0, h - 1)), label="pool"))
    a = data.draw(st.integers(0, h), label="start")
    b = data.draw(st.integers(a, h), label="stop")
    p = data.draw(st.one_of(
        st.builds(Pattern.constant, st.integers(1, 6), st.integers(0, 1)),
        st.sampled_from([fractal_pattern(k, d) for k in range(2, 10) for d in range(2, 4)
                         if k**d <= 9]),
        small_pattern(6)), label="pattern")
    for pool in (listed, range(a, b)):
        got = find_realization(f, pool, p, budget=None)
        assert (None if got is None else tuple(got)) == exhaustive_find(f, pool, p)
        for size in range(1, len(pool) + 2):
            for c in (0, 1):
                got = find_homogeneous_block(f, pool, size, c)
                want = exhaustive_find(f, pool, Pattern.constant(size, c))
                assert (None if got is None else tuple(got)) == want


@settings(max_examples=300, deadline=None)
@given(f=stable_coloring())
def test_upper_rows_agree_with_color(f):
    h = f.horizon
    for x in range(h):
        assert f.upper_row(x) == sum(f.color(x, y) << y for y in range(x + 1, h))


@settings(max_examples=200, deadline=None)
@given(f=finite_coloring())
def test_row_masks_agree_with_color(f):
    n = f.horizon
    copy = FiniteColoring(n, f.bits)
    for x in range(n):
        assert f.rows[x] == sum(1 << y for y in range(n) if y != x and f.color(x, y) == 1)
    # a copy built from the bits has the same rows, hash and file form
    assert f == copy and hash(f) == hash(copy) and f.to_text() == copy.to_text()
    fd = f.dual()  # a new coloring with rows of its own
    full = (1 << n) - 1
    for x in range(n):
        assert fd.rows[x] == f.rows[x] ^ full ^ (1 << x)


def pairwise_rows(n, color):
    """Row masks rebuilt pair by pair: bit y of row x is color(min, max)."""
    return tuple(sum(color(min(x, y), max(x, y)) << y for y in range(n) if y != x)
                 for x in range(n))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_pattern_rows_match_pairwise_rebuild(n, data):
    pairs = n * (n - 1) // 2
    bits = data.draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs), label="bits")
    color = dict(zip(iter_pairs(n), bits))
    for cls in (Pattern, FiniteColoring):
        p = cls(n, bits)
        assert p.rows == pairwise_rows(n, lambda x, y: color[x, y])
        assert p.bits == tuple(bits)
        assert p.dual().rows == pairwise_rows(n, lambda x, y: 1 - color[x, y])
        assert type(p.dual()) is cls and p.dual().dual() == p
        for c in (0, 1):
            assert cls.constant(n, c).rows == pairwise_rows(n, lambda x, y: c)
            assert cls.constant(n, c) == cls(n, [c] * pairs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_coloring_text_parse_matches_per_character_parse(n, data):
    lines = [data.draw(st.text("01", min_size=n - 1 - x, max_size=n - 1 - x), label=f"row {x}")
             for x in range(n - 1)]
    pad = st.text(" \t", max_size=2)
    text = "\n".join(data.draw(pad) + ln + data.draw(pad) for ln in [str(n), *lines])
    text += data.draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]), label="end")
    color = {}
    for x, line in enumerate(lines):  # one character per pair
        for k, ch in enumerate(line):
            color[x, x + 1 + k] = int(ch)
    f = FiniteColoring.from_text(text)
    assert f.rows == pairwise_rows(n, lambda x, y: color[x, y])
    assert f.to_text() == "\n".join([str(n), *lines]) + "\n"


def test_mask_search_takes_one_step_per_admission():
    # full searches on grouped_unbalanced(48, 4, 0), which avoids both
    # patterns: pinned node counts, one per admitted vertex.  0123 is a
    # clique of one color, which the greedy coloring at depth 0 rules out
    # before any admission; no class of 0231 is a clique of 3+ positions,
    # so it has no such cut.  With a node per candidate visited they took
    # 1 and 55,476 nodes
    f = grouped_unbalanced(48, 4, 0)
    assert unit_realization_search(f, range(48), pat("0123"))[1] == 0
    for text, nodes in (("0123", 0), ("0231", 4_417)):
        p = pat(text)
        if nodes > 1:
            with pytest.raises(BudgetExhausted) as exc:
                find_realization(f, range(48), p, budget=nodes - 1)
            assert exc.value.nodes == nodes
        assert find_realization(f, range(48), p, budget=max(nodes, 1)) is None


def test_realize_dual_symmetry():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(4, 9)
        f = FiniteColoring.from_function(n, lambda x, y: rng.randint(0, 1))
        fd = f.dual()
        for p in (pat("012"), pat("120"), pat("10"), pat("0213")):
            if p.size > n:
                continue
            vs = sorted(rng.sample(range(n), p.size))
            assert realizes(f, vs, p) == realizes(fd, vs, p.dual())


def test_coloring_file_round_trip():
    rng = random.Random(5)
    f = FiniteColoring.from_function(7, lambda x, y: rng.randint(0, 1))
    g = FiniteColoring.from_text(f.to_text())
    assert g.bits == f.bits


def test_coloring_symmetric_access_and_errors():
    f = FiniteColoring.constant(5, 1)
    assert f.color(4, 2) == f.color(2, 4) == 1
    with pytest.raises(ContractViolation):
        f.color(2, 2)
    with pytest.raises(RangeError):
        f.color(0, 5)


def test_stable_coloring_contract():
    st = StableColoring(6, [0, 1, 0, 1, 0, 1], [3, 4, 3, 4, 5, 6], [(0, 2, 1)])
    assert st.color(0, 2) == 1      # override
    assert st.color(0, 1) == 0      # default inside the window
    assert st.color(0, 4) == 0      # settled
    assert st.limit(3) == 1
    with pytest.raises(ContractViolation):
        StableColoring(4, [0, 0, 0, 0], [1, 2, 3, 4], [(0, 3, 1)])  # y >= settle(x)
    for colors in ((1, 0), (1, 1)):  # one pair listed twice, with any colors
        with pytest.raises(ContractViolation, match=r"override \(0,1\) is listed twice"):
            StableColoring(3, [0, 0, 0], [3, 3, 3], [(0, 1, c) for c in colors])


@pytest.mark.parametrize("limits, settle", [
    ([0, 0, 0], [0, 0, 0]),      # settle(0) = 0
    ([0, 1, 0], [1, 2, 2]),      # settle(2) = 2
    ([1, 0], [5, 0]),            # settle(1) < 1
    ([0, 2, 1], [1, 2, 3]),      # limit outside {0,1}
    ("011", [1, 2, 3]),          # text limits are not a sequence of colors
    ([0, 1, 1], "123"),          # text settle times likewise
])
def test_stable_coloring_rejects_broken_rows(limits, settle):
    with pytest.raises(ContractViolation):
        StableColoring(len(limits), limits, settle)


def test_stable_coloring_rejects_non_binary_overrides():
    for c in (5, 2, -1):
        with pytest.raises(ContractViolation):
            StableColoring(3, [0, 0, 0], [2, 3, 4], [(0, 1, c)])
    assert StableColoring(3, [0, 0, 0], [2, 3, 4], [(0, 1, 1)]).color(0, 1) == 1


def test_stable_coloring_accepts_settle_just_past_x():
    st = StableColoring(3, (0, 1, 0), range(1, 4))
    assert st.settle == (1, 2, 3) and st.limits == (0, 1, 0)


def test_limit_index_is_lazy_and_matches_limits():
    family = avoiding_family(3, 500, 7)
    assert all(f._index is None for f in family)  # construction builds no index
    for f in family + [alternating_stable(50), StableColoring(3, (0, 1, 0), (3, 3, 3))]:
        record = f.to_json_dict()
        zeros, ones, unit = f.limit_index()
        assert f.limit_index() is f._index  # built once, then cached
        assert list(zeros) == [x for x in range(f.horizon) if f.limits[x] == 0]
        assert list(ones) == [x for x in range(f.horizon) if f.limits[x] == 1]
        assert unit == all(f.settle[x] == x + 1 for x in range(f.horizon))
        assert f.to_json_dict() == record  # the index is not part of the record
        g = StableColoring.from_json_dict(record)
        assert g._index is None and g.to_json_dict() == record
        assert g.limit_index() == f.limit_index()
    assert [f.limit_index()[2] for f in family] == [True] * 3
    assert not alternating_stable(50).limit_index()[2]


def test_finite_coloring_rejects_non_binary_bits():
    with pytest.raises(ContractViolation):
        FiniteColoring(3, [0, 1, 2])
    with pytest.raises(ContractViolation):
        FiniteColoring.from_text("3\n01\n2\n")  # the pair (1, 2) reads 2
    assert FiniteColoring.from_text("3\n01\n1\n").color(1, 2) == 1


@st.composite
def small_coloring(draw):
    """A FiniteColoring, or a StableColoring with settling distances 1..4
    and random overrides, on at most 9 vertices."""
    h = draw(st.integers(1, 9))
    if draw(st.booleans()):
        pairs = h * (h - 1) // 2
        return FiniteColoring(h, draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))
    limits = draw(st.lists(st.integers(0, 1), min_size=h, max_size=h))
    settle = [x + draw(st.integers(1, 4)) for x in range(h)]
    overrides = [(x, y, draw(st.integers(0, 1)))
                 for x in range(h) for y in range(x + 1, min(settle[x], h))
                 if draw(st.booleans())]
    return StableColoring(h, limits, settle, overrides)


def scan_rows(horizon: int, fn, limits=None):
    """The row scan StableColoring.from_function ran before from_rows:
    (limits, settle, overrides) of the stable coloring agreeing with
    fn(x, y), x < y.  Each row is scanned from the right; its limit is the
    given one, else its last color (0 for the last row), and it settles
    just past its last disagreement with that limit."""
    lims, settle, overrides = [], [], []
    for x in range(horizon):
        row = [fn(x, y) for y in range(x + 1, horizon)]
        lim = limits[x] if limits is not None else row[-1] if row else 0
        s = x + 1 + max((i + 1 for i, c in enumerate(row) if c != lim), default=0)
        lims.append(lim)
        settle.append(s)
        overrides.extend([x, y, c] for y, c in zip(range(x + 1, s), row) if c != lim)
    return lims, settle, overrides


@settings(max_examples=300, deadline=None)
@given(data=st.data(), h=st.integers(0, 12), given_limits=st.booleans())
def test_from_rows_matches_row_scan(data, h, given_limits):
    """Random row masks, with noise at and below the diagonal, read as the
    row scan reads them: same limits, settling times and pair colors, and
    every settling time is the least one the row allows."""
    rows = data.draw(st.lists(st.integers(0, (1 << h + 2) - 1), min_size=h, max_size=h), label="rows")
    limits = data.draw(st.lists(st.integers(0, 1), min_size=h, max_size=h), label="limits") \
        if given_limits else None
    f = StableColoring.from_rows(h, rows, limits)
    lims, settle, overrides = scan_rows(h, lambda x, y: rows[x] >> y & 1, limits)
    assert list(f.limits) == lims and list(f.settle) == settle
    assert f.to_json_dict()["overrides"] == overrides
    for x, y in iter_pairs(h):
        assert f.color(x, y) == rows[x] >> y & 1
    for x in range(h):
        s = f.settle[x]
        assert s == x + 1 or rows[x] >> s - 1 & 1 != f.limit(x)


@settings(max_examples=300, deadline=None)
@given(g=small_coloring())
def test_stable_from_function_agrees_and_settles_minimally(g):
    """from_rows, which replaced StableColoring.from_function, on the rows
    of any small coloring: the same pair colors, each settling time least."""
    h = g.horizon
    f = StableColoring.from_rows(h, [sum(g.color(x, y) << y for y in range(x + 1, h)) for x in range(h)])
    assert f.horizon == h
    for x, y in iter_pairs(h):
        assert f.color(x, y) == g.color(x, y)
    for x in range(h):
        s = f.settle[x]
        assert s == x + 1 or g.color(x, s - 1) != f.limit(x)


def triple_scan_transitive(f) -> bool:
    """The ordered-triple scan of the order read off f (x before y iff the
    upward pair has color 0): x < y and y < z must force x < z."""
    n = f.horizon

    def less(x, y):
        return f.color(x, y) == 0 if x < y else f.color(y, x) == 1

    for x in range(n):
        for y in range(n):
            if y == x or not less(x, y):
                continue
            for z in range(n):
                if z not in (x, y) and less(y, z) and not less(x, z):
                    return False
    return True


@st.composite
def small_pattern(draw, most=9):
    size = draw(st.integers(1, most))
    pairs = size * (size - 1) // 2
    return Pattern(size, draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))


def triple_loop_transitive(p) -> bool:
    """The triple loop is_transitive ran before it became a search: no
    i < j < k whose pairs (i, j), (i, k), (j, k) read 010 or 101."""
    n = p.horizon
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                sub = (p.color(i, j), p.color(i, k), p.color(j, k))
                if sub == (0, 1, 0) or sub == (1, 0, 1):
                    return False
    return True


@st.composite
def near_perm_pattern(draw, most=12):
    """A permutation's pattern, which is transitive, with up to two pairs
    flipped, which may break that."""
    p = perm_to_pattern(Permutation(draw(st.permutations(range(draw(st.integers(1, most)))))))
    bits = list(p.bits)
    for _ in range(draw(st.integers(0, 2)) if bits else 0):
        i = draw(st.integers(0, len(bits) - 1))
        bits[i] ^= 1
    return Pattern(p.size, bits)


@settings(max_examples=400, deadline=None)
@given(g=st.one_of(small_pattern(12), near_perm_pattern(), small_coloring(), stable_coloring(12)))
def test_is_transitive_matches_triple_scan(g):
    # random bits and overrides give both verdicts; sizes 1 and 2 are
    # always transitive
    assert is_transitive(g) == triple_scan_transitive(g) == triple_loop_transitive(g)


def test_is_transitive_matches_triple_loop_on_every_small_pattern():
    for size in range(1, 7):
        pairs = size * (size - 1) // 2
        for code in range(1 << pairs):
            p = Pattern(size, [code >> b & 1 for b in range(pairs)])
            assert is_transitive(p) == triple_loop_transitive(p)


def combinations_repair(n, k, seed):
    """The repaired generator before it used block search: rescan every
    k-set in lexicographic order, flipping the first pair of each 0-clique,
    until a pass changes nothing."""
    rng = random.Random(seed)
    bits = {(x, y): 0 if rng.random() < 0.06 else 1 for x, y in iter_pairs(n)}
    changed = True
    while changed:
        changed = False
        for clique in itertools.combinations(range(n), k):
            if all(bits[a, b] == 0 for a, b in itertools.combinations(clique, 2)):
                bits[clique[0], clique[1]] = 1
                changed = True
    return FiniteColoring(n, [bits[pair] for pair in iter_pairs(n)])


def test_repaired_generator_matches_combinations_repair():
    for seed in range(4):
        for k in range(2, 6):
            for n in range(1, 26):
                assert repaired_random_unbalanced(n, k, seed) == combinations_repair(n, k, seed)


def test_perm_coloring_reads_perm_pattern_both_ways():
    for size in range(1, 7):
        for pm in all_perms(size):
            f, p = perm_coloring(pm), perm_to_pattern(pm)
            for i, j in iter_pairs(size):
                assert f.color(i, j) == f.color(j, i) == p.color(i, j)


def test_finite_coloring_dual_stays_symmetric():
    rng = random.Random(11)
    f = FiniteColoring.from_function(6, lambda x, y: rng.randint(0, 1))
    fd = f.dual()
    assert type(fd) is FiniteColoring and fd.dual() == f
    for x, y in iter_pairs(6):
        assert fd.color(y, x) == fd.color(x, y) == 1 - f.color(x, y)
    with pytest.raises(ContractViolation):
        fd.color(3, 3)


def test_stable_from_function_last_row():
    """from_rows takes the last row's limit to be 0, and each other row's
    limit to be its last color."""
    f = StableColoring.from_rows(3, [0b110, 0b100, 0])
    assert f.limits == (1, 1, 0) and f.settle == (1, 2, 3) and f.to_json_dict()["overrides"] == []
    f = StableColoring.from_rows(4, [0b100, 0b100, 0, 0])
    assert f.limits == (0, 0, 0, 0) and f.settle == (3, 3, 3, 4)
    assert f.to_json_dict()["overrides"] == [[0, 2, 1], [1, 2, 1]]


def test_overrides_equal_to_limit_or_past_horizon_are_not_kept():
    """Such overrides are checked and read as before, but only the flips
    are stored and listed."""
    limits, settle = [0, 1, 0, 1], [4, 5, 6, 6]
    overrides = [(0, 1, 0), (0, 2, 1), (1, 2, 1), (1, 3, 0), (1, 4, 0), (2, 3, 1), (2, 5, 1), (3, 4, 0)]
    f = StableColoring(4, limits, settle, overrides)
    given = {(x, y): c for x, y, c in overrides}
    for x, y in iter_pairs(4):
        assert f.color(x, y) == given.get((x, y), limits[x])
    assert f.to_json_dict()["overrides"] == [[0, 2, 1], [1, 3, 0], [2, 3, 1]]
    assert f.flips == {0: 0b10, 1: 0b10, 2: 0b1}
    g = StableColoring.from_json_dict(f.to_json_dict())
    assert g.flips == f.flips and g.to_json_dict() == f.to_json_dict()
    with pytest.raises(ContractViolation, match="listed twice"):
        StableColoring(4, limits, settle, overrides + [(1, 4, 1)])  # past the horizon, still checked


def test_large_stable_colorings_stay_small():
    """The flip masks are the only pair storage: a 3,000-vertex coloring
    with windows up to the horizon retains a few megabytes at most."""
    ranks = list(range(3000))
    random.Random(17).shuffle(ranks)
    for build in (lambda: alternating_stable(3000), lambda: order_from_ranks(ranks)):
        tracemalloc.start()
        try:
            f = build()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert f.horizon == 3000 and retained < 8 << 20


def test_stable_restriction_matches():
    st = interleaved_split_order(30, seed=2)
    fin = st.restrict(20)
    for x in range(20):
        for y in range(x + 1, 20):
            assert fin.color(x, y) == st.color(x, y)
