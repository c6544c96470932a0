import itertools
import random
from bisect import bisect_left
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_max_homogeneous,
    pairwise_homogeneous,
    single_zero_edge,
    unit_realization_search,
)
from rpl import extract
from rpl.errors import (
    BudgetExhausted,
    ContractViolation,
    DegenerateInstance,
    InternalInvariant,
    PreconditionWitness,
    RangeError,
    ResourceLimit,
)
from rpl.extract import (
    FAILURE_EXPONENT,
    AdversarialEscapingOracle,
    ExtractionConfig,
    OracleOutcome,
    RandomizedOutcome,
    ReferenceEscapingOracle,
    _extractor_block,
    _rank,
    default_config,
    find_homogeneous_block,
    oracle_extract,
    randomized_extract,
    thin_reservoir,
    unbalanced_extract,
    verify_homogeneous,
)
from rpl.fractals import fractal_pattern, level_color, navigate, occurrence_blocks
from rpl.instances import (
    alternating_stable,
    avoiding_family,
    blocked_split_order,
    constant_coloring,
    dipped_split_order,
    grouped_unbalanced,
    interleaved_split_order,
    repaired_random_unbalanced,
    split_order_coloring,
)
from rpl.patterns import FiniteColoring, Pattern, StableColoring, VertexSet, realizes


FIXTURE = interleaved_split_order(10_000, seed=123, top_fraction=0.34)
# FIXTURE's first 300 rows, the last one settling a step late (past the
# horizon), so the block search runs instead of answering in closed form
LATE_ROW = StableColoring(300, FIXTURE.limits[:300], [*range(1, 300), 301])


def build_occurrence(limits, want):
    """Stable coloring on 8 vertices whose early pairs follow `want`."""
    n = 8
    settle = [n] * n
    overrides = []
    for x in range(n):
        for y in range(x + 1, n):
            c = want.get((x, y), limits[x])
            if c != limits[x]:
                overrides.append((x, y, c))
    return StableColoring(n, limits, settle, overrides)


DIM2_PAIRS = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}


# ---------------------------------------------------------------------------
# Brute force oracle


def test_brute_force_examples(clique_2031):
    color, vs = brute_force_max_homogeneous(constant_coloring(6, 0))
    assert color == 0 and tuple(vs) == (0, 1, 2, 3, 4, 5)
    color, vs = brute_force_max_homogeneous(clique_2031)
    assert len(vs) == 2 and verify_homogeneous(clique_2031, vs, color)
    color, vs = brute_force_max_homogeneous(constant_coloring(1, 0))
    assert tuple(vs) == (0,)
    with pytest.raises(ResourceLimit):
        brute_force_max_homogeneous(constant_coloring(30, 0))


def test_brute_force_against_subset_enumeration():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(3, 9)
        f = FiniteColoring.from_function(n, lambda x, y: rng.randint(0, 1))
        color, vs = brute_force_max_homogeneous(f)
        # independent: enumerate every subset
        best = 1
        for r in range(2, n + 1):
            for combo in itertools.combinations(range(n), r):
                for c in (0, 1):
                    if all(f.color(a, b) == c for a, b in itertools.combinations(combo, 2)):
                        best = max(best, r)
        assert len(vs) == best
        assert verify_homogeneous(f, vs, color)


# ---------------------------------------------------------------------------
# Unbalanced extraction


def test_unbalanced_examples():
    res = unbalanced_extract(constant_coloring(20, 1), 2, 20)
    assert tuple(res.vertices) == tuple(range(20)) and res.level == 1

    res = unbalanced_extract(single_zero_edge(20), 3, 20)
    assert len(res.vertices) >= 19
    assert 1 not in res.vertices or 0 not in res.vertices

    with pytest.raises(PreconditionWitness) as exc:
        unbalanced_extract(constant_coloring(20, 0), 3, 20)
    assert tuple(exc.value.witness) == (0, 1, 2)


# (k, seed) -> (size, level, populations, lower bound) on grouped_unbalanced(60, k, seed)
UNBALANCED_PINS = {
    (3, 1): (32, 2, [28, 32], 1), (3, 2): (38, 2, [22, 38], 1), (3, 3): (32, 2, [28, 32], 1),
    (4, 1): (23, 1, [23, 17, 20], 23), (4, 2): (21, 2, [18, 21, 21], 1),
    (4, 3): (22, 2, [19, 22, 19], 1),
}


def test_unbalanced_on_generated_families():
    for (k, seed), pin in UNBALANCED_PINS.items():
        f = grouped_unbalanced(60, k, seed)
        res = unbalanced_extract(f, k, 60)
        assert verify_homogeneous(f, res.vertices, 1)
        assert len(res.vertices) >= 60 // (k * 4)
        assert (len(res.vertices), res.level, res.populations, res.lower_bound) == pin


def test_unbalanced_takes_the_first_largest_sibling_set():
    # sibling sets of size 8 tie at level 2; the first one is the answer
    res = unbalanced_extract(repaired_random_unbalanced(150, 4, 1), 4, 150)
    assert (res.level, res.vertices) == (2, (10, 14, 20, 21, 27, 72, 92, 113))


def test_unbalanced_floor_against_brute_force():
    for k in (3, 4):
        for seed in (5, 6):
            f = repaired_random_unbalanced(18, k, seed)
            res = unbalanced_extract(f, k, 18)
            color, best = brute_force_max_homogeneous(f)
            opt1 = len(best) if color == 1 else None
            if opt1 is None:
                # recompute the color-1 optimum directly
                opt1 = 1
                for r in range(2, 19):
                    for combo in itertools.combinations(range(18), r):
                        if all(f.color(a, b) == 1 for a, b in itertools.combinations(combo, 2)):
                            opt1 = max(opt1, r)
            assert 2 * len(res.vertices) >= opt1


# ---------------------------------------------------------------------------
# Block search


def test_find_homogeneous_block_lex_least():
    f = constant_coloring(10, 0)
    blk = find_homogeneous_block(f, range(10), 4, 0)
    assert tuple(blk) == (0, 1, 2, 3)
    assert find_homogeneous_block(f, range(10), 4, 1) is None
    with pytest.raises(BudgetExhausted):
        find_homogeneous_block(alternating_stable(600), range(600), 12, 1, budget=5)
    # FIXTURE settles every row at once: answered without search, so no
    # budget runs out
    blk = find_homogeneous_block(FIXTURE, range(3000), 400, 0, budget=1)
    assert len(blk) == 400 and verify_homogeneous(FIXTURE, blk, 0)


def test_find_homogeneous_block_rejects_nonpositive_budget():
    for f in (FIXTURE, constant_coloring(10, 0)):
        for budget in (0, -1):
            with pytest.raises(ContractViolation):
                find_homogeneous_block(f, range(10), 4, 0, budget=budget)


@pytest.mark.parametrize("f", [FiniteColoring.constant(5, 0),
                               StableColoring(5, [0] * 5, range(1, 6))],
                         ids=["finite", "stable"])
def test_find_homogeneous_block_rejects_repeated_vertex(f):
    with pytest.raises(ContractViolation, match="diagonal"):
        find_homogeneous_block(f, [0, 0, 1, 2], 3, 0)


def test_find_homogeneous_block_skips_poison():
    # a wrong-limit element pairs correctly but blocks every continuation
    st = split_order_coloring(12, top={2})
    blk = find_homogeneous_block(st, range(12), 4, 0)
    assert tuple(blk) == (0, 1, 3, 4)


# Exact node counts of the block search on fixtures, one per admitted
# vertex, with the least block it returns as (size, first twelve elements,
# last, sum), or None.  Every block search but the window-1 closed form is
# the realization search of the constant pattern; its greedy-coloring cut
# at depth 0 rules a block out before any admission when the pool splits
# into fewer sets pairwise not of the color than the size.
# late-row-infeasible asks for one vertex more than the largest block
# (193) of its pool, which the greedy coloring shows at once.  FIXTURE
# settles every row at once, so its two cases are answered without
# search: their count is None, and the search is never called.  The two
# finite cases pin the finite path: one proven absence, one early hit.
# Charging a node for every candidate passed over, the searched cases
# took 120,750, 391,393, 1, 2,870 and 12 nodes.
NODE_PINS = [
    ("interleaved-300", lambda: (FIXTURE, range(10_000), 300, 0), None,
     (300, (2, 4, 6, 8, 14, 16, 19, 20, 23, 25, 26, 28), 475, 70873)),
    ("alternating-600", lambda: (alternating_stable(600), range(600), 12, 1), 41,
     (12, (1, 5, 13, 28, 30, 32, 34, 36, 38, 40, 42, 43), 43, 342)),
    ("dipped-2000", lambda: (dipped_split_order(2000), range(2000), 10, 1), 113,
     (10, (13, 14, 15, 37, 38, 39, 109, 110, 111, 112), 112, 598)),
    ("interleaved-infeasible", lambda: (FIXTURE, range(300), 194, 0), None, None),
    ("late-row-infeasible", lambda: (LATE_ROW, range(300), 194, 0), 0, None),
    ("finite-absent", lambda: (repaired_random_unbalanced(60, 3, 0), range(60), 4, 0),
     64, None),
    ("finite-hit", lambda: (repaired_random_unbalanced(30, 3, 2), range(30), 8, 1), 8,
     (8, (0, 1, 4, 5, 6, 7, 8, 11), 11, 42)),
]


@pytest.mark.parametrize("name, make, nodes, pinned", NODE_PINS,
                         ids=[p[0] for p in NODE_PINS])
def test_find_homogeneous_block_node_count_pinned(name, make, nodes, pinned):
    f, reservoir, size, color = make()
    if nodes is None:
        with mock.patch.object(extract, "_realization_search", side_effect=AssertionError):
            blk = find_homogeneous_block(f, reservoir, size, color, budget=1)
    else:
        if nodes > 1:
            with pytest.raises(BudgetExhausted) as exc:
                find_homogeneous_block(f, reservoir, size, color, budget=nodes - 1)
            assert exc.value.nodes == nodes
        blk = find_homogeneous_block(f, reservoir, size, color, budget=max(nodes, 1))
    if pinned is None:
        assert blk is None
    else:
        assert (len(blk), tuple(blk[:12]), blk[-1], sum(blk)) == pinned
        assert verify_homogeneous(f, blk, color)


def test_stable_block_far_into_the_pool_is_found_within_the_extractor_budget():
    # 30 vertices of color 1 among the even vertices of alternating_stable(3000):
    # charging a node per candidate passed over, the search ran out of the
    # extractors' 2,000,000 nodes
    f = alternating_stable(3000)
    blk = find_homogeneous_block(f, list(range(0, 3000, 2)), 30, 1, budget=2_000_000)
    assert blk is not None and len(blk) == 30 and verify_homogeneous(f, blk, 1)


@st.composite
def small_stable(draw):
    """A stable coloring on at most 10 vertices: random limits, settling
    distances 1..4 (possibly past the horizon) and random overrides."""
    h = draw(st.integers(1, 10))
    limits = draw(st.lists(st.integers(0, 1), min_size=h, max_size=h))
    settle = [x + draw(st.integers(1, 4)) for x in range(h)]
    overrides = [(x, y, draw(st.integers(0, 1)))
                 for x in range(h) for y in range(x + 1, min(settle[x], h))
                 if draw(st.booleans())]
    return StableColoring(h, limits, settle, overrides)


@st.composite
def window_one_stable(draw):
    """A stable coloring on at most 40 vertices with random limits where
    every row settles at once (settle(x) = x + 1), so the block search
    answers in closed form."""
    h = draw(st.integers(1, 40))
    limits = draw(st.lists(st.integers(0, 1), min_size=h, max_size=h))
    return StableColoring(h, limits, range(1, h + 1))


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(small_stable(), window_one_stable()), data=st.data())
def test_restrict_reads_the_pairs_below_the_horizon(f, data):
    h = data.draw(st.integers(1, f.horizon), label="horizon")
    assert f.restrict(h) == FiniteColoring.from_function(h, f.color)


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(small_stable(), window_one_stable()), data=st.data())
def test_stable_block_search_matches_generic(f, data):
    h = f.horizon
    reservoir = data.draw(st.lists(st.integers(0, h - 1), unique=True), label="reservoir")
    a = data.draw(st.integers(0, h), label="start")
    b = data.draw(st.integers(a, h), label="stop")
    size = data.draw(st.integers(0, h + 1), label="size")
    generic = f.restrict(h)  # a FiniteColoring with the same pairs
    for pool in (reservoir, range(a, b)):
        for color in (0, 1):
            assert (find_homogeneous_block(f, pool, size, color)
                    == find_homogeneous_block(generic, pool, size, color))
    if not f.limit_index()[2] and 1 <= size <= b - a:  # the search admits as the reference does
        for color in (0, 1):
            block, nodes, _ = unit_realization_search(f, range(a, b), Pattern.constant(size, color))
            got, got_nodes, _ = search_with_nodes(f, range(a, b), size, color, None)
            assert (None if got is None else tuple(got), got_nodes) == (block, max(nodes, 1))


def unit_block(f, pool, size, color):
    """The least block by the unit-step reference, as a tuple, or None."""
    if size > len(pool):
        return None
    return unit_realization_search(f, pool, Pattern.constant(size, color))[0] if size else ()


@settings(max_examples=300, deadline=None)
@given(f=window_one_stable(), data=st.data())
def test_stable_block_runs_match_unit_steps(f, data):
    # the closed form against the unit-step search and the generic one,
    # with the search never called
    h = f.horizon
    listed = sorted(data.draw(st.sets(st.integers(0, h - 1)), label="reservoir"))
    a = data.draw(st.integers(0, h), label="start")
    b = data.draw(st.integers(a, h), label="stop")
    drawn = data.draw(st.integers(0, h + 1), label="size")
    generic = f.restrict(h)
    for pool in (listed, range(a, b)):
        for color in (0, 1):
            matching = sum(f.limits[v] == color for v in pool)
            # matching + 1 ends the block's matching vertices at the last
            # one in the pool, which may be the pool's last vertex
            for size in {0, 1, 2, len(pool) + 1, drawn, matching, matching + 1}:
                block = unit_block(f, pool, size, color)
                with mock.patch.object(extract, "_realization_search",
                                       side_effect=AssertionError):
                    got = find_homogeneous_block(f, pool, size, color, budget=1)
                assert (None if got is None else tuple(got)) == block
                assert got == find_homogeneous_block(generic, pool, size, color)


def search_with_nodes(f, pool, size, color, budget):
    """find_homogeneous_block (None, a block, or "exhausted"), its node
    count, and whether the search ran.  The count is read off budgets, as
    budget N - 1 raises at node N: the least budget that answers (1 for a
    search of 0 or 1 nodes, 0 when no search ran), or the node that ran
    past `budget`."""
    searched = False
    search = extract._realization_search

    def spy(*args):
        nonlocal searched
        searched = True
        return search(*args)

    with mock.patch.object(extract, "_realization_search", spy):
        try:
            block = find_homogeneous_block(f, pool, size, color, budget)
        except BudgetExhausted as exc:
            return "exhausted", exc.nodes, searched
    if not searched:
        return block, 0, searched
    lo, hi = 0, 1  # budget lo runs out, budget hi answers
    while True:
        try:
            find_homogeneous_block(f, pool, size, color, hi)
            break
        except BudgetExhausted:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            find_homogeneous_block(f, pool, size, color, mid)
            hi = mid
        except BudgetExhausted:
            lo = mid
    return block, hi, searched


def assert_range_pool_matches_list_pool(f, a, b, size, searched, budget):
    """A range pool and the list of its vertices give the same block and
    node count; both reach the search iff `searched`."""
    for color in (0, 1):
        want, nodes, ran = search_with_nodes(f, list(range(a, b)), size, color, budget)
        assert ran == searched
        assert search_with_nodes(f, range(a, b), size, color, budget) == (want, nodes, ran)
        if want == "exhausted":
            continue
        if nodes > 1:
            with pytest.raises(BudgetExhausted) as exc:
                find_homogeneous_block(f, range(a, b), size, color, budget=nodes - 1)
            assert exc.value.nodes == nodes
        assert find_homogeneous_block(f, range(a, b), size, color, budget=max(nodes, 1)) == want


_R = random.Random(11)
WINDOW_ONE = [interleaved_split_order(3000, seed=5), blocked_split_order(3000, seed=6),
              StableColoring(3000, [_R.randrange(2) for _ in range(3000)], range(1, 3001))]


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(st.sampled_from(WINDOW_ONE), window_one_stable()), data=st.data())
def test_range_pools_match_list_pools_on_window_one(f, data):
    a = data.draw(st.integers(0, f.horizon), label="start")
    b = data.draw(st.integers(a, f.horizon), label="stop")
    size = data.draw(st.integers(1, min(400, b - a + 1)), label="size")
    assert_range_pool_matches_list_pool(f, a, b, size, searched=False, budget=100_000)


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(st.sampled_from([alternating_stable(600), dipped_split_order(2000)]),
                   small_stable().filter(lambda f: f.settle != tuple(range(1, f.horizon + 1)))),
       data=st.data())
def test_range_pools_keep_the_scan_on_wide_windows(f, data):
    # the search runs unless the block is larger than the pool
    a = data.draw(st.integers(0, f.horizon), label="start")
    b = data.draw(st.integers(a, f.horizon), label="stop")
    size = data.draw(st.integers(1, min(400, b - a + 1)), label="size")
    assert_range_pool_matches_list_pool(f, a, b, size, searched=size <= b - a, budget=2_000)


@settings(max_examples=300, deadline=None)
@given(f=st.one_of(st.sampled_from(WINDOW_ONE), window_one_stable(), small_stable()),
       data=st.data())
def test_thin_reservoir_keeps_a_range(f, data):
    h = f.horizon
    a = data.draw(st.integers(0, h), label="start")
    b = data.draw(st.integers(a, h), label="stop")
    x = data.draw(st.integers(0, h - 1), label="x")
    color = data.draw(st.integers(0, 1), label="color")
    got = thin_reservoir(f, range(a, b), x, color)
    assert list(got) == thin_reservoir(f, list(range(a, b)), x, color)
    if f.limit(x) == color and not any(x < y < f.settle[x] for y in range(a, b)):
        assert got.__class__ is range  # every window-1 keep
    else:
        assert got.__class__ is list


def test_window_one_extraction_never_searches(monkeypatch):
    # every row settles at once, so each block of a randomized extraction
    # is read off in closed form: a success, a bad pick, and a reservoir
    # that runs out of blocks, never out of budget
    monkeypatch.setattr(extract, "_realization_search", mock.Mock(side_effect=AssertionError))
    assert randomized_extract(FIXTURE, 2, 2, default_config(seed=42)).success
    assert randomized_extract(FIXTURE, 2, 2, default_config(seed=5)).failure_step == 2
    dried = split_order_coloring(300, top=set(range(50, 300)))
    with pytest.raises(DegenerateInstance, match="no .*-ary dimension-1 block"):
        randomized_extract(dried, 2, 2, default_config(seed=1, horizon=300, steps=10))


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-5, 30), b=st.integers(-5, 30), x=st.integers(-10, 40))
def test_rank_locates_by_arithmetic_as_bisect_does(a, b, x):
    # empty ranges (b <= a), starts other than 0, and x below, inside and
    # past the range
    pool = range(a, b)
    assert _rank(pool, x) == bisect_left(list(pool), x)


@settings(max_examples=200, deadline=None)
@given(f=st.one_of(st.sampled_from(WINDOW_ONE), window_one_stable()), data=st.data())
def test_extractor_block_reads_the_block_search_answer(f, data):
    # the unboxed window-1 block holds the vertices of the boxed one
    h = f.horizon
    a = data.draw(st.integers(0, h), label="start")
    b = data.draw(st.integers(a, h), label="stop")
    listed = sorted(data.draw(st.sets(st.integers(0, h - 1), max_size=60), label="reservoir"))
    size = data.draw(st.integers(1, 80), label="size")
    for pool in (range(a, b), listed):
        want = find_homogeneous_block(f, pool, size, 0)
        if want is None:
            with pytest.raises(DegenerateInstance):
                _extractor_block(f, pool, size, 1, 0)
        else:
            assert tuple(_extractor_block(f, pool, size, 1, 0)) == tuple(want)


def reference_randomized_transcript(f, cfg):
    """randomized_extract(f, 2, 2, cfg) with every block taken from
    find_homogeneous_block over a list reservoir thinned by pair reads:
    the transcript, ending with ("degenerate", step) when a step finds no
    block."""
    color = level_color(1)
    rng = random.Random(cfg.seed)
    reservoir = list(range(min(cfg.horizon, f.horizon)))
    transcript = []
    for step in range(cfg.steps):
        arity = cfg.block_size(step, 2, 1)
        block = find_homogeneous_block(f, reservoir, arity, 0)
        if block is None:
            return transcript + [("degenerate", step)]
        path = (rng.randrange(arity),)
        x = block[navigate(arity, 1, path)[0]]
        bad = f.limit(x) == 1 - color
        transcript.append({"step": step, "arity": arity, "block_min": block[0],
                           "block_max": block[-1], "path": list(path), "chosen": x,
                           "verdict": "bad" if bad else "good"})
        if bad:
            break
        reservoir = [y for y in reservoir if y > x and f.color(x, y) == color]
    return transcript


def randomized_transcript(f, cfg):
    """(transcript, outcome) of randomized_extract(f, 2, 2, cfg): the
    outcome is its success flag, or "degenerate" for a run that finds no
    block at some step, whose transcript is then the steps before it and
    ("degenerate", step), as the reference writes it."""
    try:
        out = randomized_extract(f, 2, 2, cfg)
        return out.transcript, out.success
    except DegenerateInstance as exc:
        before = randomized_extract(f, 2, 2, replace(cfg, steps=exc.step)).transcript \
            if exc.step else []
        return before + [("degenerate", exc.step)], "degenerate"


def test_randomized_transcripts_match_the_boxed_reference():
    outcomes = set()
    for seed in range(200):
        f = WINDOW_ONE[seed % len(WINDOW_ONE)]
        # horizons up to 3000; the short ones run out of blocks
        cfg = default_config(seed, horizon=1000 + 500 * (seed % 5), steps=10)
        got, outcome = randomized_transcript(f, cfg)
        outcomes.add(outcome)
        assert got == reference_randomized_transcript(f, cfg), seed
    assert outcomes == {True, False, "degenerate"}


def test_benchmark_shaped_trials_match_the_boxed_reference():
    # extract-mc's trials as its round 0 shapes them: 30 steps over a
    # 10,000-vertex reservoir of the avoiding family, every block read off
    # a range slice in closed form; the reference reads list reservoirs
    family = avoiding_family(50, 10_000, 901)
    outcomes = set()
    for t in range(50):
        cfg = default_config(901 * 1_000_003 + t, horizon=10_000, steps=30)
        got, outcome = randomized_transcript(family[t], cfg)
        outcomes.add(outcome)
        assert got == reference_randomized_transcript(family[t], cfg), t
    assert outcomes == {True, False}


@pytest.mark.parametrize("pool, size", [
    ([3, 1, 2, 4, 5, 6], 4),
    ([0, 1, 1, 2, 3, 4], 4),
    (list(range(70)) + [10] + list(range(71, 200)), 80),  # a repeat late in the pool
], ids=["unsorted", "repeated", "late-repeat"])
def test_extractor_block_search_needs_ascending_pool(pool, size):
    f = StableColoring(300, [0] * 300, range(1, 301))
    with pytest.raises(ContractViolation):
        _extractor_block(f, pool, size, 1, 0)


def test_block_search_argument_errors():
    f = StableColoring(6, [0] * 6, range(1, 7))
    with pytest.raises(RangeError):
        find_homogeneous_block(f, [0, 1, 2, 9], 3, 0)
    with pytest.raises(RangeError):
        find_homogeneous_block(f, [-1, 0, 1], 2, 0)
    with pytest.raises(RangeError):
        thin_reservoir(f, [0, 1, 2, 3], 9, 0)
    with pytest.raises(RangeError):
        thin_reservoir(f, [0, 1, 2, 7], 0, 0)
    for g in (f, f.restrict(6)):
        for color in (2, -1):
            with pytest.raises(ContractViolation, match="not 0 or 1"):
                find_homogeneous_block(g, range(6), 3, color)
            with pytest.raises(ContractViolation, match="not 0 or 1"):
                thin_reservoir(g, list(range(6)), 1, color)
        with pytest.raises(ContractViolation, match="negative"):
            find_homogeneous_block(g, range(6), -1, 0)


def test_thin_reservoir_fast_path_matches_naive():
    full = list(range(200))
    gapped = full[::3]  # every x not divisible by 3 is absent
    for f in (FIXTURE, alternating_stable(200)):  # windows of 1, and wide ones with overrides
        for res in (full, gapped, gapped[:20]):
            for x in (5, 17, 40, 57, 100, 199):  # 100 and 199 lie above gapped[:20]
                for color in (0, 1):
                    fast = thin_reservoir(f, res, x, color)
                    naive = [y for y in res if y > x and f.color(x, y) == color]
                    assert fast == naive and fast is not res


# ---------------------------------------------------------------------------
# Randomized extraction


def test_config_validation():
    # each distinct sequence is validated once; a bad one still raises on
    # every construction, and a good one cannot lift the step check
    for _ in range(3):
        with pytest.raises(ContractViolation, match="increasing"):
            ExtractionConfig((2, 2, 3), 0, 3, 100)
        with pytest.raises(ContractViolation, match=">= 2"):
            ExtractionConfig((1, 2, 3), 0, 3, 100)
        with pytest.raises(ContractViolation, match="reciprocals"):
            ExtractionConfig((8, 9, 10), 0, 3, 100)
        with pytest.raises(ContractViolation, match="shorter"):
            ExtractionConfig((100, 200), 0, 5, 100)
        ExtractionConfig((100, 200), 0, 2, 100)
        with pytest.raises(ContractViolation, match=">= 2"):
            ExtractionConfig((), 0, 0, 100)
    cfg = default_config(7)
    assert sum(1.0 / u for u in cfg.thinning) < 2.0**-FAILURE_EXPONENT
    assert default_config(8).thinning == cfg.thinning


@pytest.mark.parametrize("steps", [0, -3])
def test_step_count_must_be_positive(steps):
    with pytest.raises(ContractViolation, match="steps"):
        default_config(7, steps=steps)
    with pytest.raises(ContractViolation, match=rf"^steps={steps} must be >= 1$"):
        ExtractionConfig(default_config(7).thinning, 7, steps, 10_000)
    f = StableColoring(4, [0] * 4, range(1, 5))
    with pytest.raises(ContractViolation, match="steps"):
        oracle_extract(f, 2, 2, ReferenceEscapingOracle(), 4, steps=steps)


def test_extraction_color_parity():
    # the stem color is the color between level-1 blocks of a block of
    # dimension n - 1: 0 for n = 2, 1 for n = 3
    assert (level_color(1), level_color(2)) == (0, 1)
    for n, f in ((2, split_order_coloring(400, top=set())),
                 (3, StableColoring.from_rows(400, fractal_pattern(20, 2).rows))):
        cfg = default_config(1, horizon=400, steps=1)
        assert randomized_extract(f, 2, n, cfg).color == level_color(n - 1)
        assert oracle_extract(f, 2, n, ReferenceEscapingOracle(), 400, steps=1).color == level_color(n - 1)


def test_randomized_all_limits_zero_never_fails():
    st = split_order_coloring(4000, top=set())
    cfg = default_config(seed=99, horizon=4000, steps=8)
    out = randomized_extract(st, 2, 2, cfg)
    assert out.success and len(out.vertices) == 8
    assert all(e["verdict"] == "good" for e in out.transcript)


def test_randomized_seed42_regression():
    cfg = default_config(seed=42)
    out = randomized_extract(FIXTURE, 2, 2, cfg)
    assert out.success and out.color == 0
    assert len(out.vertices) == 30
    assert list(out.vertices)[:4] == [99, 117, 333, 530]
    assert list(out.vertices)[-1] == 6031
    assert verify_homogeneous(FIXTURE, out.vertices, 0)


def test_randomized_determinism():
    a = randomized_extract(FIXTURE, 2, 2, default_config(seed=7))
    b = randomized_extract(FIXTURE, 2, 2, default_config(seed=7))
    assert a.transcript == b.transcript
    c = randomized_extract(FIXTURE, 2, 2, default_config(seed=8))
    assert c.transcript != a.transcript


def test_randomized_failure_is_declared_at_bad_pick():
    out = randomized_extract(FIXTURE, 2, 2, default_config(seed=5))
    assert not out.success
    assert out.failure_step == 2
    last = out.transcript[-1]
    assert last["verdict"] == "bad"
    assert FIXTURE.limit(last["chosen"]) == 1  # genuinely the wrong limit


def test_randomized_degenerate_instance():
    st = split_order_coloring(300, top=set(range(50, 300)))  # 0-part dries up
    with pytest.raises(DegenerateInstance):
        randomized_extract(st, 2, 2, default_config(seed=1, horizon=300, steps=10))


# ---------------------------------------------------------------------------
# Good and bad blocks


def bad_blocks(f, occ, arity, dim, k, color):
    """Indices of the blocks of a fractal occurrence that _bad_witness
    finds bad."""
    return [i for i, blk in enumerate(occurrence_blocks(VertexSet(occ), arity, dim))
            if extract._bad_witness(f, blk, k, dim - 1, color) is not None]


def test_analyze_blocks_all_good_and_all_bad():
    good = build_occurrence([1] * 4 + [0] * 4, DIM2_PAIRS)
    assert extract._bad_witness(good, [0, 1, 2, 3], 2, 2, 1) is None
    assert bad_blocks(good, [0, 1, 2, 3], 2, 2, 2, 1) == []

    bad = build_occurrence([0] * 8, DIM2_PAIRS)
    assert extract._bad_witness(bad, [0, 1, 2, 3], 2, 2, 1) is not None
    assert bad_blocks(bad, [0, 1, 2, 3], 2, 2, 2, 1) == [0, 1]


def test_analyze_blocks_single_bad():
    want = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    one_bad = build_occurrence([0, 1, 1, 0, 0, 0, 0, 0], want)
    assert extract._bad_witness(one_bad, [0, 1, 2], 2, 1, 1) is None
    assert bad_blocks(one_bad, [0, 1, 2], 3, 1, 2, 1) == [0]
    assert extract._bad_witness(one_bad, [0], 2, 0, 1) == VertexSet([0])


def test_bad_block_bound_randomized():
    # the k - 1 bound oracle_extract relies on: under a good occurrence at
    # most k - 1 = 1 of its blocks is bad
    rng = random.Random(17)
    occ = VertexSet([0, 1, 2, 3])
    seen = {}  # bad-block count under a good occurrence -> cases
    for _ in range(500):
        limits = [rng.randint(0, 1) for _ in range(8)]
        f = build_occurrence(limits, DIM2_PAIRS)
        assert realizes(f, occ, fractal_pattern(2, 2))
        if extract._bad_witness(f, occ, 2, 2, 1) is None:
            bad = len(bad_blocks(f, occ, 2, 2, 2, 1))
            seen[bad] = seen.get(bad, 0) + 1
    assert set(seen) == {0, 1}  # both cases occur, and no more bad blocks


# ---------------------------------------------------------------------------
# Oracle extraction


def test_oracle_trivial_instance():
    st = split_order_coloring(3000, top=set())
    out = oracle_extract(st, 2, 2, ReferenceEscapingOracle(), 3000, steps=10)
    assert out.success and len(out.vertices) == 10


def test_oracle_reference_regression():
    out = oracle_extract(FIXTURE, 2, 2, ReferenceEscapingOracle(), 10_000, steps=32)
    assert out.success
    assert len(out.vertices) == 32
    assert list(out.vertices)[:6] == [2, 4, 6, 8, 14, 16]
    assert verify_homogeneous(FIXTURE, out.vertices, 0)


# (oracle, enumerated, hi, answer); the oracle extractor asks (bad, arity)
PICKS = [
    (ReferenceEscapingOracle, {0, 1, 3}, 5, 2),
    (ReferenceEscapingOracle, set(), 3, 0),
    (ReferenceEscapingOracle, {0, 1, 2}, 3, ContractViolation),
    (ReferenceEscapingOracle, set(), 0, ContractViolation),
    (AdversarialEscapingOracle, {1, 3}, 5, 1),
    (AdversarialEscapingOracle, {0, 1, 2}, 3, 0),
    (AdversarialEscapingOracle, {4, 6}, 4, 0),  # nothing enumerated in range
    (AdversarialEscapingOracle, {0, 1, 2}, 2, 0),
    (AdversarialEscapingOracle, set(), 0, ContractViolation),
]


@pytest.mark.parametrize("oracle, enumerated, hi, want", PICKS)
def test_escaping_oracle_pick(oracle, enumerated, hi, want):
    if want is ContractViolation:
        with pytest.raises(ContractViolation):
            oracle().pick(enumerated, hi)
    else:
        assert oracle().pick(enumerated, hi) == want


def test_oracle_adversarial_failure_transcript():
    out = oracle_extract(FIXTURE, 2, 2, AdversarialEscapingOracle(), 10_000, steps=32)
    assert not out.success
    assert out.failure["step"] == 0
    q = out.failure["queries"][-1]
    assert q["answer"] in q["bad"]  # the query genuinely named a bad block
    assert FIXTURE.limit(out.failure["chosen"]) == 1


# ---------------------------------------------------------------------------
# The shared stem loop, against a loop of each extractor's own


def reference_randomized_extract(f, k, n, cfg):
    """randomized_extract as a loop of its own: validation, block, random
    descent, wrong-limit test, thinning and stem re-verification."""
    if n < 2:
        raise ContractViolation("avoided fractal dimension must be >= 2")
    if k < 1:
        raise ContractViolation("fractal arity k must be >= 1")
    d = n - 1
    color = level_color(d)
    rng = random.Random(cfg.seed)
    reservoir = range(min(cfg.horizon, f.horizon))
    stem, transcript = [], []
    for step in range(cfg.steps):
        arity = cfg.block_size(step, k, d)
        block = _extractor_block(f, reservoir, arity, d, step)
        path = tuple(rng.randrange(arity) for _ in range(d))
        x = block[navigate(arity, d, path)[0]]
        entry = {"step": step, "arity": arity, "block_min": block[0],
                 "block_max": block[-1], "path": list(path), "chosen": x}
        if f.limit(x) == 1 - color:
            transcript.append({**entry, "verdict": "bad"})
            return RandomizedOutcome(False, None, color, step, transcript)
        transcript.append({**entry, "verdict": "good"})
        stem.append(x)
        reservoir = thin_reservoir(f, reservoir, x, color)
    if not extract.verify_homogeneous(f, VertexSet(stem), color):
        raise InternalInvariant("randomized stem failed homogeneity re-verification")
    return RandomizedOutcome(True, VertexSet(stem), color, None, transcript)


def reference_oracle_extract(f, k, n, oracle, horizon, steps=32):
    """oracle_extract as a loop of its own, with the queries of each
    descent and the range and dead-stem failures built in place."""
    if n < 2:
        raise ContractViolation("avoided fractal dimension must be >= 2")
    if k < 1:
        raise ContractViolation("fractal arity k must be >= 1")
    if steps < 1:
        raise ContractViolation(f"steps={steps} must be >= 1")
    d = n - 1
    color = level_color(d)
    reservoir = range(min(horizon, f.horizon))
    stem, transcript = [], []
    for step in range(steps):
        arity = k + 1 + step
        node = _extractor_block(f, reservoir, arity, d, step)
        queries = []
        for level in range(d):
            blocks = occurrence_blocks(node, arity, d - level)
            bad = [i for i, blk in enumerate(blocks)
                   if extract._bad_witness(f, blk, k, d - level - 1, color) is not None]
            answer = oracle.pick(set(bad), arity)
            queries.append({"level": level, "arity": arity, "bad": bad, "answer": answer})
            if not 0 <= answer < arity:
                transcript.append({"step": step, "queries": queries})
                failure = {"step": step, "queries": queries, "reason": "range"}
                return OracleOutcome(False, None, color, transcript, failure)
            node = blocks[answer]
        x = node[0]
        transcript.append({"step": step, "queries": queries, "chosen": x})
        if f.limit(x) == 1 - color:
            failure = {"step": step, "queries": queries, "chosen": x,
                       "reason": "dead stem: chosen element settles to the wrong color"}
            return OracleOutcome(False, None, color, transcript, failure)
        stem.append(x)
        reservoir = thin_reservoir(f, reservoir, x, color)
    if not extract.verify_homogeneous(f, VertexSet(stem), color):
        raise InternalInvariant("oracle stem failed homogeneity re-verification")
    return OracleOutcome(True, VertexSet(stem), color, transcript, None)


class OutOfRangeOracle(ReferenceEscapingOracle):
    """Answers the arity itself, one past the last block."""

    def pick(self, enumerated, hi: int) -> int:
        return hi


DRIED = split_order_coloring(300, top=set(range(50, 300)))  # the 0-part dries up
# the 20-ary dimension-2 fractal as a coloring: at n = 3 a descent runs two levels
FRACTAL_20 = StableColoring.from_rows(400, fractal_pattern(20, 2).rows)


def outcome_or_degenerate(extractor, *args, **kwargs):
    try:
        return extractor(*args, **kwargs)
    except DegenerateInstance as exc:
        return ("degenerate", str(exc), exc.step)


def test_randomized_outcomes_match_the_reference_loop():
    family = avoiding_family(6, 10_000, 3)
    runs = [(family[seed % 6], 2, 2, default_config(seed)) for seed in range(300)]
    runs += [(DRIED, 2, 2, default_config(seed, horizon=300, steps=10)) for seed in range(4)]
    runs += [(FRACTAL_20, 2, 3, default_config(seed, horizon=400, steps=1)) for seed in range(4)]
    kinds = set()
    for args in runs:
        got = outcome_or_degenerate(randomized_extract, *args)
        assert got == outcome_or_degenerate(reference_randomized_extract, *args)
        kinds.add(got[0] if isinstance(got, tuple) else got.success)
    assert kinds == {True, False, "degenerate"}


def test_oracle_outcomes_match_the_reference_loop():
    family = avoiding_family(3, 10_000, 3)
    runs = [(f, 2, 2, ReferenceEscapingOracle(), 10_000) for f in family]
    runs += [(FIXTURE, 2, 2, oracle(), 10_000)
             for oracle in (ReferenceEscapingOracle, AdversarialEscapingOracle, OutOfRangeOracle)]
    runs += [(DRIED, 2, 2, ReferenceEscapingOracle(), 300),
             (FRACTAL_20, 2, 3, ReferenceEscapingOracle(), 400, 1),
             (FRACTAL_20, 2, 3, AdversarialEscapingOracle(), 400, 1)]
    reasons = set()
    for args in runs:
        got = outcome_or_degenerate(oracle_extract, *args)
        assert got == outcome_or_degenerate(reference_oracle_extract, *args)
        reasons.add(got[0] if isinstance(got, tuple) else (got.failure or {}).get("reason"))
    assert reasons == {None, "range", "dead stem: chosen element settles to the wrong color",
                       "degenerate"}


@pytest.mark.parametrize("k, n, steps", [(2, 1, 0), (0, 2, 0), (0, 1, 1), (2, 2, 0), (2, 2, -3)])
def test_contract_checks_keep_the_reference_order(k, n, steps):
    # n before k, and the oracle's step count after both
    def message(extractor, *args):
        with pytest.raises(ContractViolation) as exc:
            extractor(FIXTURE, k, n, *args)
        return str(exc.value)

    cfg = default_config(seed=1)
    if n < 2 or k < 1:
        assert message(randomized_extract, cfg) == message(reference_randomized_extract, cfg)
    oracle = ReferenceEscapingOracle()
    assert (message(oracle_extract, oracle, 10_000, steps)
            == message(reference_oracle_extract, oracle, 10_000, steps))


def test_a_failed_stem_check_is_an_internal_invariant(monkeypatch):
    monkeypatch.setattr(extract, "verify_homogeneous", lambda f, vertices, color: False)
    for extractor in (randomized_extract, reference_randomized_extract):
        with pytest.raises(InternalInvariant):
            extractor(FIXTURE, 2, 2, default_config(seed=42))
    for extractor in (oracle_extract, reference_oracle_extract):
        with pytest.raises(InternalInvariant):
            extractor(FIXTURE, 2, 2, ReferenceEscapingOracle(), 10_000)


def test_an_empty_horizon_is_refused_before_any_block_search(monkeypatch):
    monkeypatch.setattr(extract, "_extractor_block", mock.Mock(side_effect=AssertionError))
    empty = StableColoring(0, [], [])
    for run in (lambda f, h: randomized_extract(f, 2, 2, default_config(1, horizon=h)),
                lambda f, h: oracle_extract(f, 2, 2, ReferenceEscapingOracle(), h)):
        with pytest.raises(ContractViolation, match=r"^horizon 0 must be >= 1$"):
            run(empty, 100)
        with pytest.raises(ContractViolation, match=r"^horizon 0 must be >= 1$"):
            run(FIXTURE, 0)


def verdict(check, f, vertices, color):
    """check(f, vertices, color), or the type and message of what it raised."""
    try:
        return check(f, vertices, color)
    except (ContractViolation, RangeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(f=st.one_of(small_stable(), window_one_stable(), st.builds(
           lambda n, bits: FiniteColoring(n, bits[:n * (n - 1) // 2]),
           st.integers(1, 10), st.lists(st.integers(0, 1), min_size=45, max_size=45))),
       data=st.data())
def test_verify_homogeneous_matches_the_pairwise_scan(f, data):
    """Same verdict, or the same exception, as the pairwise scan, on sets
    drawn from homogeneous blocks and from anywhere, with repeated,
    negative and out-of-horizon vertices mixed in."""
    h = f.horizon
    color = data.draw(st.integers(0, 1), label="color")
    block = find_homogeneous_block(f, range(h), data.draw(st.integers(0, h), label="size"), color)
    drawn = data.draw(st.lists(st.integers(-2, h + 2), max_size=8), label="vertices")
    for vertices in ([] if block is None else [block, list(block) + drawn]) + [drawn]:
        assert verdict(verify_homogeneous, f, vertices, color) == \
            verdict(pairwise_homogeneous, f, vertices, color)


def test_verify_homogeneous_matches_the_pairwise_scan_at_large_horizons():
    # a 30-vertex stem spread over FIXTURE's 10,000 vertices, and a dense
    # block of 1,000 vertices read through upper rows (FIXTURE) and
    # symmetric ones (a finite restriction); each also with a repeated
    # vertex and an out-of-horizon one, so that which comes first, the
    # raise or the False, is pinned
    stem = randomized_extract(FIXTURE, 2, 2, default_config(seed=42)).vertices
    dense = find_homogeneous_block(FIXTURE, range(10_000), 1_000, 0)
    finite = FIXTURE.restrict(dense[-1] + 1)
    assert len(stem) == 30 and stem[-1] > 2_000 and dense[-1] < 2_000
    for f, vertices in ((FIXTURE, stem), (FIXTURE, dense), (finite, dense)):
        twice = vertices[len(vertices) // 2]
        for extra in ([], [twice], [f.horizon + 3], [twice, f.horizon + 3]):
            for color in (0, 1):
                want = verdict(pairwise_homogeneous, f, list(vertices) + extra, color)
                assert verdict(verify_homogeneous, f, list(vertices) + extra, color) == want
                if color == 1:
                    assert want is False  # the first pair differs, before any raise
                elif extra:  # the first invalid pair: the repeat, or row 0's last pair
                    assert want[0] is (ContractViolation if extra == [twice] else RangeError)
                else:
                    assert want is True
