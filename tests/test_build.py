import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mirror_chain_coloring, pat
from test_acceptance import priority_scenarios
from rpl import build as build_module
from rpl.build import (
    AdversaryScript,
    GammaNode,
    PriorityResult,
    RequirementState,
    RequirementVerdict,
    SimpleOrder,
    chain_order,
    check_state_properties,
    check_transversal_realization,
    delta_extract,
    gamma_build,
    mirror_double,
    parse_script_file,
    priority_build,
)
from rpl.errors import ContractViolation, InstanceLoadError, InternalInvariant, RangeError
from rpl.patterns import FiniteColoring, StableColoring, avoids
from rpl.perms import Permutation, is_transitive, perm_to_pattern


# ---------------------------------------------------------------------------
# Adversary scripts


def test_script_enumeration_monotone():
    sc = AdversaryScript("s", [("0", 2, [5]), ("01", 4, [7]), ("", 6, [9])])
    assert sc.enumerated("00", 1) == set()
    assert sc.enumerated("00", 2) == {5}
    assert sc.enumerated("01", 4) == {5, 7}
    assert sc.enumerated("01", 6) == {5, 7, 9}
    assert sc.enumerated("1", 6) == {9}
    # monotone in stage and prefix
    for s in range(7):
        assert sc.enumerated("0", s) <= sc.enumerated("0", s + 1)
        assert sc.enumerated("0", s) <= sc.enumerated("01", s)


def test_script_hitting_measure():
    sc = AdversaryScript("m", [("0", 1, [5]), ("10", 1, [5]), ("11", 3, [7])])
    # at stage 1, prefixes longer than the stage do not count yet
    assert sc.hitting_measure(1, 0, 9) == Fraction(1, 2)
    assert sc.hitting_measure(3, 0, 9) == Fraction(1)
    assert sc.hitting_measure(3, 6, 9) == Fraction(1, 4)
    assert sc.hitting_measure(3, 8, 9) == Fraction(0)
    # a prefix covered by a shorter one is subsumed, not double counted
    sc2 = AdversaryScript("n", [("0", 2, [5]), ("01", 2, [5])])
    assert sc2.hitting_measure(2, 5, 5) == Fraction(1, 2)


@pytest.mark.parametrize("event", [
    ("2", 0, [1]), (["0"], 0, [1]), (None, 0, [1]),
    ("", 1.5, [1]), ("", True, [1]), ("", "3", [1]), ("", -1, [1]),
    ("", 0, [1.0]), ("", 0, [True]), ("", 0, ["3"]), ("", 0, "3"), ("", 0, [-2]),
])
def test_script_rejects_untyped_fields(event):
    # no stage or element is coerced: 1.5 does not become 1, nor true 1
    with pytest.raises(ContractViolation):
        AdversaryScript("x", [("", 0, [1]), event])


def scan_enumerated(script, prefix, stage):
    """`enumerated` as a scan of every event."""
    out = set()
    for ev in script.events:
        if ev.stage <= stage and prefix.startswith(ev.prefix):
            out |= ev.elements
    return out


def scan_hitting_measure(script, stage, lo, hi):
    """`hitting_measure` as a scan of every event: the minimal prefixes
    among those with an event by `stage` that meets [lo, hi]."""
    if lo > hi:
        return Fraction(0)
    prefixes = {
        ev.prefix
        for ev in script.events
        if ev.stage <= stage
        and len(ev.prefix) <= stage
        and any(lo <= x <= hi for x in ev.elements)
    }
    minimal = [p for p in prefixes if not any(q != p and p.startswith(q) for q in prefixes)]
    return sum((Fraction(1, 2 ** len(p)) for p in minimal), Fraction(0))


@st.composite
def scripts_and_queries(draw):
    """A script over a horizon of up to 10 with prefixes of length 0-3, and
    queries whose stages and elements run past the horizon."""
    horizon = draw(st.integers(0, 10))
    top = horizon + 3
    bits = st.text("01", max_size=3)
    events = draw(st.lists(st.tuples(bits, st.integers(0, top),
                                     st.lists(st.integers(0, top), max_size=4)), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        # one element under a chain of nested prefixes, at random stages
        x, deep = draw(st.integers(0, top)), draw(bits)
        events += [(deep[:k], draw(st.integers(0, top)), [x]) for k in range(len(deep) + 1)]
    events = draw(st.permutations(events))
    queries = draw(st.lists(st.tuples(bits, st.integers(0, top), st.integers(0, top),
                                      st.integers(0, top)), min_size=1, max_size=8))
    return AdversaryScript("f", events), queries


@settings(max_examples=200, deadline=None)
@given(scripts_and_queries())
def test_script_index_matches_event_scans(args):
    script, queries = args
    for prefix, stage, lo, hi in queries:
        assert script.enumerated(prefix, stage) == scan_enumerated(script, prefix, stage)
        for a, b in ((lo, hi), (hi, lo), (lo, lo)):  # lo > hi and lo == hi included
            measure = scan_hitting_measure(script, stage, a, b)
            assert script.hitting_measure(stage, a, b) == measure
            assert script.hitting_weight(stage, a, b) == measure * 2 ** script.depth


def test_script_validation_and_file_format(tmp_path):
    text = "\n".join([
        "# comment",
        "e a prefix - stage 0 emit 3,4",
        "e a prefix 01 stage 2 emit 5",
        "e b prefix 1 stage 1 emit 2",
    ])
    scripts = parse_script_file(text, "inline")
    assert scripts["a"].enumerated("01", 2) == {3, 4, 5}
    assert scripts["b"].enumerated("1", 1) == {2}
    with pytest.raises(InstanceLoadError) as exc:
        parse_script_file("e a prefix - stage x emit 1", "f")
    assert exc.value.line_no == 1
    with pytest.raises(InstanceLoadError):
        parse_script_file("bogus line", "f")


# ---------------------------------------------------------------------------
# Priority construction


def full_script(horizon):
    return AdversaryScript("all", [("", s, [s]) for s in range(horizon)])


def test_priority_vacuous():
    res = priority_build([], 30)
    assert all(b == 0 for b in res.table.bits)
    assert res.log == []
    assert res.verdicts == []


def test_priority_single_requirement_trace():
    res = priority_build([(pat("01"), full_script(40))], 40)
    req = res.requirements[0]
    assert req.intervals == [(0, 0), (1, 1)]
    assert res.verdicts[0].kind == "realized"
    # commitments followed the pattern: the pair (0, 1) has color p(0,1)=0
    assert res.table.color(0, 1) == 0
    assert check_state_properties(res) == []
    assert is_transitive(res.table)


def test_priority_injury_logged():
    late = AdversaryScript("late", [("", 12, [12]), ("", 20, [20]), ("", 30, [30])])
    res = priority_build([(pat("10"), late), (pat("01"), full_script(40))], 40)
    injuries = [e for e in res.log if e["injured"]]
    assert injuries, "the late high-priority action must reset the lower state"
    assert all(v.kind == "realized" for v in res.verdicts)
    assert check_state_properties(res) == []
    assert is_transitive(res.table)


def test_priority_measure_bounded_requirement():
    # a script confined to one quarter of the prefix space can never pass
    # the attention threshold for a size-2 pattern (needs > 3/4)
    quarter = AdversaryScript("q", [("00", s, [s]) for s in range(2, 40)])
    res = priority_build([(pat("01"), quarter)], 40)
    v = res.verdicts[0]
    assert v.kind == "measure-bounded"
    assert v.final_measure <= v.threshold
    assert v.final_measure == Fraction(1, 4)


def test_priority_stability_and_override_consistency():
    res = priority_build([(pat("10"), full_script(50)), (pat("012"), full_script(50))], 50)
    st = res.coloring
    for x in range(50):
        for y in range(x + 1, 50):
            assert st.color(x, y) == res.table.color(x, y)
        # settled tail really is constant
        for y in range(st.settle[x], 50):
            assert res.table.color(x, y) == st.limits[x]


def assert_logged_measures_acted(res):
    """Each log entry carries the measure that made its requirement act."""
    for entry in res.log:
        req = res.requirements[entry["acted"]]
        measure = Fraction(entry["measure"])
        assert measure > 1 - Fraction(1, 2 * req.pattern.size)
        assert measure == req.script.hitting_measure(entry["stage"], *entry["interval"])


def test_priority_logs_the_acting_measure():
    for reqs in priority_scenarios(80):
        res = priority_build(reqs, 80)
        assert_logged_measures_acted(res)
    res = priority_build([(pat("01"), full_script(40))], 40)
    assert [entry["measure"] for entry in res.log] == ["1", "1"]


@pytest.mark.parametrize("horizon", [0, -5])
def test_priority_rejects_an_empty_horizon(horizon):
    with pytest.raises(ContractViolation, match=f"horizon {horizon} "):
        priority_build([(pat("01"), full_script(4))], horizon)


@st.composite
def priority_runs(draw):
    """A horizon up to 40 and up to three requirements: a permutation
    pattern of size 1-4 against a random script of events."""
    horizon = draw(st.integers(1, 40))
    events = st.tuples(st.text("01", max_size=3), st.integers(0, horizon),
                       st.lists(st.integers(0, horizon + 1), max_size=3))
    reqs = draw(st.lists(st.tuples(
        st.integers(1, 4).flatmap(lambda k: st.permutations(range(k))),
        st.lists(events, max_size=12)), max_size=3))
    return [(perm_to_pattern(Permutation(values)), AdversaryScript(r, evs))
            for r, (values, evs) in enumerate(reqs)], horizon


@settings(max_examples=60, deadline=None)
@given(priority_runs())
def test_priority_random_scripts_give_stable_transitive_coloring(run):
    reqs, horizon = run
    res = priority_build(reqs, horizon)
    coloring = res.coloring
    assert check_state_properties(res) == []
    assert_logged_measures_acted(res)
    assert is_transitive(res.table) and is_transitive(coloring)
    for x in range(horizon):
        for y in range(x + 1, horizon):
            assert coloring.color(x, y) == res.table.color(x, y)
            if y >= coloring.settle[x]:
                assert res.table.color(x, y) == coloring.limits[x]


def table_by_pairs(res, reqs, horizon):
    """Reference for the table rows: the per-pair dict of commitments,
    replayed from the log, and the stable coloring read from it."""
    commit, last_change, table_bits = [0] * horizon, [0] * horizon, {}
    acts = {entry["stage"]: entry for entry in res.log}
    for s in range(horizon):
        for x in range(s):
            table_bits[(x, s)] = commit[x]
        act = acts.get(s)
        if act is None:
            continue
        p, t = reqs[act["acted"]][0], act["state_length"] - 1
        for i, (a, b) in enumerate(act["states"][act["acted"]]):
            c = p.color(i, t + 1) if t < p.size - 1 else 0
            for x in range(a, min(b, horizon - 1) + 1):
                if commit[x] != c:
                    commit[x], last_change[x] = c, s
    table = FiniteColoring.from_function(horizon, lambda x, y: table_bits[(x, y)])
    settle = [max(x + 1, last_change[x] + 1) for x in range(horizon)]
    overrides = [(x, y, table_bits[(x, y)]) for x in range(horizon)
                 for y in range(x + 1, min(settle[x], horizon)) if table_bits[(x, y)] != commit[x]]
    return table, StableColoring(horizon, commit, settle, overrides)


def assert_table_matches_pairs(reqs, horizon):
    res = priority_build(reqs, horizon)
    table, coloring = table_by_pairs(res, reqs, horizon)
    assert res.table.rows == table.rows
    assert res.coloring.to_json_dict() == coloring.to_json_dict()


@pytest.mark.parametrize("horizon", [1, 7, 80, 128])
def test_priority_table_rows_match_pairs_on_scenarios(horizon):
    for reqs in priority_scenarios(horizon):
        assert_table_matches_pairs(reqs, horizon)


@settings(max_examples=60, deadline=None)
@given(priority_runs())
def test_priority_table_rows_match_pairs_on_random_scripts(run):
    assert_table_matches_pairs(*run)


def test_priority_transversal_checker_detects_breaks():
    res = priority_build([(pat("01"), full_script(30))], 30)
    good = res.requirements[0].intervals
    assert check_transversal_realization(res.table, good, pat("01"))
    assert not check_transversal_realization(res.table, good, pat("10"))
    with pytest.raises(RangeError):
        check_transversal_realization(res.table, good + [(29, 30)], pat("012"))


def pairwise_transversal_realization(table, intervals, p):
    """The transversal check pair by pair: one color lookup per choice of
    x in interval i and y in a later interval j."""
    t = len(intervals)
    for i in range(t):
        for j in range(i + 1, t):
            want = p.color(i, j)
            for x in range(intervals[i][0], intervals[i][1] + 1):
                for y in range(intervals[j][0], intervals[j][1] + 1):
                    if table.color(x, y) != want:
                        return False
    return True


def test_transversal_check_matches_pairwise_on_logged_states():
    # every logged state against its own pattern and against each other
    # pattern of its size, so both verdicts come up
    for horizon in (7, 80):
        for reqs in priority_scenarios(horizon):
            res = priority_build(reqs, horizon)
            for entry in res.log:
                for intervals in entry["states"]:
                    for p in {q for q, _ in reqs if q.size >= len(intervals)}:
                        assert (check_transversal_realization(res.table, intervals, p)
                                == pairwise_transversal_realization(res.table, intervals, p))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.permutations(range(k))),
       st.lists(st.integers(0, 5), min_size=1, max_size=4), st.integers(0, 2 ** 30), st.data())
def test_transversal_check_matches_pairwise_on_random_stacks(values, widths, seed, data):
    # a stack of contiguous intervals, some empty, on a random table and on
    # one whose rows are constant over each interval
    p = perm_to_pattern(Permutation(values))
    start = data.draw(st.integers(0, 3))
    intervals = []
    for w in widths[: p.size]:
        intervals.append((start, start + w - 1))
        start += w
    horizon = start + data.draw(st.integers(1, 3))
    rng = random.Random(seed)
    noisy = FiniteColoring.from_function(horizon, lambda x, y: rng.randint(0, 1))
    block = {x: i for i, (a, b) in enumerate(intervals) for x in range(a, b + 1)}

    def by_pattern(x, y):
        i, j = block.get(x), block.get(y)
        if i is None or j is None or i == j:
            return 0
        return p.color(min(i, j), max(i, j))

    for table in (noisy, FiniteColoring.from_function(horizon, by_pattern)):
        assert (check_transversal_realization(table, intervals, p)
                == pairwise_transversal_realization(table, intervals, p))


def test_priority_output_avoids_forbidden_pair_patterns():
    scenarios = [
        [],
        [(pat("01"), full_script(60))],
        [(pat("10"), full_script(60))],
        [(pat("120"), full_script(60)), (pat("01"), full_script(60))],
    ]
    for reqs in scenarios:
        res = priority_build(reqs, 60)
        assert avoids(res.table, range(60), pat("1302"))
        assert avoids(res.table, range(60), pat("2031"))


def reference_priority_build(requirements, horizon):
    """`priority_build` as a loop over every stage, asking each requirement
    that is not full for its measure until one passes its bar."""
    reqs = [
        RequirementState(p, script, marker=i)
        for i, (p, script) in enumerate(requirements)
    ]
    thresholds = [1 - Fraction(1, 2 * req.pattern.size) for req in reqs]
    # weight / 2**depth > 1 - 1/(2m)  iff  weight * 2m > (2m - 1) << depth
    bars = [(2 * req.pattern.size - 1) << req.script.depth for req in reqs]
    committed = 0  # bit x: x's commitment
    last_change = [0] * horizon
    rows = [0] * horizon  # the table's row masks
    log: list = []

    for s in range(horizon):
        rows[s] = committed  # the pairs (x, s): only x < s has committed yet

        acting = None
        for r, req in enumerate(reqs):
            m = req.pattern.size
            if len(req.intervals) >= m:
                continue
            weight = req.script.hitting_weight(s, req.marker, s)
            if weight * 2 * m > bars[r]:
                acting = r
                break
        if acting is None:
            continue
        req = reqs[acting]
        p = req.pattern
        t = req.length
        lo, hi = req.marker, s
        req.intervals.append((lo, hi))
        for i, (a, b) in enumerate(req.intervals):
            c = p.color(i, t + 1) if t < p.size - 1 else 0
            for x in range(a, min(b, horizon - 1) + 1):
                if committed >> x & 1 != c:
                    if not c:  # x's run of 1s covered the pairs (x, y), last_change[x] < y <= s
                        rows[x] |= (2 << s) - (2 << last_change[x])
                    committed ^= 1 << x
                    last_change[x] = s
        req.marker = s + 1
        injured = []
        for j in range(acting + 1, len(reqs)):
            reqs[j].marker = s + 1 + (j - acting)
            if reqs[j].intervals:
                injured.append(j)
            reqs[j].intervals = []
        log.append(
            {
                "stage": s,
                "acted": acting,
                "interval": [lo, hi],
                "state_length": req.length,
                "injured": injured,
                "markers": [q.marker for q in reqs],
                "states": [list(q.intervals) for q in reqs],
                "measure": str(Fraction(weight, 1 << req.script.depth)),
            }
        )

    limits = [committed >> x & 1 for x in range(horizon)]
    for x in range(horizon):
        if limits[x]:  # a run of 1s still open at the horizon
            rows[x] |= (1 << horizon) - (2 << last_change[x])
    table = FiniteColoring._from_rows(horizon, rows)
    coloring = StableColoring.from_rows(horizon, rows, limits)

    verdicts = []
    final_stage = horizon - 1
    for r, (req, threshold) in enumerate(zip(reqs, thresholds)):
        measure = req.script.hitting_measure(final_stage, req.marker, final_stage)
        if req.length == req.pattern.size:
            kind = "realized"
        elif measure > threshold:
            kind = "starved"  # wanted attention at the horizon; truncation artifact
        else:
            kind = "measure-bounded"
        verdicts.append(
            RequirementVerdict(r, kind, req.length, measure, threshold)
        )
    return PriorityResult(horizon, coloring, table, reqs, verdicts, log)


def assert_matches_every_stage_reference(reqs, horizon):
    res, ref = priority_build(reqs, horizon), reference_priority_build(reqs, horizon)
    assert res.log == ref.log
    assert res.table.rows == ref.table.rows
    assert res.coloring.to_json_dict() == ref.coloring.to_json_dict()
    assert res.verdicts == ref.verdicts
    assert res.requirements == ref.requirements


@pytest.mark.parametrize("horizon", [1, 7, 80, 128])
def test_priority_matches_every_stage_reference_on_scenarios(horizon):
    for reqs in priority_scenarios(horizon):
        assert_matches_every_stage_reference(reqs, horizon)


@settings(max_examples=60, deadline=None)
@given(priority_runs())
def test_priority_matches_every_stage_reference_on_random_scripts(run):
    assert_matches_every_stage_reference(*run)


@settings(max_examples=60, deadline=None)
@given(priority_runs())
def test_reach_stage_is_the_least_stage_a_scan_finds(run):
    # hitting_weight(t, lo, t) never falls as t grows, and reach_stage
    # finds the first t at each weight; past the last stage and element
    # the weight stays put
    reqs, horizon = run
    for _, script in reqs:
        last = max([ev.stage for ev in script.events]
                   + [x for ev in script.events for x in ev.elements], default=0)
        end = max(last, script.depth) + 2
        for lo in range(end):
            weights = [script.hitting_weight(t, lo, t) for t in range(end + 1)]
            assert weights == sorted(weights)
            for w in range(1, 2 ** script.depth + 1):
                least = next((t for t, got in enumerate(weights) if got >= w), None)
                assert script.reach_stage(lo, w) == least


def test_priority_reads_the_measure_once_per_act(monkeypatch):
    # a build asks hitting_weight for each act's measure and once per
    # requirement for the verdicts, not at every stage
    calls = []
    real = AdversaryScript.hitting_weight
    monkeypatch.setattr(AdversaryScript, "hitting_weight",
                        lambda self, *args: calls.append(args) or real(self, *args))
    horizon = 4096
    reqs = next(reqs for reqs in priority_scenarios(horizon) if len(reqs) == 3)
    assert [script.ident for _, script in reqs] == ["full", "half", "quarter"]
    res = priority_build(reqs, horizon)
    assert 0 < len(calls) <= len(res.log) + 3
    assert [args[0] for args in calls[: len(res.log)]] == [entry["stage"] for entry in res.log]


def test_priority_refuses_a_due_stage_below_the_bar(monkeypatch):
    # the script first reaches the bar at stage 12; stage 11 falls short
    late = AdversaryScript("late", [("", 12, [12]), ("", 20, [20])])
    assert late.reach_stage(0, 1) == 12
    real = AdversaryScript.reach_stage
    monkeypatch.setattr(AdversaryScript, "reach_stage",
                        lambda self, lo, weight: real(self, lo, weight) - 1)
    with pytest.raises(InternalInvariant, match="stage 11 below its attention bar"):
        priority_build([(pat("01"), late)], 40)


# ---------------------------------------------------------------------------
# Split order builders


def test_gamma_empty_scripts_shape():
    b = gamma_build("inc", 0, 60)
    root = b.root
    # heads ordered first
    assert b.less(0, 1)
    block0 = [x for x in root.ground[2:] if root.block_of(x) == 0]
    assert all(x not in b.keys for x in block0)  # stays disabled forever
    rest = [x for x in b.members if x not in (0, 1)]
    assert all(b.less(1, x) for x in rest)
    # first heads appear in increasing order at every populated node
    heads = root.ground[:root.width]
    for x, y in zip(heads, heads[1:]):
        assert b.less(x, y)


def test_gamma_transition_and_finite_block():
    sc = {0: AdversaryScript("w0", [("", 15, [3]), ("", 25, [7])])}
    b = gamma_build("inc", 0, 60, sc)
    assert b.root.transitions, "a witnessed hit must move the disabled index"
    stage, old, new = b.root.transitions[0]
    assert old == 0 and new == b.root.block_of(3)
    # the block disabled at the end collected no members after its stage
    final = b.root.disabled
    late = [x for x in b.root.ground[2:]
            if b.root.block_of(x) == final and x > stage]
    assert all(x not in b.keys for x in late)


def test_gamma_single_disabled_invariant_and_replay():
    sc = {0: AdversaryScript("w0", [("", 10, [3, 5]), ("", 30, [9, 11])]),
          1: AdversaryScript("w1", [("", 20, [13])])}
    b1 = gamma_build("dec", 0, 120, sc)
    b2 = gamma_build("dec", 0, 120, sc)
    assert b1.keys == b2.keys and b1.log == b2.log
    # one transition per node per stage (atomic swaps)
    seen = {}
    for e in b1.log:
        if e["event"] == "transition":
            key = (tuple(e["node"]), e["stage"])
            assert key not in seen
            seen[key] = True


def test_gamma_dec_cut():
    sc = {0: AdversaryScript("w0", [("", 15, [3])])}
    b = gamma_build("dec", 0, 60, sc)
    assert b.root.cut_from is not None
    # elements arriving after the cut sit above everything before it
    before = [x for x in b.members if x < 15]
    after = [x for x in b.members if x >= 15]
    for a in after:
        for c in before:
            assert b.less(c, a)


class DictNode:
    """The reference's node: an eagerly built subtree whose ground is a
    list, addressed through dicts from elements to local indices and to
    blocks."""

    def __init__(self, e, dec, path, ground):
        self.e = e
        self.dec = dec
        self.path = path
        self.ground = list(ground)
        self.local = {x: i for i, x in enumerate(self.ground)}
        width = 2 ** (e + 1)
        self.heads = self.ground[:width]
        rest = self.ground[width:]
        self.block_of = {}
        self.children = []
        if rest:  # a wide node with no rest builds no empty blocks
            grounds = [rest[i::width] for i in range(width)]
            for i, g in enumerate(grounds):
                for x in g:
                    self.block_of[x] = i
            self.children = [
                DictNode(e + 1, True, path + (i,), g) for i, g in enumerate(grounds)
            ]
        self.disabled = 0
        self.transitions = []
        self.cut_from = None

    @property
    def is_leaf(self):
        return not self.children

    def cut_level(self, x):
        if not self.dec or self.cut_from is None:
            return 0
        j = self.local[x]
        return 0 if j < self.cut_from else j - self.cut_from + 1


def reference_gamma_build(direction, e, n, scripts):
    """The protocol as first written: every node at every stage, with one
    cached enumeration per level and stage.  Returns the members, keys,
    log and root of the build."""
    root = DictNode(e, direction == "dec", (), range(n))
    member = [False] * n
    log = []
    nodes = []

    def collect(node):
        nodes.append(node)
        for ch in node.children:
            collect(ch)

    collect(root)
    enum_now = {}

    def enumerated(level, s):
        if level not in scripts:
            return set()
        if (level, s) not in enum_now:
            enum_now[(level, s)] = scripts[level].enumerated("", s)
        return enum_now[(level, s)]

    for s in range(n):
        for node in nodes:
            hits = enumerated(node.e, s)
            if node.dec and node.cut_from is None:
                if any(member[y] for y in hits if y in node.local and y < s):
                    node.cut_from = sum(1 for x in node.ground if x < s)
                    log.append({"stage": s, "node": list(node.path), "event": "cut",
                                "local": node.cut_from})
            if node.is_leaf:
                continue
            candidates = sorted(
                node.block_of[y] for y in hits
                if y < s and member[y] and y in node.block_of
                and node.block_of[y] > node.disabled
            )
            if candidates:
                log.append({"stage": s, "node": list(node.path), "event": "transition",
                            "old": node.disabled, "new": candidates[0]})
                node.transitions.append((s, node.disabled, candidates[0]))
                node.disabled = candidates[0]
        node = root
        member[s] = True
        while node.local[s] >= len(node.heads):
            i = node.block_of[s]
            if i == node.disabled:
                member[s] = False
                log.append({"stage": s, "node": list(node.path), "event": "exclude",
                            "block": i})
                break
            node = node.children[i]

    def key_of(x):
        node, out = root, []
        while True:
            if node.dec:
                out.append(node.cut_level(x))
            j = node.local[x]
            if j < len(node.heads):
                return tuple(out + [2 * j])
            out.append(2 * node.block_of[x] + 1)
            node = node.children[node.block_of[x]]

    members = [x for x in range(n) if member[x]]
    return members, {x: key_of(x) for x in members}, log, root


def node_states(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.path, list(node.ground), list(node.ground[:2 << node.e]),
                    node.transitions, node.cut_from, node.disabled))
        stack.extend(reversed(node.children))
    return out


def reference_delta(bits, keys, root):
    """The descent as first written, over the eager reference tree: e + 1
    bits per level, read most significant first, pick a block; returns
    (status, sequence, flags, bits used)."""
    pos, seq, node = 0, [], root
    while True:
        width = node.e + 1
        if pos + width > len(bits):
            return "ok", seq, ["bit stream exhausted"], pos
        j = int("".join(map(str, bits[pos:pos + width])), 2)
        pos += width
        if node.is_leaf:
            tail = [h for h in node.heads[j:] if h in keys]
            return "ok", seq + tail, [] if tail else [f"leaf choice {j} beyond populated heads"], pos
        if j == node.disabled:
            return "dead_block", seq, [f"picked disabled block {j} at node {node.path}"], pos
        if node.heads[j] in keys:
            seq.append(node.heads[j])
        node = node.children[j]


# every stream of up to 8 bits, and a few longer ones
DELTA_STREAMS = [list(bits) for k in range(9) for bits in itertools.product((0, 1), repeat=k)]
DELTA_STREAMS += [[random.Random(k).randint(0, 1) for _ in range(24)] for k in range(8)]


def assert_same_build(direction, e, n, scripts):
    """The build against the reference, and every stream of `DELTA_STREAMS`
    descended through both; the descent runs before anything forces the
    build's unvisited nodes."""
    b = gamma_build(direction, e, n, scripts)
    members, keys, log, root = reference_gamma_build(direction, e, n, scripts)
    assert b.members == members
    assert b.keys == keys
    assert b.log == log
    for bits in DELTA_STREAMS:
        res = delta_extract(direction, e, bits, b)
        assert (res.status, res.sequence, res.flags, res.bits_used) == reference_delta(bits, keys, root)
    assert node_states(b.root) == node_states(root)
    return b


@st.composite
def gamma_inputs(draw):
    direction = draw(st.sampled_from(["inc", "dec"]))
    e = draw(st.integers(0, 2))
    n = draw(st.integers(0, 700))
    top = n + 20  # elements and stages may lie past the horizon
    scripts = {}
    for level in draw(st.sets(st.integers(0, 6), max_size=4)):
        events = draw(st.lists(
            st.tuples(st.sampled_from(["", "", "0", "1", "01"]), st.integers(0, top),
                      st.lists(st.integers(0, top), min_size=1, max_size=4)),
            max_size=12))
        if draw(st.booleans()):
            # dense hits: many witnessed blocks at once, so nodes move on
            # consecutive stages
            stage = draw(st.integers(0, top))
            step = draw(st.integers(1, 4))
            events.append(("", stage, range(0, top, step)))
        scripts[level] = AdversaryScript(f"w{level}", events)
    return direction, e, n, scripts


@settings(max_examples=60, deadline=None)
@given(gamma_inputs())
def test_gamma_matches_every_stage_reference(args):
    assert_same_build(*args)


def test_gamma_dense_hits_move_on_consecutive_stages():
    # every arrival before stage 300 is witnessed at once, so each node
    # walks its disabled index up one block per stage
    scripts = {level: AdversaryScript(f"w{level}", [("", 300, range(700))])
               for level in range(7)}
    b = assert_same_build("dec", 2, 700, scripts)
    assert [t[0] for t in b.root.transitions] == list(range(300, 307))
    assert sum(1 for entry in b.log if entry["event"] == "transition") >= 64


def seeded_scripts(rng, lo, n):
    """Scripts for levels 0-3, six events each: an event at a stage drawn
    from [lo, n) enumerates one to three earlier arrivals."""
    scripts = {}
    for level in range(4):
        events = []
        for _ in range(6):
            s = rng.randrange(lo, n)
            events.append(("", s, rng.sample(range(s), rng.randint(1, 3))))
        scripts[level] = AdversaryScript(f"w{level}", events)
    return scripts


def test_gamma_visits_only_due_stages(monkeypatch):
    # an every-stage loop reads each level's script and visits each node at
    # every stage, 4,000 stages here; the build reads each script's index
    # once, and visits a node once per hit and once after each transition,
    # which needs a hit of its own
    reads, visits = [], []
    real_first_stages = AdversaryScript.first_stages
    real_is_leaf = GammaNode.is_leaf.fget

    def first_stages(self, prefix):
        reads.append(prefix)
        return real_first_stages(self, prefix)

    def is_leaf(node):  # read once per visit, by the protocol body alone
        visits.append(node)
        return real_is_leaf(node)

    def scan(*args):
        raise AssertionError("the build reads only the script index")

    monkeypatch.setattr(AdversaryScript, "first_stages", first_stages)
    monkeypatch.setattr(AdversaryScript, "enumerated", scan)
    monkeypatch.setattr(GammaNode, "is_leaf", property(is_leaf))
    scripts = seeded_scripts(random.Random(5), 200, 4000)
    elements = sum(len(ev.elements) for sc in scripts.values() for ev in sc.events)
    b = gamma_build("dec", 1, 4000, scripts)
    assert any(entry["event"] != "exclude" for entry in b.log)
    assert reads == [""] * len(scripts)
    assert 0 < len(visits) <= 2 * elements


def test_gamma_protocol_runs_only_on_stages_with_due_nodes(monkeypatch):
    # the protocol body sorts its stage's due nodes once, so counting calls
    # to sorted in the build's namespace counts the stages that run it
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(1)
        return sorted(*args, **kwargs)

    n = 1000
    scripts = seeded_scripts(random.Random(7), n // 20, n)
    monkeypatch.setattr(build_module, "sorted", counting_sorted, raising=False)
    gamma_build("dec", 0, 1200)
    assert calls == []
    b = gamma_build("inc", 0, n, scripts)
    # a node is due at a hit's witness stage, or the stage after it moved
    due = {max(t, y + 1) for sc in scripts.values() for y, t in sc.first_stages("")}
    due |= {entry["stage"] + 1 for entry in b.log if entry["event"] == "transition"}
    assert 0 < len(calls) <= len({s for s in due if s < n})


def test_gamma_dense_scripts_build_in_linear_time():
    # every arrival is witnessed the stage after it is placed, at three
    # levels; rescanning each level's hits per visit took 3.8 s here
    n = 4000
    scripts = {level: AdversaryScript(f"d{level}", [("", 0, range(n))]) for level in (1, 2, 3)}
    start = time.perf_counter()
    b = gamma_build("dec", 0, n, scripts)
    assert time.perf_counter() - start < 1.0
    assert sum(1 for entry in b.log if entry["event"] == "transition") > 100


def test_gamma_wide_node_and_level_contract():
    b = gamma_build("inc", 40, 10)
    assert b.root.ground[:b.root.width] == range(10) and b.root.children == []
    assert b.members == list(range(10))
    assert all(b.less(x, x + 1) for x in range(9))
    with pytest.raises(ContractViolation):
        gamma_build("inc", -2, 10)


def built_nodes(node):
    """The nodes of a build reachable through built slots, without
    building any more."""
    return [node] + [x for ch in node.slots if ch is not None for x in built_nodes(ch)]


def test_gamma_builds_only_the_nodes_it_visits():
    b = gamma_build("dec", 0, 1200)
    lazy = len(built_nodes(b.root))
    every = node_states(b.root)  # forces every node
    assert len(every) == 1099
    assert sum(1 for state in every if state[1]) == 177  # nonempty grounds
    assert lazy < 177
    assert len(built_nodes(b.root)) == 1099


def test_gamma_lazy_nodes_match_reference_states():
    # scripted and unscripted builds on both sides of the jump in node
    # count at base index 1, node for node against the eager reference
    rng = random.Random(11)
    for n, scripted in ((500, True), (640, True), (640, False)):
        scripts = seeded_scripts(rng, n // 20, n) if scripted else {}
        for direction in ("inc", "dec"):
            b = assert_same_build(direction, 1, n, scripts)
            assert len(node_states(b.root)) == (549 if n == 640 else 37)


def test_gamma_block_of_matches_reference_dicts():
    b = gamma_build("dec", 1, 640)
    _, _, _, root = reference_gamma_build("dec", 1, 640, {})
    stack = [(b.root, root)]
    while stack:
        node, ref = stack.pop()
        assert [node.block_of(x) for x in ref.ground] == [ref.block_of.get(x) for x in ref.ground]
        stack.extend(zip(node.children, ref.children))


def test_delta_leaf_pick_closes_with_the_remaining_heads():
    # bits 1 and 01 pick block 1 at the root and in its child, whose
    # block 1 is a leaf with six heads; the last three bits pick among them
    built = gamma_build("inc", 0, 60)
    _, keys, _, root = reference_gamma_build("inc", 0, 60, {})
    child = root.children[1]
    leaf = child.children[1]
    assert leaf.is_leaf and len(leaf.heads) == 6
    for j in range(8):
        res = delta_extract("inc", 0, [1, 0, 1, j >> 2, j >> 1 & 1, j & 1], built)
        tail = [h for h in leaf.heads[j:] if h in keys]
        assert res.status == "ok"
        assert res.sequence == [h for h in (root.heads[1], child.heads[1]) if h in keys] + tail
        assert res.flags == ([] if tail else [f"leaf choice {j} beyond populated heads"])


def test_delta_streams_agree_before_and_after_materializing():
    built = gamma_build("dec", 0, 800)
    assert len(built_nodes(built.root)) < 75
    rng = random.Random(17)
    streams = [[rng.randint(0, 1) for _ in range(24)] for _ in range(512)]
    before = [delta_extract("dec", 0, bits, built) for bits in streams]
    assert len(node_states(built.root)) == 75  # forces every node
    after = [delta_extract("dec", 0, bits, built) for bits in streams]
    assert before == after
    assert {res.status for res in before} == {"ok", "dead_block"}


def test_delta_examples():
    built = gamma_build("inc", 0, 200)
    ok = delta_extract("inc", 0, [1, 0, 1, 0, 1, 1, 0, 1, 1], built)
    assert ok.status == "ok" and len(ok.sequence) >= 2
    for a, b in zip(ok.sequence, ok.sequence[1:]):
        assert a < b and built.less(a, b)
    dead = delta_extract("inc", 0, [0, 0, 0], built)
    assert dead.status == "dead_block"
    with pytest.raises(ContractViolation):
        delta_extract("dec", 0, [0], built)


@pytest.mark.parametrize("bits", [
    [2, 0, 1, 0, 1, 1, 0, 1, 1],
    [1, 3, 1, 0, 1, 1, 0, 1, 1],
    ["1", "0", "1", "0", "1", "1", "0", "1", "1"],
    [1.0, 0, 1, 0, 1, 1, 0, 1, 1],
    [1, 0.0, 1, 0, 1, 1, 0, 1, 1],
], ids=["two", "three", "text", "one_float", "zero_float"])
def test_delta_rejects_entries_other_than_0_and_1(bits):
    built = gamma_build("inc", 0, 200)
    with pytest.raises(ContractViolation, match="0 or 1"):
        delta_extract("inc", 0, bits, built)


def test_delta_monte_carlo_quick():
    built = gamma_build("dec", 0, 800)
    rng = random.Random(3)
    succ = 0
    trials = 600
    for _ in range(trials):
        bits = [rng.randint(0, 1) for _ in range(16)]
        if delta_extract("dec", 0, bits, built).status == "ok":
            succ += 1
    assert succ / trials >= 0.25


# ---------------------------------------------------------------------------
# Mirror doubling


def test_mirror_three_cases():
    m = mirror_double(chain_order(10))
    assert m.less(0, 1) and m.less(8, 3)      # every even below every odd
    assert m.less(0, 2) == chain_order(10).less(0, 1)
    assert m.less(3, 1) == chain_order(10).less(0, 1)
    assert not m.less(1, 0)
    assert m.ordered() == list(range(0, 20, 2)) + list(range(19, 0, -2))
    # total on distinct elements
    for a in range(8):
        for b in range(8):
            if a != b:
                assert m.less(a, b) != m.less(b, a)


def parity_less(source, a: int, b: int) -> bool:
    """The mirror order by the parity rule: evens follow the source,
    every even lies below every odd, and odds follow the reversed source."""
    if a % 2 != b % 2:
        return a % 2 == 0
    x, y = (a // 2, b // 2) if a % 2 == 0 else (b // 2, a // 2)
    return source.less(x, y)


@pytest.mark.parametrize("source", [chain_order(10), SimpleOrder(12, {x: ((x * 7) % 12, -x) for x in range(12)})],
                         ids=["chain", "keyed"])
def test_mirror_double_matches_parity_rule(source):
    m = mirror_double(source)
    assert m.horizon == 2 * source.horizon
    assert sorted(m.keys.values()) == [(r,) for r in range(m.horizon)]
    for a, b in itertools.product(range(m.horizon), repeat=2):
        assert m.less(a, b) == parity_less(source, a, b)


def test_mirror_to_stable_is_transitive_split():
    st = mirror_chain_coloring(40)
    assert is_transitive(st)
    assert st.limits[:6] == (0, 1, 0, 1, 0, 1)
    assert avoids(st, range(60), pat("1302"))
    assert avoids(st, range(60), pat("2031"))


def test_mirror_monotone_runs_bounded():
    # a source with short monotone runs keeps mirror runs short on each
    # side; crossings only use the forced even-below-odd step
    src = SimpleOrder(12, {x: ((x * 7) % 12,) for x in range(12)})

    def longest_increasing(order, ground):
        best = {x: 1 for x in ground}
        for j, y in enumerate(ground):
            for i in range(j):
                x = ground[i]
                if order.less(x, y):
                    best[y] = max(best[y], best[x] + 1)
        return max(best.values())

    m = mirror_double(src)
    src_inc = longest_increasing(src, list(range(12)))
    src_dec = longest_increasing(SimpleOrder(12, {x: tuple(-v for v in src.keys[x]) for x in range(12)}), list(range(12)))
    mirror_inc = longest_increasing(m, list(range(24)))
    assert mirror_inc <= src_inc + src_dec
