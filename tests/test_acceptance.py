"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance exactly.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import all_perms, oracle_separable, pat
from test_largeness import bt_large

from rpl.build import (
    AdversaryScript,
    check_state_properties,
    delta_extract,
    gamma_build,
    priority_build,
)
from rpl.extract import (
    AdversarialEscapingOracle,
    ReferenceEscapingOracle,
    default_config,
    oracle_extract,
    randomized_extract,
    unbalanced_extract,
    verify_homogeneous,
)
from rpl.fractals import embed_separable, fractal_perm, is_subfractal, partition_extract
from rpl.instances import (
    avoiding_family,
    constant_coloring,
    dipped_split_order,
    grouped_unbalanced,
    repaired_random_unbalanced,
)
from rpl.largeness import (
    em_grouping_extract,
    find_grouping,
    grouping_to_homogeneous,
    is_omega_n_large,
    omega_largeness,
    pattern_largeness,
)
from rpl.patterns import (
    FiniteColoring,
    Pattern,
    avoids,
    realizes,
)
from rpl.perms import (
    Permutation,
    converge,
    direct_sum,
    is_separable,
    is_transitive,
    join,
    perm_coloring,
    perm_to_pattern,
    separating_tree,
    skew_sum,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_separability_agreement_and_counts():
    t0 = time.time()
    counts = []
    total = 0
    for size in range(1, 9):
        c = 0
        for vals in itertools.permutations(range(size)):
            pm = Permutation(vals)
            if is_separable(pm):  # runs both routes and asserts agreement
                c += 1
            total += 1
        counts.append(c)
    elapsed = time.time() - t0
    # independent brute-force oracle, sizes 1..7
    oracle_counts = []
    for size in range(1, 8):
        oracle_counts.append(
            sum(1 for vals in itertools.permutations(range(size))
                if oracle_separable(Permutation(vals)))
        )
    ok = (
        total == 46233
        and counts[:7] == [1, 2, 6, 22, 90, 394, 1806]
        and oracle_counts == [1, 2, 6, 22, 90, 394, 1806]
        and elapsed < 60.0
    )
    report(1, ok, f"{total} permutations, counts {counts[:7]}, {elapsed:.1f}s")


def test_criterion_2_algebraic_identities():
    t0 = time.time()
    perms = [pm for size in range(1, 6) for pm in all_perms(size)]
    pairs = 0
    for a in perms:
        pa = perm_to_pattern(a)
        for b in perms:
            pb = perm_to_pattern(b)
            assert perm_to_pattern(direct_sum(a, b)) == join(converge(pa, 0), pb)
            assert perm_to_pattern(skew_sum(a, b)) == join(converge(pa, 1), pb)
            pairs += 1
    trivial = Pattern(1, ())
    for a in perms:
        pa = perm_to_pattern(a)
        assert join(pa, trivial) == pa
        assert pa.dual().dual() == pa
    elapsed = time.time() - t0
    ok = pairs == 153 * 153 and elapsed < 30.0
    report(2, ok, f"{pairs} pairs, exact equality, {elapsed:.1f}s")


def test_criterion_3_fractal_basis():
    t0 = time.time()
    embedded = 0
    for size in range(1, 7):
        for pm in all_perms(size):
            if separating_tree(pm) is None:
                continue
            dim, positions = embed_separable(pm, 2)
            host = perm_coloring(fractal_perm(2, dim))
            assert realizes(host, positions, perm_to_pattern(pm))
            embedded += 1
    elapsed = time.time() - t0
    ok = embedded == 1 + 2 + 6 + 22 + 90 + 394 and elapsed < 120.0
    report(3, ok, f"{embedded} separable permutations embedded and re-verified, {elapsed:.1f}s")


def test_criterion_4_partition_lemma():
    rng = random.Random(20260808)
    failures = 0
    runs = 0
    for (a, b) in itertools.product((2, 3), repeat=2):
        for n in (1, 2, 3):
            k = a + b - 1
            size = k**n
            for _ in range(1000):
                colors = [rng.randint(0, 1) for _ in range(size)]
                side, out = partition_extract(a, b, n, lambda v: colors[v])
                arity = a if side == 0 else b
                good = (
                    len(out) == arity**n
                    and all(colors[v] == side for v in out)
                    and is_subfractal(out, k, n, arity)
                )
                failures += 0 if good else 1
                runs += 1
    ok = failures == 0 and runs == 12_000
    report(4, ok, f"{runs} extractions, {failures} failures")


FAMILY = avoiding_family(50, 10_000, master_seed=77)


def test_criterion_5_randomized_extraction():
    t0 = time.time()
    # the family genuinely avoids the binary dimension-2 fractal: every
    # row is constant, and 2301 needs a non-constant row; spot-check a
    # prefix exhaustively as well
    for inst in FAMILY[:3]:
        assert avoids(inst, range(60), pat("2301"))
    trials = 1000
    fails = 0
    sizes = []
    for t in range(trials):
        inst = FAMILY[t % len(FAMILY)]
        cfg = default_config(7_000_003 + t, horizon=10_000, steps=30)
        out = randomized_extract(inst, 2, 2, cfg)
        assert sum(Fraction(1, u) for u in cfg.thinning) < Fraction(1, 8)
        if out.success:
            assert verify_homogeneous(inst, out.vertices, out.color)
            assert len(out.vertices) >= 30
            sizes.append(len(out.vertices))
        else:
            fails += 1
    elapsed = time.time() - t0
    rate = fails / trials
    sigma = (0.125 * 0.875 / trials) ** 0.5
    bound = 0.125 + 3 * sigma
    ok = rate <= bound and elapsed < 300.0
    report(5, ok, f"failure rate {rate:.3f} <= {bound:.3f}, "
                  f"{len(sizes)} successes all >= 30, {elapsed:.1f}s")


def max_color1_clique(f, n: int) -> int:
    """Size of the largest vertex set below n whose pairs all have color 1
    (at least 1), by an exact bitmask branch and bound: each clique grows
    in ascending vertex order, and a branch whose remaining candidates
    cannot beat the best size is cut."""
    adj = [sum(1 << y for y in range(n) if y != x and f.color(x, y) == 1)
           for x in range(n)]
    best = 1

    def grow(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while cand and size + bin(cand).count("1") > best:
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & adj[low.bit_length() - 1])

    grow(0, (1 << n) - 1)
    return best


def test_criterion_6_unbalanced_ramsey():
    horizon = 60
    checked = 0
    for k in (2, 3, 4):
        insts = []
        if k == 2:
            insts.append(constant_coloring(horizon, 1))
        else:
            insts += [grouped_unbalanced(horizon, k, seed) for seed in (1, 2, 3)]
            insts += [repaired_random_unbalanced(20, k, seed) for seed in (5, 6)]
        for f in insts:
            n = f.horizon
            res = unbalanced_extract(f, k, n)
            assert verify_homogeneous(f, res.vertices, 1)
            assert len(res.vertices) >= n // (k * 4)
            if n <= 20:
                assert 2 * len(res.vertices) >= max_color1_clique(f, n)
            checked += 1
    report(6, True, f"{checked} instances, size floor horizon/(4k) and half-optimum hold")


def test_criterion_7_oracle_extraction():
    ref = ReferenceEscapingOracle()
    adv = AdversarialEscapingOracle()
    ref_ok = 0
    adv_failures = 0
    for inst in FAMILY:
        out = oracle_extract(inst, 2, 2, ref, 10_000, steps=32)
        assert out.success
        assert verify_homogeneous(inst, out.vertices, out.color)
        assert len(out.vertices) >= 30
        ref_ok += 1

        bad_out = oracle_extract(inst, 2, 2, adv, 10_000, steps=32)
        if not bad_out.success:
            adv_failures += 1
            q = bad_out.failure["queries"][-1]
            assert q["answer"] in q["bad"]
            # the named block is genuinely bad: its element settles wrong
            assert inst.limit(bad_out.failure["chosen"]) == 1
    ok = ref_ok == 50 and adv_failures > 0
    report(7, ok, f"reference 50/50 succeeded, adversarial failed {adv_failures} "
                  "times, every failure verified against declared limits")


def _script(style: str, horizon: int) -> AdversaryScript:
    if style == "full":
        return AdversaryScript("full", [("", s, [s]) for s in range(horizon)])
    if style == "late":
        return AdversaryScript("late", [("", s, [s]) for s in range(horizon // 3, horizon, 7)])
    if style == "half":
        return AdversaryScript("half", [("0", s, [s]) for s in range(horizon)])
    if style == "quarter":
        return AdversaryScript("quarter", [("00", s, [s]) for s in range(2, horizon)])
    if style == "sparse":
        return AdversaryScript("sparse", [("", s, [s, s + 1]) for s in range(0, horizon, 5)])
    raise ValueError(style)


def priority_scenarios(horizon=80):
    shapes = [
        [("01", "full")],
        [("10", "full")],
        [("012", "full")],
        [("0123", "full")],
        [("120", "full")],
        [("01", "half")],
        [("012", "quarter")],
        [("01", "late")],
        [("10", "sparse")],
        [("10", "late"), ("01", "full")],
        [("01", "full"), ("10", "full")],
        [("120", "late"), ("01", "full")],
        [("012", "full"), ("10", "sparse")],
        [("01", "quarter"), ("10", "full")],
        [("0123", "late"), ("01", "full")],
        [("102", "full"), ("012", "half")],
        [("01", "full"), ("10", "half"), ("012", "quarter")],
        [("10", "late"), ("120", "full"), ("01", "sparse")],
        [("021", "full"), ("01", "late")],
        [("01", "sparse"), ("10", "late"), ("0123", "full")],
    ]
    for shape in shapes:
        yield [(pat(p), _script(style, horizon)) for p, style in shape]


def test_criterion_8_priority_construction():
    t0 = time.time()
    scenarios = list(priority_scenarios())
    assert len(scenarios) == 20
    for reqs in scenarios:
        horizon = 80
        res = priority_build(reqs, horizon)
        # full transitivity scan
        assert is_transitive(res.table)
        # stability scan: settled tails match declared limits exactly
        st = res.coloring
        for x in range(horizon):
            for y in range(max(x + 1, st.settle[x]), horizon):
                assert res.table.color(x, y) == st.limits[x]
        # state properties at every logged stage, exact arithmetic
        assert check_state_properties(res) == []
        # per-requirement verdicts: realized with a verified threat, or
        # attention measure bounded; starvation is not tolerated
        for v, (p, script) in zip(res.verdicts, reqs):
            if v.kind == "realized":
                assert v.state_length == p.size
            else:
                assert v.kind == "measure-bounded"
                assert v.final_measure <= Fraction(1) - Fraction(1, 2 * p.size)
    elapsed = time.time() - t0
    report(8, True, f"20 scenarios: transitive, stable, state properties exact, "
                    f"verdicts clean, {elapsed:.1f}s")


def test_criterion_9_delta_monte_carlo():
    t0 = time.time()
    built = gamma_build("dec", 0, 800)

    # recursion depth of the structure stays within 4 levels
    def depth(node):
        if node.is_leaf:
            return 1
        return 1 + max(depth(c) for c in node.children)

    assert depth(built.root) <= 4

    # single-disabled invariant from the provenance log: per node the
    # transitions form a chain of atomic swaps starting at block 0
    state: dict = {}
    for e in built.log:
        if e["event"] == "transition":
            key = tuple(e["node"])
            assert e["old"] == state.get(key, 0)
            state[key] = e["new"]

    trials = 10_000
    succ = 0
    for t in range(trials):
        rng = random.Random(900_001 + t)
        bits = [rng.randint(0, 1) for _ in range(16)]
        res = delta_extract("dec", 0, bits, built)
        if res.status == "ok":
            succ += 1
            seq = res.sequence
            for a, b in zip(seq, seq[1:]):
                assert a < b and built.less(a, b)
    rate = succ / trials
    elapsed = time.time() - t0
    ok = rate >= 0.25
    report(9, ok, f"success fraction {rate:.4f} >= 0.25 over {trials} streams, "
                  f"all successes doubly increasing, {elapsed:.1f}s")


def test_criterion_10_largeness():
    t0 = time.time()
    ground = list(range(15))
    checked = 0
    for size in range(0, 13):
        for fs in itertools.combinations(ground, size):
            for n in range(0, 4):
                assert is_omega_n_large(fs, n) == bt_large(fs, n), (fs, n)
            if fs:
                assert is_omega_n_large(fs, 1) == (len(fs) > fs[0])
            checked += 1

    # groupings returned by the searches pass the constancy scan
    g1 = find_grouping(constant_coloring(40, 0), omega_largeness(1), 3, 40)
    assert g1.complete and g1.check()
    f6 = FiniteColoring.from_function(6, lambda x, y: 0 if x // 2 == y // 2 else 1)
    g2 = find_grouping(f6, pattern_largeness(pat("01"), f6), 2, 6)
    assert g2.check()
    st = dipped_split_order(500)
    em = em_grouping_extract(st, 1, 500, count=6)
    assert em.kind == "grouping" and len(em.blocks) >= 4
    for i, a in enumerate(em.blocks):
        for b in em.blocks[i + 1 :]:
            assert len({st.color(x, y) for x in a for y in b}) == 1

    # grouping-to-homogeneous on positive fixtures
    from rpl.largeness import Grouping
    from rpl.patterns import VertexSet

    g3 = Grouping([VertexSet(b) for b in [(0, 1), (2, 3), (4, 5)]],
                  pattern_largeness(pat("01"), f6), f6, True)
    out = grouping_to_homogeneous(f6, pat("012"), g3)
    assert out.kind == "homogeneous"
    assert verify_homogeneous(f6, out.vertices, out.color)
    elapsed = time.time() - t0
    report(10, True, f"{checked} sets against the backtracking oracle, "
                     f"groupings and minima verified, {elapsed:.1f}s")
