"""The benchmark's own checks: every verifier rejects a corrupted output,
and a seed fixes the digest of a workload's first round."""

import dataclasses
import random

import pytest

import verify
import worker
import workloads
from rpl import build, instances
from rpl.extract import RandomizedOutcome, default_config, randomized_extract
from rpl.perms import Permutation, perm_to_pattern


@pytest.fixture(scope="module")
def extraction():
    inst = instances.avoiding_family(1, 10_000, 3)[0]
    record = verify.StableRecord(inst.to_json_dict())
    outcomes = [randomized_extract(inst, 2, 2, default_config(t, horizon=10_000, steps=30))
                for t in range(12)]
    return record, outcomes


def test_extraction_check_accepts_and_rejects_flipped_vertex(extraction):
    record, outcomes = extraction
    won = next(o for o in outcomes if o.success)
    assert verify.check_extraction(record, won) is None
    v = won.vertices[7]
    record.limits[v] = 1 - record.limits[v]
    try:
        assert verify.check_extraction(record, won) is not None
    finally:
        record.limits[v] = 1 - record.limits[v]
    # a stem member swapped for an element the last one settles against
    bad = next(y for y in range(won.vertices[-1] + 1, 10_000) if record.limits[y] == 1)
    moved = dataclasses.replace(won, vertices=list(won.vertices[:-1]) + [bad])
    assert verify.check_extraction(record, moved) is not None
    assert verify.check_extraction(record, won, min_size=31) is not None


def test_extraction_check_rejects_failure_on_good_element(extraction):
    record, outcomes = extraction
    lost = next((o for o in outcomes if not o.success), None)
    if lost is not None:
        assert verify.check_extraction(record, lost) is None
    won = next(o for o in outcomes if o.success)
    fake = dataclasses.replace(won, success=False, vertices=None,
                               failure_step=len(won.transcript) - 1)
    assert verify.check_extraction(record, fake) is not None


def _stem(stem: list) -> RandomizedOutcome:
    transcript = [{"step": i, "chosen": x, "verdict": "good"} for i, x in enumerate(stem)]
    return RandomizedOutcome(True, list(stem), 0, None, transcript)


def test_degenerate_check_rejects_a_block_left_in_the_reservoir():
    # split order: 0..9 settle to 0, 10..19 to 1; after the stem 0, 1 the
    # largest 0-homogeneous set is 2..9 plus one element above them
    record = verify.StableRecord({"horizon": 20, "limits": [0] * 10 + [1] * 10,
                                  "settle": list(range(1, 21)), "overrides": []})
    assert verify.max_homogeneous(record, list(range(2, 20)), 0) == 9
    assert verify.check_degenerate(record, _stem([0, 1]), 2, 10) is None
    assert verify.check_degenerate(record, _stem([0, 1]), 2, 9) is not None
    assert verify.check_degenerate(record, _stem([0, 12]), 2, 10) is not None
    assert verify.check_degenerate(record, _stem([0, 1]), 3, 10) is not None
    record.overrides[(0, 1)] = 1
    assert verify.max_homogeneous(record, list(range(20)), 0) is None


def test_degenerate_trial_is_checked():
    # trial 37 of seed 15362440 runs out of blocks at step 28
    wl = workloads.WORKLOADS["extract-mc"]
    ctx = wl.setup(15362440, "")
    op = wl._trial(ctx, 37)
    out = op.call()
    assert isinstance(out, workloads.Degenerate)
    assert op.check(out) is None
    # step 27 found its 322-element block, so a claim that it had none is false
    lie = workloads.Degenerate(out.message.replace("324", "322").replace("step 28", "step 27"))
    assert op.check(lie) is not None
    assert "holds a 322-element block" in op.check(lie)


def test_sep_check_verifier():
    assert verify.evaluate_term(verify.parse_term("-(+(0,0),+(0,0))")) == [2, 3, 0, 1]
    values = [2, 0, 3, 1]
    assert verify.check_sep_check(values, "non-separable (2031 at 0,1,2,3)\n", False) is None
    assert verify.check_sep_check(values, "non-separable (1302 at 0,1,2,3)\n", False)
    assert verify.check_sep_check(values, "non-separable (2031 at 0,1,3,2)\n", False)
    values = [4, 2, 0, 5, 3, 1]
    assert verify.check_sep_check(values, "non-separable (2031 at 0,2,3,4)\n", False) is None
    assert verify.check_sep_check(values, "non-separable (2031 at 1,2,3,4)\n", False)
    sep = [2, 3, 0, 1]
    assert verify.check_sep_check(sep, "separable (-(+(0,0),+(0,0)))\n", True) is None
    assert verify.check_sep_check(sep, "separable (+(-(0,0),-(0,0)))\n", True)
    assert verify.check_sep_check(sep, "non-separable (2031 at 0,1,2,3)\n", True)
    assert verify.check_sep_check(sep, "separable (-(+(0,0),+(0,0))\n", True)


def test_sep_check_verifier_on_cli_output():
    rng = random.Random(4)
    for _ in range(20):
        values = list(range(48))
        rng.shuffle(values)
        code, out, _ = workloads.run_cli(["sep-check", verify.perm_text(values)])
        assert code == 0 and verify.check_sep_check(values, out, False) is None
        built = workloads.random_separable(rng, 30)
        code, out, _ = workloads.run_cli(["sep-check", verify.perm_text(built)])
        assert code == 0 and verify.check_sep_check(built, out, True) is None


def coloring_file(n: int, seed: int) -> verify.TriangleFile:
    return verify.TriangleFile(instances.grouped_unbalanced(n, 3, seed).to_text())


def test_pattern_avoids_verifier():
    f = coloring_file(24, 1)
    hit = verify.find_pattern(f, (1 << f.n) - 1, [2, 1, 0])
    assert hit is not None
    line = "realized " + ",".join(map(str, hit)) + "\n"
    assert verify.check_pattern_avoids(f, "210", line) is None
    assert verify.check_pattern_avoids(f, "012", "avoids\n") is None
    assert verify.check_pattern_avoids(f, "210", "avoids\n")
    other = next(v for v in range(f.n) if v not in hit and f.color(hit[0], v) == 0
                 and v > hit[0])
    wrong = sorted([hit[0], other, hit[2]] if other < hit[2] else [hit[0], hit[1], other])
    assert verify.check_pattern_avoids(f, "210", "realized " + ",".join(map(str, wrong)))


def test_grouping_verifier():
    f = verify.TriangleFile("4\n001\n11\n1\n")  # only (0,1) and (0,2) have color 0
    good = '{"blocks":[[0],[1,2]],"complete":true,"obstruction":null,"verified":true}'
    assert verify.check_grouping(f, "omega:0", 2, good) is None
    mixed = '{"blocks":[[0],[1,3]],"complete":true,"obstruction":null,"verified":true}'
    assert verify.check_grouping(f, "omega:0", 2, mixed)
    assert verify.check_grouping(f, "omega:1", 2, good) is None
    late = '{"blocks":[[1],[2,3]],"complete":true,"obstruction":null,"verified":true}'
    assert verify.check_grouping(f, "omega:0", 2, late) is None
    assert verify.check_grouping(f, "omega:1", 2, late)  # {1} has no block past 1
    assert verify.check_grouping(f, "pattern:01", 2, good)
    assert verify.check_grouping(f, "omega:0", 3, good)


def test_omega_largeness_definition():
    assert verify.is_omega_large([0], 5)
    assert verify.is_omega_large([2, 3, 4], 1)
    assert not verify.is_omega_large([3, 4, 5], 1)
    assert verify.is_omega_large([1, 2, 3, 4], 2)
    assert not verify.is_omega_large([1, 2, 3], 2)


def test_delta_and_gamma_verifiers():
    built = build.gamma_build("dec", 0, 800)
    assert verify.check_gamma(800, built.members, built.keys, built.log) is None
    rng = random.Random(9)
    seqs = []
    while len(seqs) < 5:
        res = build.delta_extract("dec", 0, [rng.randint(0, 1) for _ in range(24)], built)
        if res.status == "ok" and len(res.sequence) >= 3:
            assert verify.check_delta(built.keys, res.status, res.sequence) is None
            seqs.append(res.sequence)
    for seq in seqs:
        swapped = list(seq)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert verify.check_delta(built.keys, "ok", swapped)
    keys = dict(built.keys)
    a, b = built.members[:2]
    keys[a] = keys[b]
    assert verify.check_gamma(800, built.members, keys, built.log)
    assert verify.check_gamma(800, built.members[1:],
                              {x: built.keys[x] for x in built.members[1:]}, built.log)


class FlippedTable:
    def __init__(self, table, pair):
        self.table, self.pair = table, pair

    def color(self, x, y):
        c = self.table.color(x, y)
        return 1 - c if (x, y) == self.pair else c


def test_priority_verifier():
    scenario = workloads.SHAPES[16]
    reqs = [(perm_to_pattern(Permutation.from_text(p)),
             workloads.scenario_script(style, 100)) for p, style in scenario]
    res = build.priority_build(reqs, 100)
    stable = verify.StableRecord(res.coloring.to_json_dict())
    assert verify.check_priority(res.table, stable) is None
    assert verify.check_priority(FlippedTable(res.table, (10, 60)), stable)


@pytest.mark.parametrize("name", ["extract-mc", "orders", "search"])
def test_same_seed_same_digest(name):
    wl = workloads.WORKLOADS[name]
    workdir = worker.OUT_DIR / f"test-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests = []
        for seed in (5, 5, 6):
            tally, canon = worker.Tally(), []
            worker.run_round(wl, wl.setup(seed, str(workdir)), 0, tally, [], canon=canon)
            assert not tally.failures
            digests.append(worker.digest(canon))
    finally:
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()
    assert digests[0] == digests[1] != digests[2]
