import hashlib
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pat, zigzag
from rpl import extract, patterns, perms
from rpl.cli import (
    _build_parser,
    generate_instance,
    load_coloring,
    run_command,
)
from rpl.errors import DegenerateInstance, InstanceLoadError
from rpl.fractals import fractal_perm
from rpl.largeness import find_grouping, pattern_largeness
from rpl.patterns import FiniteColoring, StableColoring


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sep_check_verbs(capsys):
    code, out, _ = run(capsys, ["sep-check", "2031"])
    assert code == 0
    assert out.startswith("non-separable (2031 at 0,1,2,3)")
    code, out, _ = run(capsys, ["sep-check", "2301"])
    assert code == 0
    assert "separable (-(+(0,0),+(0,0)))" in out


def evaluate_term(term: str) -> list:
    """Values of a separating term: "0" is one point, "+(...)" stacks its
    children upward left to right, "-(...)" downward.  Open nodes sit on
    an explicit stack, so a term of any depth reads."""
    open_nodes = [("", [])]  # (op, values of each child read so far)
    i = 0
    while i < len(term):
        ch = term[i]
        if ch == "0":
            open_nodes[-1][1].append([0])
        elif ch in "+-":
            assert term[i + 1] == "("
            open_nodes.append((ch, []))
            i += 1
        elif ch == ")":
            op, parts = open_nodes.pop()
            values, base = [], sum(len(p) for p in parts)
            for part in parts:
                if op == "-":
                    base -= len(part)
                values += [v + (base if op == "-" else len(values)) for v in part]
            open_nodes[-1][1].append(values)
        else:
            assert ch == ","
        i += 1
    assert len(open_nodes) == 1 and len(open_nodes[0][1]) == 1
    return open_nodes[0][1][0]


@pytest.mark.parametrize("n", [500, 3000])
def test_sep_check_reads_back_a_deep_separating_tree(capsys, n):
    values = zigzag(n)  # its separating tree has depth n - 1
    code, out, err = run(capsys, ["sep-check", ",".join(map(str, values))])
    assert (code, err) == (0, "")
    verdict, _, rest = out.strip().partition(" (")
    assert verdict == "separable" and rest.endswith(")")
    assert evaluate_term(rest[:-1]) == values


def test_sep_check_never_reaches_search_kernel(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("separability reached the search")

    monkeypatch.setattr(patterns, "_realization_search", refuse)  # find_realization's
    monkeypatch.setattr(extract, "_realization_search", refuse)  # block search's
    calls = {"witness": 0, "tree": 0}
    scan, tree = perms.forbidden_witness, perms.separating_tree

    def counted(key, fn, values):
        def wrapper(pm):
            calls[key] += pm.values == values
            return fn(pm)
        return wrapper

    big = list(fractal_perm(2, 8).values)
    shuffled = list(range(64))
    random.Random(64).shuffle(shuffled)
    for values, separable in ((big, True), (big[::-1], True), (shuffled, False)):
        calls.update(witness=0, tree=0)
        monkeypatch.setattr(perms, "forbidden_witness", counted("witness", scan, tuple(values)))
        monkeypatch.setattr(perms, "separating_tree", counted("tree", tree, tuple(values)))
        code, out, _ = run(capsys, ["sep-check", ",".join(map(str, values))])
        assert code == 0 and calls == {"witness": 1, "tree": 1}
        verdict, _, rest = out.strip().partition(" (")
        if separable:
            assert verdict == "separable"
            assert evaluate_term(rest[:-1]) == values
        else:
            assert verdict == "non-separable"
            witness, positions = rest[:-1].split(" at ")
            at = [values[int(x)] for x in positions.split(",")]
            assert witness in ("1302", "2031")
            assert "".join(str(sorted(at).index(v)) for v in at) == witness


def test_fractal_gen(capsys):
    code, out, _ = run(capsys, ["fractal", "gen", "2", "2"])
    assert code == 0 and out.strip() == "2301"
    code, out, _ = run(capsys, ["fractal", "embed", "120", "2"])
    assert code == 0 and out.strip() == "2 0,1,2"


def test_fractal_partition(capsys, tmp_path):
    f = tmp_path / "vc.txt"
    f.write_text("1" * 9 + "\n")
    code, out, _ = run(capsys, ["fractal", "partition", "2", "2", "2", str(f)])
    assert code == 0
    assert out.startswith("color 1 ")
    # whitespace anywhere is skipped; the colors are read in order
    f.write_text(" 011\n\t10 1\r\n011\n")
    assert run(capsys, ["fractal", "partition", "2", "2", "2", str(f)]) == (0, "color 1 1,2,3,5\n", "")


@pytest.mark.parametrize("text, line, message", [
    ("0101\n", 2, "no color for vertex 4: the file gives 4"),
    ("010\n01x1\n", 2, "'x' is not a color 0 or 1"),
    ("0,1,0\n", 1, "',' is not a color 0 or 1"),
])
def test_fractal_partition_bad_color_file(capsys, tmp_path, text, line, message):
    f = tmp_path / "vc.txt"
    f.write_text(text)
    code, out, err = run(capsys, ["fractal", "partition", "2", "2", "2", str(f)])
    assert (code, out, err) == (1, "", f"error: {f}:{line}: {message}\n")


def test_unknown_verb_usage_error(capsys):
    assert run_command(["no-such-verb"]) == 2
    assert run_command([]) == 2


def test_pattern_verbs(capsys, tmp_path):
    code, out, _ = run(capsys, ["pattern", "show", "2031"])
    assert code == 0 and out == "size=4\n101001\n"
    code, out, _ = run(capsys, ["pattern", "dual", "2031"])
    assert out == "size=4\n010110\n"
    cf = tmp_path / "c.txt"
    cf.write_text(FiniteColoring.constant(8, 0).to_text())
    code, out, _ = run(capsys, ["pattern", "avoids", str(cf), "10"])
    assert code == 0 and out.strip() == "avoids"
    code, out, _ = run(capsys, ["pattern", "avoids", str(cf), "012"])
    assert out.startswith("realized ")
    code, out, _ = run(capsys, ["pattern", "realizes", str(cf), "01", "--set", "1,2"])
    assert code == 0 and out.strip() == "realizes"
    code, out, _ = run(capsys, ["pattern", "realizes", str(cf), "10", "--set", "1,2"])
    assert code == 0 and out.strip() == "does-not-realize"


def test_gen_families(capsys, tmp_path):
    out_file = tmp_path / "c.txt"
    code = run_command(["--out", str(out_file), "gen", "constant", "--color", "0", "--n", "20"])
    assert code == 0
    f = load_coloring(str(out_file))
    assert isinstance(f, FiniteColoring) and f.horizon == 20 and f.color(3, 7) == 0

    code = run_command(["--out", str(out_file), "gen", "perm-clique", "2031"])
    assert code == 0
    f = load_coloring(str(out_file))
    assert [f.color(i, j) for i in range(4) for j in range(i + 1, 4)] == [1, 0, 1, 0, 0, 1]

    code = run_command(["--out", str(out_file), "gen", "stable", "--limits", "alternating",
                        "--n", "50"])
    assert code == 0
    st = load_coloring(str(out_file))
    assert isinstance(st, StableColoring)
    assert st.limits[:4] == (0, 1, 0, 1)


def test_gen_unknown_family_is_instance_error(tmp_path):
    assert run_command(["gen", "bogus-family"]) == 1


def test_extract_cli_round_trip(capsys, tmp_path):
    inst = tmp_path / "stable.json"
    run_command(["--out", str(inst), "gen", "stable-avoiding", "--n", "4000"])
    code, out, _ = run(capsys, ["--horizon", "4000", "extract", "random", str(inst),
                                "--steps", "8"])
    assert code == 0
    lines = out.splitlines()
    transcript = json.loads(lines[1])
    assert transcript["success"] is True
    assert len(lines[0].split(",")) == 8

    code, out, _ = run(capsys, ["--horizon", "4000", "extract", "oracle", str(inst),
                                "--steps", "6"])
    assert code == 0 and json.loads(out.splitlines()[1])["success"] is True


def test_extract_unbalanced_cli(capsys, tmp_path):
    inst = tmp_path / "unb.txt"
    run_command(["--out", str(inst), "gen", "unbalanced", "--k", "3", "--n", "40"])
    code, out, _ = run(capsys, ["--horizon", "40", "extract", "unbalanced", str(inst), "--k", "3"])
    assert code == 0
    meta = json.loads(out.splitlines()[1])
    assert meta["level"] >= 1


def test_extract_unbalanced_names_an_empty_horizon(capsys, tmp_path):
    inst = tmp_path / "empty.json"
    assert run_command(["--out", str(inst), "gen", "stable", "--n", "0"]) == 0
    code, out, err = run(capsys, ["extract", "unbalanced", str(inst), "--k", "3"])
    assert (code, out) == (1, "")
    assert err == "error: horizon 0 must be >= 1\n"


@pytest.mark.parametrize("mode", ["random", "oracle"])
def test_extractors_refuse_an_empty_horizon_as_unbalanced_does(capsys, tmp_path, mode):
    # no block search runs, and no advice points at the unbalanced route
    inst = tmp_path / "empty.json"
    assert run_command(["--out", str(inst), "gen", "stable", "--n", "0"]) == 0
    code, out, err = run(capsys, ["extract", mode, str(inst)])
    assert (code, out) == (1, "")
    assert err == "error: horizon 0 must be >= 1\n"


def test_extract_precondition_exit_code(capsys, tmp_path):
    inst = tmp_path / "zero.txt"
    run_command(["--out", str(inst), "gen", "constant", "--color", "0", "--n", "10"])
    code = run_command(["--horizon", "10", "extract", "unbalanced", str(inst), "--k", "3"])
    assert code == 1


def test_oversized_searches_never_reach_the_kernel(capsys, tmp_path, monkeypatch):
    """Step 0 on a 400-vertex dipped record asks for the 146-ary
    dimension-2 fractal, 21,316 positions, in a 150-vertex reservoir; a
    repaired coloring of 30 vertices has no k-set to break for k > 30.
    Both are answered before any search table is built."""
    inst = tmp_path / "dipped.json"
    assert run_command(["--out", str(inst), "gen", "dipped", "--n", "400"]) == 0
    repaired = ["gen", "unbalanced", "--mode", "repaired", "--n", "30", "--k"]
    code, want, _ = run(capsys, repaired + ["31"])
    assert code == 0

    def refuse(*args):
        raise AssertionError("an oversized search ran")

    monkeypatch.setattr(patterns, "_realization_search", refuse)  # find_realization's
    monkeypatch.setattr(extract, "_realization_search", refuse)  # block search's
    code, out, err = run(capsys, ["--horizon", "150", "extract", "random", str(inst),
                                  "--n", "3", "--steps", "8"])
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert "no 146-ary dimension-2 block" in err and "at step 0" in err
    assert run(capsys, repaired + ["100000"]) == (0, want, "")


def test_oversized_extractor_block_builds_no_pattern(capsys, tmp_path, monkeypatch):
    """The 146-ary dimension-2 fractal of step 0 has more points than the
    150-vertex reservoir, so the extractor ends before building it."""
    inst = tmp_path / "dipped.json"
    assert run_command(["--out", str(inst), "gen", "dipped", "--n", "400"]) == 0

    def refuse(*args):
        raise AssertionError("an oversized fractal pattern was built")

    monkeypatch.setattr(extract, "fractal_pattern", refuse)
    code, out, err = run(capsys, ["--horizon", "150", "extract", "random", str(inst),
                                  "--n", "3", "--steps", "8"])
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert "no 146-ary dimension-2 block" in err and "at step 0" in err


def test_construct_gamma_and_delta(capsys, tmp_path):
    code, out, _ = run(capsys, ["construct", "gamma", "--direction", "inc", "--e", "0",
                                "--n", "60"])
    assert code == 0
    assert out.startswith("order ")
    code, out, _ = run(capsys, ["construct", "delta", "--direction", "inc", "--e", "0",
                                "--n", "60", "--bits", "101"])
    assert code == 0
    assert out.splitlines()[0].startswith("ok ")


def test_construct_priority_scenario(capsys, tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "horizon": 40,
        "requirements": [
            {"pattern": "01", "script": [["", s, [s]] for s in range(40)]}
        ],
    }))
    code, out, _ = run(capsys, ["construct", "priority", str(scen)])
    assert code == 0
    assert out.startswith("limits ")
    payload = json.loads(out.splitlines()[1])
    assert payload["verdicts"][0]["kind"] == "realized"
    assert [entry["measure"] for entry in payload["log"]] == ["1", "1"]


def test_construct_mirror(capsys):
    code, out, _ = run(capsys, ["construct", "mirror", "--n", "5"])
    assert code == 0
    order = [int(t) for t in out.split()[1].split(",")]
    assert order[:5] == [0, 2, 4, 6, 8]  # evens first, source order


def test_large_verbs(capsys, tmp_path):
    code, out, _ = run(capsys, ["large", "check", "2,5,9", "1"])
    assert code == 0 and out.splitlines()[0] == "omega^1-large: yes"
    code, out, _ = run(capsys, ["large", "check", "3,4,5", "1"])
    assert out.splitlines()[0] == "omega^1-large: no"

    inst = tmp_path / "c.txt"
    run_command(["--out", str(inst), "gen", "constant", "--color", "0", "--n", "40"])
    code, out, _ = run(capsys, ["--horizon", "40", "large", "group", str(inst),
                                "--notion", "omega:1", "--count", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True and payload["verified"] is True


def test_large_group_searches_within_the_global_budget(capsys, tmp_path):
    # a pattern notion's searches take --budget; the default one answers as
    # an unbounded search would, and an omega notion does not search
    inst = tmp_path / "g.txt"
    inst.write_text("4\n011\n01\n1\n")
    argv = ["large", "group", str(inst), "--notion", "pattern:01"]
    f = load_coloring(str(inst))
    unbounded = find_grouping(f, pattern_largeness(pat("01"), f), 3, 200)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["blocks"] == [list(b) for b in unbounded.blocks]
    assert run(capsys, ["--budget", "2", *argv]) == (code, out, err)
    assert run(capsys, ["--budget", "1", *argv]) == (1, "", "error: search budget exhausted after 2 nodes\n")
    code, _, err = run(capsys, ["--budget", "1", "large", "group", str(inst), "--notion", "omega:1"])
    assert (code, err) == (0, "")


def test_byte_identical_reruns(capsys, tmp_path):
    argv = ["--seed", "5", "experiment", "delta-mc", "--trials", "40", "--n", "300"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def check_report(payload):
    """The experiment report's keys and field types, and its aggregates
    recomputed from its records."""
    assert set(payload) == {"experiment", "parameters", "records", "aggregates"}
    assert isinstance(payload["experiment"], str) and isinstance(payload["parameters"], dict)
    for r in payload["records"]:
        assert set(r) == {"trial", "seed", "outcome", "size", "failure_step"}
        assert [type(r[k]) for k in ("trial", "seed", "outcome", "size")] == [int, int, str, int]
        assert r["failure_step"] is None or type(r["failure_step"]) is int
    succ = sum(r["outcome"] == "success" for r in payload["records"])
    agg = payload["aggregates"]
    assert (agg["trials"], agg["successes"]) == (len(payload["records"]), succ)


def test_experiment_report_schema_and_csv(capsys):
    code, out, _ = run(capsys, ["--seed", "3", "--format", "csv", "experiment",
                                "delta-mc", "--trials", "25", "--n", "300"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,seed,outcome,size,failure_step"
    assert len(lines) == 26

    code, out, _ = run(capsys, ["--seed", "3", "experiment", "delta-mc",
                                "--trials", "25", "--n", "300"])
    check_report(json.loads(out))


def test_experiment_random_extract_rate(capsys):
    code, out, _ = run(capsys, ["--seed", "7", "experiment", "random-extract",
                                "--trials", "60", "--instances", "6"])
    assert code == 0
    payload = json.loads(out)
    check_report(payload)
    assert payload["parameters"]["horizon"] == 10000
    assert payload["aggregates"]["success_rate"] >= 0.875
    for r in payload["records"]:
        if r["outcome"] == "success":
            assert r["size"] >= 30


def test_experiment_random_extract_records_degenerate_trial(capsys):
    # trial 37 thins its reservoir past any 324-element block at step 28
    code, out, err = run(capsys, ["--seed", "15362440", "experiment", "random-extract",
                                  "--trials", "38", "--instances", "50"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    check_report(payload)
    last = payload["records"][-1]
    assert last == {"trial": 37, "seed": 15362440 * 1_000_003 + 37,
                    "outcome": "degenerate", "size": 0, "failure_step": 28}
    assert all(r["outcome"] != "degenerate" for r in payload["records"][:-1])
    assert payload["aggregates"]["trials"] == 38


STABLE_4 = '{"type": "stable", "horizon": 4, "limits": [0, 0, 0, 0], "settle": [1, 2, 3, 4]}'
# priority scenarios the loader rejects: no field is coerced to an integer
BAD_SCENARIOS = [
    '{"horizon": 1.5, "requirements": []}',
    '{"horizon": "10", "requirements": []}',
    '{"horizon": true, "requirements": []}',
    '{"requirements": [{"pattern": "01", "script": [["", 1.5, [1]]]}]}',
    '{"requirements": [{"pattern": "01", "script": [["", true, [1]]]}]}',
    '{"requirements": [{"pattern": "01", "script": [["", 1, [true]]]}]}',
    '{"requirements": [{"pattern": "01", "script": [["", 1, [2.0]]]}]}',
    '{"requirements": [{"pattern": "01", "script": [["2", 1, [1]]]}]}',
    '{"requirements": [{"pattern": "01", "script": [[0, 1, [1]]]}]}',
    '{"requirements": [{"pattern": "0x", "script": []}]}',
    # an event is a [prefix, stage, elements] array, nothing more or less
    '{"requirements": [{"pattern": "01", "script": [["", 0, [0], "junk"]]}]}',
    '{"requirements": [{"pattern": "01", "script": [["", 0]]}]}',
    '{"requirements": [{"pattern": "01", "script": ["a0b"]}]}',
    '{"requirements": [{"pattern": "01", "script": [{"0": "", "1": 0, "2": [0]}]}]}',
    '{"requirements": [{"pattern": "01", "script": {"0": ["", 0, [0]]}}]}',
]


@pytest.mark.parametrize("text", BAD_SCENARIOS)
def test_bad_scenario_names_its_file(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["construct", "priority", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:1: bad priority scenario: ")
    assert err.count("\n") == 1


# stable records whose fields are JSON numbers but not integers
UNTYPED_RECORDS = {
    "untyped-limits.json": '{"type": "stable", "horizon": 3, "limits": [0.7, "1", true], "settle": [1, 2, 3]}',
    "untyped-settle.json": '{"type": "stable", "horizon": 3, "limits": [0, 1, 0], "settle": [1, 2, 1e400]}',
}

MALFORMED = [
    # (argv with {dir} standing for the test's temporary directory, files, exit code)
    (["construct", "delta", "--bits", "2"], {}, 2),
    (["construct", "delta", "--bits", "10a"], {}, 2),
    (["large", "check", "1,x", "1"], {}, 2),
    (["large", "check", "1,2", "y"], {}, 2),
    (["construct", "priority"], {}, 2),
    (["construct", "priority", "{dir}/empty.json"], {"empty.json": "{}"}, 1),
    (["construct", "priority", "{dir}/list.json"], {"list.json": "[1, 2]"}, 1),
    (["construct", "priority", "{dir}/text.json"], {"text.json": "not json"}, 1),
    (["construct", "priority", "{dir}/nopat.json"],
     {"nopat.json": '{"requirements": [{"script": []}]}'}, 1),
    *[(["construct", "priority", "{dir}/bad.json"], {"bad.json": text}, 1) for text in BAD_SCENARIOS],
    (["construct", "priority", "{dir}/neg.json"], {"neg.json": '{"horizon": -5, "requirements": []}'}, 1),
    (["--horizon", "-5", "construct", "priority", "{dir}/ok.json"],
     {"ok.json": '{"horizon": 5, "requirements": []}'}, 1),
    (["pattern", "avoids", "{dir}/two.txt", "01"], {"two.txt": "3\n01\n2\n"}, 1),
    (["pattern", "avoids", "{dir}/settle.json", "01"],
     {"settle.json": '{"type": "stable", "horizon": 2, "limits": [0, 1], "settle": [0, 2]}'}, 1),
    (["pattern", "avoids", "{dir}/strlim.json", "01"],
     {"strlim.json": '{"type": "stable", "horizon": 2, "limits": "01", "settle": [1, 2]}'}, 1),
    (["pattern", "avoids", "{dir}/intlim.json", "01"],
     {"intlim.json": '{"type": "stable", "horizon": 2, "limits": 5, "settle": [1, 2]}'}, 1),
    (["pattern", "avoids", "{dir}/ovr.json", "01"],
     {"ovr.json": '{"type": "stable", "horizon": 3, "limits": [0, 0, 0], "settle": [2, 3, 4],'
                  ' "overrides": [[0, 1, 2]]}'}, 1),
    (["fractal", "gen", "2", "x"], {}, 2),
    (["fractal", "embed", "120", "x"], {}, 2),
    (["fractal", "partition", "2", "2"], {}, 2),
    (["sep-check", "12x"], {}, 1),
    # int() reads each of these three as a permutation
    (["sep-check", "0,+1"], {}, 1),
    (["sep-check", "0,1,2,3,4,5,6,7,8,9,1_0"], {}, 1),
    (["sep-check", "\u0661\u0660"], {}, 1),
    (["pattern", "show", "0x"], {}, 1),
    (["fractal", "embed", "1x", "2"], {}, 1),
    (["gen", "perm-clique"], {}, 2),
    (["large", "group", "{dir}/g.txt", "--notion", "omega:x"], {"g.txt": "2\n0\n"}, 2),
    (["pattern", "realizes", "{dir}/g.txt", "01", "--set", "1,x"], {"g.txt": "2\n0\n"}, 2),
    (["pattern", "realizes", "{dir}/g.txt", "01"], {"g.txt": "2\n0\n"}, 2),
    (["pattern", "avoids", "{dir}/g.txt"], {"g.txt": "2\n0\n"}, 2),
    (["construct", "gamma", "{dir}/abc.txt", "--n", "20"],
     {"abc.txt": "e 0 prefix - stage 1 emit 3\ne abc prefix - stage 1 emit 0\n"}, 1),
    (["construct", "delta", "{dir}/abc.txt", "--n", "20", "--bits", "0"],
     {"abc.txt": "e abc prefix - stage 1 emit 0\n"}, 1),
    # int() reads 01 as level 1 and +1, 1_0 as levels 1 and 10
    (["construct", "gamma", "{dir}/twice.txt", "--n", "20"],
     {"twice.txt": "e 1 prefix - stage 0 emit 3\ne 01 prefix - stage 5 emit 40\n"}, 1),
    (["construct", "delta", "{dir}/twice.txt", "--n", "20", "--bits", "0"],
     {"twice.txt": "e 2 prefix - stage 0 emit 3\ne 1 prefix - stage 0 emit 4\ne 002 prefix - stage 5 emit 7\n"}, 1),
    (["construct", "gamma", "{dir}/plus.txt", "--n", "20"], {"plus.txt": "e +1 prefix - stage 0 emit 3\n"}, 1),
    (["construct", "gamma", "{dir}/under.txt", "--n", "20"], {"under.txt": "e 1_0 prefix - stage 0 emit 3\n"}, 1),
    (["construct", "gamma", "{dir}/s.txt", "--n", "20"], {"s.txt": "e 0 prefix - stage 1_0 emit 3\n"}, 1),
    (["construct", "gamma", "{dir}/s.txt", "--n", "20"], {"s.txt": "e 0 prefix - stage 1 emit +3,\u0663\n"}, 1),
    (["construct", "gamma", "--e", "-2"], {}, 1),
    (["extract", "random", "{dir}/s.json", "--k", "0", "--n", "2"], {"s.json": STABLE_4}, 1),
    (["extract", "random", "{dir}/s.json", "--k", "-1", "--n", "2"], {"s.json": STABLE_4}, 1),
    (["extract", "oracle", "{dir}/s.json", "--k", "-3", "--n", "2"], {"s.json": STABLE_4}, 1),
    (["experiment", "random-extract", "--instances", "0"], {}, 1),
    (["--budget", "0", "extract", "random", "{dir}/s.json"], {"s.json": STABLE_4}, 2),
    (["--budget", "-5", "large", "group", "{dir}/g.txt"], {"g.txt": "2\n0\n"}, 2),
    (["--budget", "0", "pattern", "avoids", "{dir}/g.txt", "01"], {"g.txt": "2\n0\n"}, 2),
    (["extract", "random", "{dir}/s.json", "--steps", "-3"], {"s.json": STABLE_4}, 1),
    (["experiment", "random-extract", "--steps", "0"], {}, 1),
    (["extract", "oracle", "{dir}/s.json", "--steps", "0"], {"s.json": STABLE_4}, 1),
    (["extract", "oracle", "{dir}/s.json", "--steps", "-2"], {"s.json": STABLE_4}, 1),
    (["fractal", "partition", "2", "2", "2", "{dir}/short.txt"], {"short.txt": "0101"}, 1),
    (["fractal", "partition", "2", "2", "1", "{dir}/x.txt"], {"x.txt": "01x"}, 1),
    (["gen", "unbalanced", "--mode", "repaired", "--k", "1", "--n", "4"], {}, 1),
    # the top fraction is a probability
    *[(["gen", "stable-avoiding", "--n", "5", f"--fraction={frac}"], {}, 1)
      for frac in ("nan", "-1", "2", "inf", "-inf", "1.0000001")],
    (["--budget", "1", "large", "group", "{dir}/g.txt", "--notion", "pattern:01"], {"g.txt": "3\n00\n0\n"}, 1),
    (["pattern", "realizes", "{dir}/dup.json", "01", "--set", "0,1"],
     {"dup.json": '{"type": "stable", "horizon": 3, "limits": [0, 0, 0], "settle": [3, 3, 3],'
                  ' "overrides": [[0, 1, 1], [0, 1, 0]]}'}, 1),
    # negative sizes, each refused where it is used
    (["--horizon", "-5", "pattern", "avoids", "{dir}/one.txt", "0"], {"one.txt": "1\n"}, 1),
    (["construct", "gamma", "--n", "-1"], {}, 1),
    (["construct", "mirror", "--n", "-3"], {}, 1),
    (["experiment", "delta-mc", "--n", "-5"], {}, 1),
    (["experiment", "random-extract", "--trials", "-1", "--instances", "1"], {}, 1),
    (["large", "group", "{dir}/g.txt", "--count", "-1"], {"g.txt": "2\n0\n"}, 1),
    (["gen", "dipped", "--n", "-4"], {}, 1),
    # a file that is not UTF-8, for every verb that reads one
    *[(argv, {"ff.txt": b"\xff01\n"}, 1)
      for argv in (["pattern", "avoids", "{dir}/ff.txt", "01"], ["extract", "random", "{dir}/ff.txt"],
                   ["construct", "priority", "{dir}/ff.txt"], ["construct", "gamma", "{dir}/ff.txt"],
                   ["fractal", "partition", "2", "2", "2", "{dir}/ff.txt"], ["large", "group", "{dir}/ff.txt"])],
    *[(argv + ["{dir}/" + name] + tail, {name: UNTYPED_RECORDS[name]}, 1)
      for argv, tail in ((["pattern", "avoids"], ["01"]), (["pattern", "realizes"], ["01", "--set", "0,1"]),
                         (["extract", "random"], []), (["extract", "oracle"], []),
                         (["extract", "unbalanced"], []), (["large", "group"], []))
      # the limits record reaches the extractors only to fail on its size
      for name in list(UNTYPED_RECORDS)[argv[0] == "extract":]],
]


@pytest.mark.parametrize("argv, files, code", MALFORMED,
                         ids=[" ".join(m[0]).replace("{dir}/", "") for m in MALFORMED])
def test_malformed_input_exits_with_one_line(capsys, tmp_path, argv, files, code):
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    got, out, err = run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


# (coloring file text, the line its error names)
BAD_COLORINGS = [
    ("3\n01\n1\n111\n", 4),      # a row after the last one
    ("3\n01\n", 3),              # row 1 missing
    ("3\n0\n1\n", 2),            # row 0 too short
    ("3\n\n01\n1\n", 2),         # a blank line stands for row 0
    ("3\n0x\n1\n", 2),           # a bad character on line 2
    ("3\n01\n2\n", 3),
    ("4\n0_1\n01\n1\n", 2),      # int() reads these three rows
    ("4\n0 1\n01\n1\n", 2),
    ("3\n+1\n1\n", 2),
    ("1_0\n", 1),                # int() reads 10
    ("+3\n01\n1\n", 1),
    ("0\n", 1),
    ("\n\n", 1),
    ("1234567890\n", 1),
]


@pytest.mark.parametrize("text, line", BAD_COLORINGS, ids=[repr(t) for t, _ in BAD_COLORINGS])
def test_bad_coloring_file_names_file_and_line(capsys, tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["pattern", "avoids", str(path), "01"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:{line}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# (script file text, the line its error names); int() reads the first four
BAD_SCRIPTS = [
    ("e 0 prefix - stage 1_0 emit 3\n", 1),
    ("# a comment\ne 0 prefix - stage 1 emit +3\n", 2),
    ("e 0 prefix - stage 1 emit 3,\u0663\n", 1),
    ("e 0 prefix - stage 1 emit 3\ne 0 prefix - stage \uff12 emit 4\n", 2),
    ("e 0 prefix - stage -1 emit 3\n", 1),
    ("e 0 prefix - stage 1 emit ,\n", 1),
    ("e 0 prefix 2 stage 1 emit 3\n", 1),
    ("e 0 prefix - stage 1\n", 1),
    # ids: int() reads these as levels 1 and 10, and lets a later id name
    # an earlier one's level
    ("e +1 prefix - stage 0 emit 3\n", 1),
    ("e 1_0 prefix - stage 0 emit 3\n", 1),
    ("e 1 prefix - stage 0 emit 3\ne 01 prefix - stage 5 emit 40\n", 2),
    ("e 2 prefix - stage 0 emit 3\ne 1 prefix - stage 1 emit 4\ne 2 prefix - stage 2 emit 5\n"
     "# e 002 prefix - stage 3 emit 6\ne 002 prefix - stage 3 emit 6\n", 5),
]


@pytest.mark.parametrize("text, line", BAD_SCRIPTS, ids=[repr(t) for t, _ in BAD_SCRIPTS])
def test_bad_script_file_names_file_and_line(capsys, tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["construct", "gamma", str(path), "--n", "20"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:{line}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_parser_is_shared_across_calls(capsys):
    # a usage error between two good commands leaves the parser as it was
    argvs = [["sep-check", "2031"], ["pattern", "frobnicate", "2031"],
             ["construct", "delta", "--bits", "2"], ["pattern", "show", "2031"],
             ["--budget", "0", "sep-check", "2301"], ["large", "check", "2,5,9", "1"]]
    _build_parser.cache_clear()
    shared = [run(capsys, argv) for argv in argvs]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 2, 0, 2, 0]


# sha256 of stdout for the README's cheap CLI examples and `gen dipped`,
# captured before the duplicate derivations and order sorts were merged;
# any change to these outputs is a behaviour change.
README_GOLDEN = [
    (["sep-check", "2031"], "e5e47dd929a391ecb6620fdde2062ad7f0a25b36ac652d0818a885e1095cfff6"),
    (["sep-check", "2301"], "04bccad54ca61d750d06fa6721cdde4ec84f1347210d913bbda2417f1bf364a0"),
    (["fractal", "gen", "2", "2"],
     "259294317f7c2bfd8880917634383f40379328084a54a4415f1f5652e874a18c"),
    (["fractal", "embed", "120", "2"],
     "7cd9e1cbd738005cea3052e0d77fb40ab012b68b53c6753dcda029c01c89e343"),
    (["pattern", "show", "2031"],
     "707dc48cc5b30fff6e749293fca8804fe36cf8beec15877c5f2a51968ca0eb82"),
    (["construct", "mirror", "--n", "10"],
     "4e66b35f28da722a59c412cff04d21561a9abcbe2fcb5822907d61a7eb95806e"),
    (["construct", "gamma", "--direction", "inc", "--e", "0", "--n", "200"],
     "b05c447bbce3166fe3ee673bcbfa15e42464d09f4e1534eb5c2e7e9997daad2f"),
    (["construct", "delta", "--direction", "dec", "--e", "0", "--n", "800", "--bits", "10110"],
     "af13aac514ef8a8752965bfc2402d15d1830d9d0b482b0da834c47fe85fcead7"),
    (["large", "check", "2,5,9", "1"],
     "40ca30e5afccad4fee1286f72eca62a0e7b85386a6722e07cc8764fbd7dbdf1c"),
    (["gen", "dipped", "--n", "500"],
     "3964a3f89e65591de2edc2bc6b60775c7f9aeed310b798214681731d6a649a6e"),
    # scripted builds: cuts and transitions in gamma, injuries in priority
    (["construct", "gamma", "{dir}/levels.txt", "--direction", "dec", "--e", "0", "--n", "300"],
     "baecb1be8ccc0b6a835fabebf51cbcb8fcb8f8ce0d36f43def916f21c133cb21"),
    (["construct", "priority", "{dir}/scenario.json"],
     "dae37ff62550d720b02e96557bf03d827bca000659c192236ba901e516439949"),
]

# the input files the scripted goldens read
GOLDEN_FILES = {
    "levels.txt": "\n".join([
        "e 0 prefix - stage 40 emit 5,9,14",
        "e 0 prefix - stage 120 emit 31,60",
        "e 1 prefix - stage 90 emit 10,22,35,47",
        "e 1 prefix 0 stage 50 emit 12",
        "e 2 prefix - stage 200 emit 44,71,98,130,150",
    ]) + "\n",
    "scenario.json": json.dumps({"horizon": 80, "requirements": [
        {"pattern": "10", "id": "late", "script": [["", s, [s]] for s in range(26, 80, 7)]},
        {"pattern": "012", "id": "full", "script": [["", s, [s]] for s in range(80)]},
        {"pattern": "01", "id": "half",
         "script": [["0", s, [s, s + 1]] for s in range(0, 80, 3)] + [["1", 30, [31]]]},
    ]}),
}


@pytest.mark.parametrize("argv, digest", README_GOLDEN,
                         ids=[" ".join(g[0]) for g in README_GOLDEN])
def test_readme_examples_stdout_pinned(capsys, tmp_path, argv, digest):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, [a.format(dir=tmp_path) for a in argv])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_repaired_generator_stdout_pinned(capsys):
    # captured from the generator that rescanned every k-set until no change
    code, out, err = run(capsys, ["gen", "unbalanced", "--mode", "repaired", "--k", "6", "--n", "60"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b275450449bc376e5061fd7e1968451bc04f504cefe966ff846fcb8658485e38"


@pytest.mark.parametrize("argv, prefix", [
    (["gen", "stable", "--n", "300"], "494f086b3311"),
    (["gen", "dipped", "--n", "400"], "946b5486a9c7"),
])
def test_stable_generators_stdout_pinned(capsys, argv, prefix):
    # captured before every dense source went through StableColoring.from_rows
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)


def test_non_utf8_file_names_the_line_of_the_byte(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3\n01\n\xfe\n")
    code, out, err = run(capsys, ["pattern", "avoids", str(path), "01"])
    assert (code, out, err) == (1, "", f"error: {path}:3: byte 0xfe is not UTF-8\n")


def test_load_coloring_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"type\": \"stable\"}")
    with pytest.raises(InstanceLoadError):
        load_coloring(str(bad))
    # each record is valid but for one bool or float standing for an integer
    one_off = ['{"type": "stable", "horizon": true, "limits": [0], "settle": [2]}',
               '{"type": "stable", "horizon": 1, "limits": [false], "settle": [2]}',
               '{"type": "stable", "horizon": 1, "limits": [0], "settle": [2.0]}',
               '{"type": "stable", "horizon": 2, "limits": [0, 0], "settle": [2, 3], "overrides": [[0, 1, true]]}']
    for name, text in [*UNTYPED_RECORDS.items(), *(("one-off.json", t) for t in one_off)]:
        (tmp_path / name).write_text(text)
        with pytest.raises(InstanceLoadError, match=f"^{tmp_path / name}:1: bad stable record: "):
            load_coloring(str(tmp_path / name))


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(-2, 5), max_size=4))


@st.composite
def mixed_records(draw):
    """A valid stable record with up to three fields or entries replaced
    by arbitrary JSON values."""
    h = draw(st.integers(0, 4))
    settle = [x + draw(st.integers(1, 3)) for x in range(h)]
    record = {"type": "stable", "horizon": h, "limits": [draw(st.integers(0, 1)) for _ in range(h)],
              "settle": settle,
              "overrides": [[x, y, draw(st.integers(0, 1))] for x in range(h) for y in range(x + 1, settle[x])]}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(record)))
        value = record[key]
        if isinstance(value, list) and value and draw(st.booleans()):
            i = draw(st.integers(0, len(value) - 1))
            if isinstance(value[i], list) and value[i] and draw(st.booleans()):
                value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(JSON_VALUES)
            else:
                value[i] = draw(JSON_VALUES)
        elif draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(JSON_VALUES)
    return record


@settings(max_examples=300, deadline=None)
@given(mixed_records())
def test_load_coloring_fuzz_mixed_json_types(record):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
        try:
            f = load_coloring(path)
        except InstanceLoadError as exc:
            assert str(exc).startswith(f"{path}:1: bad stable record: ")
            return
    assert isinstance(f, StableColoring)
    numbers = [record["horizon"], *record["limits"], *record["settle"], *sum(record.get("overrides", []), [])]
    assert all(type(v) is int for v in numbers)
    assert [f.horizon, list(f.limits), list(f.settle)] == [record["horizon"], record["limits"], record["settle"]]


@pytest.mark.parametrize("flag", [["--ho", "40"], ["--horizon", "40"], ["--horizon=40"], ["--hori=40"]])
def test_horizon_flag_abbreviations(capsys, flag):
    code, out, _ = run(capsys, [*flag, "experiment", "random-extract", "--trials", "1", "--instances", "1"])
    assert code == 0 and json.loads(out)["parameters"]["horizon"] == 40


def test_generate_instance_function():
    f = generate_instance("constant", {"n": 6, "color": 1})
    assert f.color(0, 5) == 1
    with pytest.raises(DegenerateInstance):
        generate_instance("nope", {})
