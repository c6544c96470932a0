"""The three benchmark workloads.

Each workload builds its fixtures in `setup` and hands the harness its ops
one round at a time.  Every op input comes from the workload seed and the
round index, so a seed fixes the whole op sequence; the program sees only
the generated inputs.  A round is a fixed list of op kinds, so every whole
round carries the same mix.

- `extract-mc`: randomized homogeneous-set extraction trials on the
  avoiding family, run the way `experiment random-extract` runs them.
  Nearly all time is block search in `extract`; `perms`, `build` and the
  generic realization search are not reached.
- `orders`: the staged builders as library calls.  Gamma builds on both
  sides of the jump in node count, in both directions, both base indices,
  with and without seeded adversary scripts (only scripts drive the cut
  and transition protocol); batches of bit-stream extractions over one
  prebuilt order; priority constructions on the criterion-8 scenario
  shapes at a horizon above 80.  All the work is in `build`.
- `search`: CLI verbs reaching the generic realization search, run in
  process.  Separable inputs are the search's worst case (a full search
  that never hits); random permutations hit a witness early and spend
  their time parsing, building the pair coloring and formatting.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass, replace
from typing import Any, Callable

# library calls go through the module attributes, so the tracer's
# wrappers see them
from rpl import build, cli, errors, extract, fractals, instances
from rpl.perms import Permutation, perm_to_pattern

import verify


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the output is correct
    canon: Callable[[Any], Any]  # JSON-able canonical output for the digest


def _rng(seed: int, *path) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + path))


# ---------------------------------------------------------------------------
# extract-mc

TRIALS_PER_ROUND = 10


@dataclass
class Degenerate:
    """A trial that raised DegenerateInstance, with the reason it gave."""

    message: str


def check_degenerate(record: verify.StableRecord, inst, cfg, out: Degenerate) -> str | None:
    """Replay the steps before the one the message names, outside the
    timed region, and have the verifier check that the stem they give
    leaves no block of that step's size."""
    m = re.search(r"at step (\d+)", out.message)
    if m is None:
        return f"degenerate without a step: {out.message}"
    step = int(m.group(1))
    if not step < cfg.steps:
        return f"degenerate at step {step} of {cfg.steps}"
    arity = cfg.thinning[step]  # block size for k = 2 over dimension-1 blocks
    named = re.search(r"no (\d+)-ary", out.message)
    if named is not None and int(named.group(1)) != arity:
        return f"degenerate message names arity {named.group(1)}, step {step} uses {arity}"
    stem = extract.randomized_extract(inst, 2, 2, replace(cfg, steps=step))
    return verify.check_degenerate(record, stem, step, arity)


class ExtractMC:
    name = "extract-mc"
    min_rounds = 3

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "family": instances.avoiding_family(50, 10_000, seed),
                "records": {}}

    def round(self, ctx: dict, r: int) -> list:
        return [self._trial(ctx, r * TRIALS_PER_ROUND + i) for i in range(TRIALS_PER_ROUND)]

    def _trial(self, ctx: dict, t: int) -> Op:
        idx = t % len(ctx["family"])
        inst = ctx["family"][idx]
        trial_seed = ctx["seed"] * 1_000_003 + t
        cfg = extract.default_config(trial_seed, horizon=10_000, steps=30)

        def call():
            try:
                return extract.randomized_extract(inst, 2, 2, cfg)
            except errors.DegenerateInstance as exc:
                # the reservoir ran out of blocks before the last step: a
                # declared outcome, checked like success and failure
                return Degenerate(str(exc))

        def check(out):
            if idx not in ctx["records"]:
                ctx["records"][idx] = verify.StableRecord(inst.to_json_dict())
            if isinstance(out, Degenerate):
                return check_degenerate(ctx["records"][idx], inst, cfg, out)
            return verify.check_extraction(ctx["records"][idx], out)

        def canon(out):
            if isinstance(out, Degenerate):
                return {"degenerate": out.message}
            return {"success": out.success, "failure_step": out.failure_step,
                    "vertices": list(out.vertices) if out.success else None,
                    "transcript": out.transcript}

        return Op("trial", call, check, canon)


# ---------------------------------------------------------------------------
# orders

# (direction, base index, ground size, seeded scripts).  The node count
# jumps between grounds 1000 and 1200 for base index 0 (75 to 1099 nodes)
# and between 500 and 640 for base index 1 (37 to 549 nodes); builds sit
# on both sides of both jumps.  The six ground-640 builds of a round put
# the tail percentile among builds of one size.
GAMMAS = (
    ("dec", 0, 1200, False),
    ("inc", 1, 640, True),
    ("dec", 1, 640, False),
    ("inc", 0, 1000, True),
    ("inc", 1, 640, False),
    ("dec", 1, 640, True),
    ("dec", 1, 500, True),
    ("inc", 1, 640, True),
    ("dec", 1, 640, True),
)
PRIORITY_HORIZON = 128
STREAMS_PER_BATCH = 512
STREAM_BITS = 24

# the scenario shapes of acceptance criterion 8
SHAPES = (
    (("01", "full"),),
    (("10", "full"),),
    (("012", "full"),),
    (("0123", "full"),),
    (("120", "full"),),
    (("01", "half"),),
    (("012", "quarter"),),
    (("01", "late"),),
    (("10", "sparse"),),
    (("10", "late"), ("01", "full")),
    (("01", "full"), ("10", "full")),
    (("120", "late"), ("01", "full")),
    (("012", "full"), ("10", "sparse")),
    (("01", "quarter"), ("10", "full")),
    (("0123", "late"), ("01", "full")),
    (("102", "full"), ("012", "half")),
    (("01", "full"), ("10", "half"), ("012", "quarter")),
    (("10", "late"), ("120", "full"), ("01", "sparse")),
    (("021", "full"), ("01", "late")),
    (("01", "sparse"), ("10", "late"), ("0123", "full")),
)


def scenario_script(style: str, horizon: int) -> build.AdversaryScript:
    if style == "full":
        return build.AdversaryScript("full", [("", s, [s]) for s in range(horizon)])
    if style == "late":
        return build.AdversaryScript("late", [("", s, [s]) for s in range(horizon // 3, horizon, 7)])
    if style == "half":
        return build.AdversaryScript("half", [("0", s, [s]) for s in range(horizon)])
    if style == "quarter":
        return build.AdversaryScript("quarter", [("00", s, [s]) for s in range(2, horizon)])
    if style == "sparse":
        return build.AdversaryScript("sparse", [("", s, [s, s + 1]) for s in range(0, horizon, 5)])
    raise ValueError(style)


def level_scripts(rng: random.Random, n: int, levels: int = 4, events: int = 6) -> dict:
    """Seeded per-level scripts: each event enumerates one to three earlier
    arrivals at a random stage, so witnessed hits move disabled blocks and
    open cuts."""
    out = {}
    for level in range(levels):
        evs = []
        for _ in range(events):
            s = rng.randrange(n // 20, n)
            evs.append(("", s, sorted(rng.sample(range(s), rng.randint(1, 3)))))
        out[level] = build.AdversaryScript(f"w{level}", evs)
    return out


class Orders:
    name = "orders"
    min_rounds = 3  # so the ground-640 builds hold the tail percentile

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "delta_order": build.gamma_build("dec", 0, 800)}

    def round(self, ctx: dict, r: int) -> list:
        # every round builds every scenario shape once, so the mix of
        # priority costs is the same in every run
        ops = [self._priority(shape) for shape in SHAPES]
        for slot, variant in enumerate(GAMMAS):
            ops.append(self._delta(ctx, _rng(ctx["seed"], "delta", r, slot)))
            ops.append(self._gamma(variant, _rng(ctx["seed"], "gamma", r, slot)))
        _rng(ctx["seed"], "order", r).shuffle(ops)
        return ops

    def _gamma(self, variant, rng) -> Op:
        direction, e, n, scripted = variant
        scripts = level_scripts(rng, n) if scripted else {}

        def check(built):
            return verify.check_gamma(n, built.members, built.keys, built.log)

        def canon(built):
            return {"order": sorted(built.members, key=built.keys.__getitem__),
                    "log": built.log}

        return Op(f"gamma-{direction}{e}-{n}{'-scripted' if scripted else ''}",
                  lambda: build.gamma_build(direction, e, n, scripts), check, canon)

    def _delta(self, ctx: dict, rng) -> Op:
        built = ctx["delta_order"]
        streams = [[rng.randint(0, 1) for _ in range(STREAM_BITS)]
                   for _ in range(STREAMS_PER_BATCH)]

        def call():
            return [build.delta_extract("dec", 0, bits, built) for bits in streams]

        def check(results):
            for res in results:
                bad = verify.check_delta(built.keys, res.status, res.sequence)
                if bad:
                    return bad
            return None

        def canon(results):
            return [[res.status, res.sequence] for res in results]

        return Op("delta-batch", call, check, canon)

    def _priority(self, shape) -> Op:
        horizon = PRIORITY_HORIZON
        reqs = [(perm_to_pattern(Permutation.from_text(p)), scenario_script(style, horizon))
                for p, style in shape]

        def call():
            res = build.priority_build(reqs, horizon)
            return res, build.check_state_properties(res)

        def check(out):
            res, bad = out
            if bad:
                return f"state property violated: {bad[0]}"
            return verify.check_priority(
                res.table, verify.StableRecord(res.coloring.to_json_dict()))

        def canon(out):
            res, _ = out
            return {"limits": list(res.coloring.limits), "log": res.log,
                    "verdicts": [[v.kind, v.state_length, str(v.final_measure)]
                                 for v in res.verdicts]}

        return Op("priority", call, check, canon)


# ---------------------------------------------------------------------------
# search

# instance files: (label, family, k, ground size)
FILES = (
    ("grouped3", "grouped", 3, 60),
    ("grouped4", "grouped", 4, 48),
    ("repaired3", "repaired", 3, 30),
    ("repaired4", "repaired", 4, 30),
)
MIXED_PATTERNS = ("210", "3210", "021", "102", "120", "201")


def random_separable(rng: random.Random, n: int) -> list:
    """A random direct/skew-sum tree with n leaves, evaluated."""
    if n == 1:
        return [0]
    k = rng.randint(1, n - 1)
    a, b = random_separable(rng, k), random_separable(rng, n - k)
    if rng.random() < 0.5:
        return a + [v + k for v in b]
    return [v + n - k for v in a] + b


def run_cli(argv: list) -> tuple:
    """`cli.run_command` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


class Search:
    name = "search"
    min_rounds = 8  # so the two largest separable checks hold the tail percentile

    def setup(self, seed: int, workdir: str) -> dict:
        files = {}
        for i, (label, family, k, n) in enumerate(FILES):
            inst_seed = seed * 100 + i
            if family == "grouped":
                f = instances.grouped_unbalanced(n, k, inst_seed)
            else:
                f = instances.repaired_random_unbalanced(n, k, inst_seed)
            path = os.path.join(workdir, f"{label}.txt")
            with open(path, "w") as fh:
                fh.write(f.to_text())
            files[label] = (path, k)
        fractal_values = {d: list(fractals.fractal_perm(2, d).values) for d in (5, 6)}
        return {"seed": seed, "files": files, "fractals": fractal_values, "readers": {}}

    def round(self, ctx: dict, r: int) -> list:
        rng = _rng(ctx["seed"], "search", r)
        labels = [label for label, *_ in FILES]
        big = ctx["fractals"][6]
        ops = [self._sep(big, True), self._sep([len(big) - 1 - v for v in big], True),
               self._sep(ctx["fractals"][5], True)]
        for _ in range(3):
            ops.append(self._sep(random_separable(rng, rng.randint(40, 56)), True))
        for _ in range(10):
            values = list(range(rng.randint(40, 64)))
            rng.shuffle(values)
            ops.append(self._sep(values, False))
        for _ in range(3):
            ops.append(self._avoids(ctx, rng.choice(labels), rng.choice(MIXED_PATTERNS)))
        # the all-0 pattern of size k is avoided by construction: a full search
        label = rng.choice(labels)
        ops.append(self._avoids(ctx, label, "0123"[:ctx["files"][label][1]]))
        ops.append(self._avoids(ctx, rng.choice(("repaired3", "repaired4")),
                                rng.choice(verify.FORBIDDEN)))
        for _ in range(2):
            ops.append(self._group(ctx, rng.choice(labels), rng.choice(("omega:1", "omega:2"))))
        for _ in range(2):
            ops.append(self._group(ctx, rng.choice(labels),
                                   rng.choice(("pattern:10", "pattern:210", "pattern:01"))))
        ops.append(self._group(ctx, "repaired3", "pattern:012"))
        return ops

    def _reader(self, ctx: dict, label: str) -> verify.TriangleFile:
        if label not in ctx["readers"]:
            with open(ctx["files"][label][0]) as fh:
                ctx["readers"][label] = verify.TriangleFile(fh.read())
        return ctx["readers"][label]

    def _cli_op(self, kind: str, argv: list, label, check_stdout) -> Op:
        # the digest names instance files by label, not by their path
        shown = [label if label and i == 2 else a for i, a in enumerate(argv)]

        def check(out):
            code, stdout, stderr = out
            if code != 0:
                return f"exit {code}: {stderr.strip()[:120]}"
            return check_stdout(stdout)

        return Op(kind, lambda: run_cli(argv), check, lambda out: [shown, out[0], out[1]])

    def _sep(self, values: list, built_separable: bool) -> Op:
        return self._cli_op(
            "sep-check-separable" if built_separable else "sep-check-random",
            ["sep-check", verify.perm_text(values)], None,
            lambda stdout: verify.check_sep_check(values, stdout, built_separable))

    def _avoids(self, ctx: dict, label: str, pattern: str) -> Op:
        path = ctx["files"][label][0]
        return self._cli_op(
            "pattern-avoids", ["pattern", "avoids", path, pattern], label,
            lambda stdout: verify.check_pattern_avoids(self._reader(ctx, label), pattern, stdout))

    def _group(self, ctx: dict, label: str, notion: str) -> Op:
        path = ctx["files"][label][0]
        return self._cli_op(
            "large-group", ["large", "group", path, "--notion", notion, "--count", "3"], label,
            lambda stdout: verify.check_grouping(self._reader(ctx, label), notion, 3, stdout))


WORKLOADS = {w.name: w for w in (ExtractMC(), Orders(), Search())}
