"""Command-line front end, instance generators, and experiment harness.

Outputs are deterministic in (argv, input files, seed): JSON is emitted
with sorted keys, CSV columns are fixed, and all randomness flows through
seeds derived from (master seed, trial index).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from functools import cache

from . import instances
from .build import (
    AdversaryScript,
    chain_order,
    delta_extract,
    gamma_build,
    mirror_double,
    parse_script_file,
    priority_build,
)
from .errors import (ContractViolation, DegenerateInstance, InstanceLoadError, InternalInvariant,
                     RplError)
from .extract import (
    AdversarialEscapingOracle,
    ReferenceEscapingOracle,
    default_config,
    oracle_extract,
    randomized_extract,
    unbalanced_extract,
)
from .fractals import embed_separable, fractal_perm, partition_extract
from .largeness import LargenessPredicate, check_witness, find_grouping, omega_n_decompose
from .patterns import (
    FiniteColoring,
    StableColoring,
    VertexSet,
    find_realization,
    realizes,
)
from .perms import (
    Permutation,
    parse_naturals,
    perm_coloring,
    perm_to_pattern,
    separation,
)

# ---------------------------------------------------------------------------
# Experiment reports


REPORT_COLUMNS = ("trial", "seed", "outcome", "size", "failure_step")


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    records: list = field(default_factory=list)

    def add(self, trial: int, seed: int, outcome: str, size: int,
            failure_step=None) -> None:
        self.records.append(
            {"trial": trial, "seed": seed, "outcome": outcome, "size": size,
             "failure_step": failure_step}
        )

    def aggregates(self) -> dict:
        n = len(self.records)
        succ = sum(1 for r in self.records if r["outcome"] == "success")
        rate = succ / n if n else 0.0
        sigma = (rate * (1 - rate) / n) ** 0.5 if n else 0.0
        return {
            "trials": n,
            "successes": succ,
            "success_rate": rate,
            "margin_3sigma": 3 * sigma,
        }

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "records": self.records,
            "aggregates": self.aggregates(),
        }

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for r in self.records:
            lines.append(
                ",".join(
                    "" if r[c] is None else str(r[c]) for c in REPORT_COLUMNS
                )
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance files


def _read_text(path: str) -> str:
    """The file's contents as UTF-8 text; a byte that is not UTF-8 raises
    InstanceLoadError naming the file and the byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise InstanceLoadError(path, data.count(b"\n", 0, exc.start) + 1,
                                f"byte {data[exc.start]:#04x} is not UTF-8") from None


def load_coloring(path: str):
    """Dispatch on content: JSON stable records or triangular text."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return StableColoring.from_json_dict(json.loads(text))
        except (ValueError, KeyError, TypeError, ContractViolation) as exc:
            raise InstanceLoadError(path, 1, f"bad stable record: {exc}")
    return FiniteColoring.from_text(text, path)


def generate_instance(family: str, params: dict):
    """Fixture factory behind the `gen` verb; every family is
    seed-deterministic."""
    seed = int(params.get("seed", 0))
    n = int(params.get("n", 20))
    if family == "constant":
        return instances.constant_coloring(n, int(params.get("color", 0)))
    if family == "perm-clique":
        if "perm" not in params:
            raise _UsageError("missing permutation for perm-clique")
        return perm_coloring(Permutation.from_text(params["perm"]))
    if family == "stable":
        kind = params.get("limits", "alternating")
        if kind == "alternating":
            return instances.alternating_stable(n)
        if kind == "split":
            return instances.interleaved_split_order(n, seed)
        raise DegenerateInstance(f"unknown stable limits family {kind!r}")
    if family == "stable-avoiding":
        frac = float(params.get("fraction", 0.34))
        return instances.interleaved_split_order(n, seed, frac)
    if family == "unbalanced":
        k = int(params.get("k", 3))
        if k == 2:
            return instances.constant_coloring(n, 1)
        if params.get("mode", "grouped") == "repaired":
            return instances.repaired_random_unbalanced(n, k, seed)
        return instances.grouped_unbalanced(n, k, seed)
    if family == "dipped":
        return instances.dipped_split_order(n)
    raise DegenerateInstance(f"unknown instance family {family!r}")


# ---------------------------------------------------------------------------
# Output plumbing


class _Out:
    def __init__(self, path=None):
        self.path = path
        self.chunks: list = []

    def line(self, text: str = "") -> None:
        self.chunks.append(text + "\n")

    def flush(self) -> None:
        data = "".join(self.chunks)
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Verbs


def _cmd_pattern(args, out: _Out) -> int:
    if args.action == "show":
        p = perm_to_pattern(Permutation.from_text(args.arg))
        out.line(p.to_text().rstrip("\n"))
    elif args.action == "dual":
        p = perm_to_pattern(Permutation.from_text(args.arg))
        out.line(p.dual().to_text().rstrip("\n"))
    elif args.action == "avoids":
        if args.pattern is None:
            raise _UsageError("missing pattern")
        p = perm_to_pattern(Permutation.from_text(args.pattern))
        f = load_coloring(args.arg)
        horizon = min(args.horizon, f.horizon)
        hit = find_realization(f, range(horizon), p, args.budget)
        if hit is None:
            out.line("avoids")
        else:
            out.line("realized " + ",".join(str(v) for v in hit))
            return 0
    else:  # realizes
        if args.pattern is None or not args.set:
            raise _UsageError("missing pattern or --set")
        p = perm_to_pattern(Permutation.from_text(args.pattern))
        vs = VertexSet(_int_arg(t, "vertex") for t in args.set.split(","))
        f = load_coloring(args.arg)
        out.line("realizes" if realizes(f, vs, p) else "does-not-realize")
    return 0


def _cmd_sep_check(args, out: _Out) -> int:
    tree, found = separation(Permutation.from_text(args.perm))
    if tree is not None:
        out.line(f"separable ({tree.to_term()})")
    else:
        witness, positions = found
        out.line(f"non-separable ({witness.to_text()} at {','.join(map(str, positions))})")
    return 0


def _int_arg(text, what: str) -> int:
    """A numeric argument; missing or malformed is a usage error."""
    if text is None:
        raise _UsageError(f"missing {what}")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} must be an integer, got {text!r}") from None


def _cmd_fractal(args, out: _Out) -> int:
    if args.action == "gen":
        out.line(fractal_perm(_int_arg(args.a, "arity"), _int_arg(args.b, "dimension")).to_text())
    elif args.action == "embed":
        perm = Permutation.from_text(args.a)
        dim, positions = embed_separable(perm, _int_arg(args.b, "arity"))
        out.line(f"{dim} " + ",".join(str(v) for v in positions))
    else:  # partition
        a, b = _int_arg(args.a, "a"), _int_arg(args.b, "b")
        n = _int_arg(args.c, "dimension")
        if args.arg is None:
            raise _UsageError("missing vertex-color file")
        side, positions = partition_extract(a, b, n, _vertex_colors(args.arg))
        out.line(f"color {side} " + ",".join(str(v) for v in positions))
    return 0


def _vertex_colors(path: str):
    """The vertex-color file as a function of the vertex: its 0s and 1s in
    order, whitespace anywhere.  Another character, or a vertex past the
    last color, raises InstanceLoadError."""
    text = _read_text(path)
    bad = next((i for i, ch in enumerate(text) if ch not in "01" and not ch.isspace()), None)
    if bad is not None:
        raise InstanceLoadError(path, text.count("\n", 0, bad) + 1, f"{text[bad]!r} is not a color 0 or 1")
    colors = [int(ch) for ch in "".join(text.split())]

    def color(v: int) -> int:
        if v >= len(colors):
            raise InstanceLoadError(path, text.count("\n") + 1,
                                    f"no color for vertex {v}: the file gives {len(colors)}")
        return colors[v]

    return color


def _cmd_extract(args, out: _Out) -> int:
    f = load_coloring(args.instance)
    if args.mode == "unbalanced":
        res = unbalanced_extract(f, args.k, min(args.horizon, f.horizon))
        out.line(",".join(str(v) for v in res.vertices))
        out.line(_dump({"level": res.level, "populations": res.populations,
                        "lower_bound": res.lower_bound}))
        return 0
    if not isinstance(f, StableColoring):
        raise DegenerateInstance("randomized/oracle extraction needs a stable instance")
    if args.mode == "random":
        cfg = default_config(args.seed, horizon=args.horizon, steps=args.steps)
        res = randomized_extract(f, args.k, args.n, cfg)
        out.line(",".join(str(v) for v in res.vertices) if res.success else "failure")
        out.line(_dump({"success": res.success, "failure_step": res.failure_step,
                        "color": res.color, "transcript": res.transcript}))
        return 0
    oracle = AdversarialEscapingOracle() if args.adversarial else ReferenceEscapingOracle()
    res = oracle_extract(f, args.k, args.n, oracle, args.horizon, steps=args.steps)
    out.line(",".join(str(v) for v in res.vertices) if res.success else "failure")
    out.line(_dump({"success": res.success, "failure": res.failure,
                    "color": res.color, "transcript": res.transcript}))
    return 0


def _load_scenario(path: str):
    text = _read_text(path)
    try:
        data = json.loads(text)
        reqs = []
        for entry in data["requirements"]:
            p = perm_to_pattern(Permutation.from_text(entry["pattern"]))
            events = entry.get("script", [])
            if not all(isinstance(ev, list) and len(ev) == 3 for ev in events):
                raise ValueError("a script event is not a [prefix, stage, elements] array")
            reqs.append((p, AdversaryScript(entry.get("id", entry["pattern"]), events)))
        horizon = data.get("horizon", 100)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ContractViolation) as exc:
        raise InstanceLoadError(path, 1, f"bad priority scenario: {type(exc).__name__} {exc}")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise InstanceLoadError(path, 1, f"bad priority scenario: horizon {horizon!r} is not an integer")
    return reqs, horizon


def _load_scripts(path) -> dict:
    """The scripts of a `construct gamma`/`delta` script file, keyed by the
    level number in ASCII digits that each script's id names, one id per
    level; no file means no scripts."""
    if not path:
        return {}
    text = _read_text(path)
    scripts = {}
    for ident, script in parse_script_file(text, path).items():
        try:
            [level] = parse_naturals([ident])
        except ValueError:
            level = None
        if level is None or level in scripts:
            no = next(no for no, line in enumerate(text.splitlines(), start=1)
                      if line.split()[:2] == ["e", ident])
            problem = "is not a level number" if level is None else f"names level {level} a second time"
            raise InstanceLoadError(path, no, f"script id {ident!r} {problem}")
        scripts[level] = script
    return scripts


def _cmd_construct(args, out: _Out) -> int:
    if args.kind == "priority":
        if args.arg is None:
            raise _UsageError("missing priority scenario file")
        reqs, horizon = _load_scenario(args.arg)
        if args.horizon_set:
            horizon = args.horizon
        res = priority_build(reqs, horizon)
        out.line("limits " + "".join(str(b) for b in res.coloring.limits))
        out.line(_dump({
            "log": res.log,
            "verdicts": [
                {"index": v.index, "kind": v.kind, "state_length": v.state_length,
                 "measure": str(v.final_measure), "threshold": str(v.threshold)}
                for v in res.verdicts
            ],
        }))
        return 0
    if args.kind == "gamma":
        built = gamma_build(args.direction, args.e, args.n, _load_scripts(args.arg))
        out.line("order " + ",".join(map(str, built.ordered())))
        out.line(_dump({"members": built.members, "log": built.log}))
        return 0
    if args.kind == "delta":
        built = gamma_build(args.direction, args.e, args.n, _load_scripts(args.arg))
        res = delta_extract(args.direction, args.e, [int(b) for b in args.bits], built)
        out.line(f"{res.status} " + ",".join(str(x) for x in res.sequence))
        out.line(_dump({"flags": res.flags, "bits_used": res.bits_used}))
        return 0
    order = mirror_double(chain_order(args.n))  # mirror
    out.line("order " + ",".join(map(str, order.ordered())))
    return 0


def _cmd_large(args, out: _Out) -> int:
    if args.action == "check":
        try:
            elems = [int(t) for t in args.arg.split(",") if t]
        except ValueError:
            raise _UsageError(f"expected comma-separated integers, got {args.arg!r}") from None
        n = args.level
        witness = omega_n_decompose(elems, n)
        if witness is not None and not check_witness(witness):
            raise InternalInvariant("largeness witness failed re-verification")
        verdict = witness is not None
        out.line(f"omega^{n}-large: {'yes' if verdict else 'no'}")
        if witness is not None:
            out.line(_dump(_witness_dict(witness)))
        return 0
    f = load_coloring(args.arg)  # group
    if args.notion.startswith("omega:"):
        notion = LargenessPredicate(level=_int_arg(args.notion[6:], "omega level"))
    elif args.notion.startswith("pattern:"):
        p = perm_to_pattern(Permutation.from_text(args.notion[8:]))
        notion = LargenessPredicate(pattern=p, coloring=f, budget=args.budget)
    else:
        raise DegenerateInstance(f"unknown notion {args.notion!r}")
    g = find_grouping(f, notion, args.count, min(args.horizon, f.horizon))
    out.line(_dump({
        "complete": g.complete,
        "blocks": [list(b) for b in g.blocks],
        "obstruction": g.obstruction,
        "verified": g.check(),
    }))
    return 0


def _witness_dict(w) -> dict:
    return {
        "elements": list(w.elements),
        "level": w.level,
        "blocks": [_witness_dict(b) for b in w.blocks],
    }


def _cmd_experiment(args, out: _Out) -> int:
    if args.trials < 0:
        raise ContractViolation(f"--trials {args.trials} must be >= 0")
    if args.kind == "random-extract":
        if args.instances < 1:
            raise ContractViolation(f"--instances {args.instances} must be >= 1")
        # the fixture family needs room for its growing blocks; the global
        # horizon default is far too small for a meaningful run
        horizon = args.horizon if args.horizon_set else 10_000
        fam = instances.avoiding_family(args.instances, horizon, args.seed)
        report = ExperimentReport(
            "random-extract",
            {"trials": args.trials, "seed": args.seed, "instances": args.instances,
             "horizon": horizon, "steps": args.steps},
        )
        for t in range(args.trials):
            inst = fam[t % len(fam)]
            cfg = default_config(args.seed * 1_000_003 + t, horizon=horizon,
                                 steps=args.steps)
            try:
                res = randomized_extract(inst, 2, 2, cfg)
            except DegenerateInstance as exc:
                report.add(t, cfg.seed, "degenerate", 0, exc.step)
                continue
            report.add(t, cfg.seed, "success" if res.success else "failure",
                       len(res.vertices) if res.vertices else 0, res.failure_step)
    else:  # delta-mc
        built = gamma_build("dec", 0, args.n)
        report = ExperimentReport(
            "delta-mc", {"trials": args.trials, "seed": args.seed, "n": args.n},
        )
        for t in range(args.trials):
            rng = random.Random(args.seed * 1_000_003 + t)
            bits = [rng.randint(0, 1) for _ in range(24)]
            res = delta_extract("dec", 0, bits, built)
            report.add(t, args.seed * 1_000_003 + t,
                       "success" if res.status == "ok" else "failure",
                       len(res.sequence))
    if args.format == "csv":
        out.chunks.append(report.to_csv())
    else:
        out.line(_dump(report.to_dict()))
    return 0


def _cmd_gen(args, out: _Out) -> int:
    params = {
        "seed": args.seed, "n": args.n, "color": args.color, "k": args.k,
        "perm": args.perm, "limits": args.limits, "mode": args.mode, "fraction": args.fraction,
    }
    inst = generate_instance(args.family, {k: v for k, v in params.items() if v is not None})
    if isinstance(inst, StableColoring):
        out.line(_dump(inst.to_json_dict()))
    else:
        out.chunks.append(inst.to_text())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _bit_string(text: str) -> str:
    if set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"expected a string of 0s and 1s, got {text!r}")
    return text


@cache  # one parser per process: parse_args does not change it
def _build_parser() -> _Parser:
    p = _Parser(prog="rpl", description="pattern-avoidance laboratory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("pattern")
    sp.add_argument("action", choices=("show", "dual", "avoids", "realizes"))
    sp.add_argument("arg")
    sp.add_argument("pattern", nargs="?")
    sp.add_argument("--set", default="")

    sp = sub.add_parser("sep-check")
    sp.add_argument("perm")

    sp = sub.add_parser("fractal")
    sp.add_argument("action", choices=("gen", "embed", "partition"))
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("c", nargs="?")
    sp.add_argument("arg", nargs="?")

    sp = sub.add_parser("extract")
    sp.add_argument("mode", choices=("random", "oracle", "unbalanced"))
    sp.add_argument("instance")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--steps", type=int, default=30)
    sp.add_argument("--adversarial", action="store_true")

    sp = sub.add_parser("construct")
    sp.add_argument("kind", choices=("priority", "gamma", "delta", "mirror"))
    sp.add_argument("arg", nargs="?")
    sp.add_argument("--direction", choices=("inc", "dec"), default="dec")
    sp.add_argument("--e", type=int, default=0)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--bits", type=_bit_string, default="")

    sp = sub.add_parser("large")
    sp.add_argument("action", choices=("check", "group"))
    sp.add_argument("arg")
    sp.add_argument("level", nargs="?", type=int, default=1)
    sp.add_argument("--notion", default="omega:1")
    sp.add_argument("--count", type=int, default=3)

    sp = sub.add_parser("experiment")
    sp.add_argument("kind", choices=("random-extract", "delta-mc"))
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--instances", type=int, default=50)
    sp.add_argument("--steps", type=int, default=30)
    sp.add_argument("--n", type=int, default=800)

    sp = sub.add_parser("gen")
    sp.add_argument("family")
    sp.add_argument("perm", nargs="?")
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--color", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--limits", default=None)
    sp.add_argument("--mode", default=None)
    sp.add_argument("--fraction", type=float, default=None)
    return p


_DISPATCH = {
    "pattern": _cmd_pattern,
    "sep-check": _cmd_sep_check,
    "fractal": _cmd_fractal,
    "extract": _cmd_extract,
    "construct": _cmd_construct,
    "large": _cmd_large,
    "experiment": _cmd_experiment,
    "gen": _cmd_gen,
}


def run_command(argv) -> int:
    """Parse and run one command; exit status 0 on success, 1 on
    instance/precondition errors, 2 on usage errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 1:
            parser.error(f"argument --budget: must be >= 1, got {args.budget}")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    args.horizon_set = args.horizon is not None
    args.horizon = args.horizon if args.horizon_set else 200
    out = _Out(args.out)
    try:
        if args.horizon < 1:
            raise ContractViolation(f"--horizon {args.horizon} must be >= 1")
        code = _DISPATCH[args.verb](args, out)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (RplError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    out.flush()
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
