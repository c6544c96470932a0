"""One measured run of one workload, in a fresh interpreter.

`run.py` starts this file with its own arguments.  The run imports `rpl`
from the checkout's `src/`, sets the workload up several times, then
drives the workload's ops as one closed-loop client (the next op starts
when the previous one returns).  The first pass runs the whole rounds
that fit in half of `--seconds`, and at least the workload's
`min_rounds`; a second pass replays the same rounds, so every op input
runs twice, seconds apart.

On a shared machine the speed of the CPU drifts by a third and more, over
seconds and over minutes, so a wall-clock time alone does not repeat.
Every op timing is therefore paired with a reference loop of fixed
pure-Python work run just before and just after it (set-up timings: just
before), and scaled by the ratio of that loop's nominal time (REF_LOOP_S)
to its measured time.  The figures read as wall time on a machine where
the loop takes REF_LOOP_S.  An op's time is the least of its scaled
timings over the passes.  The record keeps the unscaled wall-clock
figures beside the scaled ones.

Each output is checked right after its op returns, outside the timed
region, and round 0 must give the same canonical outputs in every pass.

With `--trace 1` the first pass runs with the rpl layers wrapped in spans
(see tracer.py); comparing it with the untraced passes gives the tracing
overhead.

Stdout gets a `record` line with the run's metadata and every figure,
then the result line the metric names in BENCHMARK.json select.  Both
also go under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 5
PASSES = 2
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
REF_LOOP_S = 3.0e-4  # nominal time of reference_loop; sets the scale of every timing
REF_REPS = 3
# functions only set-up calls: reported per set-up instead of per op
SETUP_FUNCTIONS = ("instances.avoiding_family", "fractals.fractal_perm")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import {}; print(time.perf_counter() - t)")


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(prog="run.py", description="rpl benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_rpl() -> None:
    """Import every rpl module from the checkout, and make sure it is the
    checkout's copy that was found."""
    sys.path.insert(0, str(SRC))
    import tracer

    for m in tracer.MODULES:
        importlib.import_module(f"rpl.{m}")
    found = Path(sys.modules["rpl"].__file__).resolve().parent
    if found != (SRC / "rpl").resolve():
        raise SystemExit(f"imported rpl from {found}, not from {SRC / 'rpl'}")


def import_times(reps: int) -> tuple:
    """Wall and scaled times of importing every rpl module in fresh
    interpreters."""
    import tracer

    probe = IMPORT_PROBE.format(", ".join(f"rpl.{m}" for m in tracer.MODULES))
    cmd = [sys.executable, "-c", probe, str(SRC)]
    wall, scaled = [], []
    for _ in range(reps):
        slow = slowness()
        wall.append(float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                         timeout=60).stdout))
        scaled.append(wall[-1] / slow)
    return wall, scaled


def reference_loop() -> int:
    """Fixed interpreter work (dict updates, string and integer operations,
    a keyed sort), the same kind of work the rpl code does."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) if i & 1 else i % 13
    pairs = sorted(table.items(), key=lambda kv: kv[1])
    return acc + pairs[0][0]


def slowness() -> float:
    """How much slower than nominal the machine runs right now: the best of
    REF_REPS reference-loop timings over REF_LOOP_S."""
    best = float("inf")
    for _ in range(REF_REPS):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best / REF_LOOP_S


def clear_caches() -> None:
    """Drop memoized fractals so every set-up computes them afresh."""
    from rpl import fractals

    obj = fractals.fractal_perm
    while obj is not None:
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
        obj = getattr(obj, "__wrapped__", None)


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


class Tally:
    def __init__(self):
        self.kinds: list = []
        self.failures: list = []
        self.wall: list = []  # unscaled op times


def run_round(wl, ctx, r: int, tally: Tally, times: list, tracer=None,
              canon=None) -> None:
    """Run one round op by op, appending scaled op times to `times` and,
    when given, canonical outputs to `canon`."""
    for op in wl.round(ctx, r):
        before = slowness()
        if tracer is not None:
            tracer.begin("ops", len(times))
        start = perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a raising op is a failed op, the run goes on
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end()
        times.append(2.0 * elapsed / (before + slowness()))
        tally.wall.append(elapsed)
        tally.kinds.append(op.kind)
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # malformed output the check could not read
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            tally.failures.append(f"{op.kind} in round {r}: {err}")
        if canon is not None:
            canon.append({"failed": op.kind} if err else op.canon(out))


def timing_values(op_times: list, import_s: list, setup_s: list) -> dict:
    p_tail, _ = tail(op_times)
    return {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": statistics.median(op_times) * 1000.0,
        "op_tail_ms": p_tail * 1000.0,
    }


def digest(canon: list) -> str:
    """sha256 of the canonical outputs, serialized with sorted keys."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer_values(tracer, n_ops: int) -> dict:
    from tracer import COLOR_METRIC, STATS

    ops = tracer.table("ops", n_ops)
    setup = tracer.table("setup", 1)
    values = {}
    for name in tracer.names + [COLOR_METRIC]:
        row = (setup if name in SETUP_FUNCTIONS else ops).get(name, {})
        values[f"{name}.calls"] = row.get("calls", 0.0)
        values[f"{name}.self_s"] = row.get("self_s", 0.0)
        values[f"{name}.total_s"] = row.get("total_s", 0.0)
        if name in STATS:
            stat = STATS[name][0]
            values[f"{name}.{stat}"] = row.get(stat, 0.0)
    return values


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rpl").glob("*.py")))


def measure(args, spec: dict, workdir: Path) -> tuple:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    import_wall, import_s = import_times(SETUP_REPS)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    setup_wall, setup_times = [], []
    for rep in range(SETUP_REPS):
        clear_caches()
        ctx = None  # let the previous fixtures go before building new ones
        slow = slowness()
        if tracer is not None and rep == 0:
            tracer.begin("setup")
        start = perf_counter()
        ctx = wl.setup(args.seed, str(workdir))
        setup_wall.append(perf_counter() - start)
        setup_times.append(setup_wall[-1] / slow)
        if tracer is not None and rep == 0:
            tracer.end()

    tally = Tally()
    times = [[] for _ in range(PASSES)]
    canon = [[] for _ in range(PASSES)]
    window_start = perf_counter()
    budget = args.seconds / PASSES
    rounds = 0
    # stop before a round that would end past the pass's share of the time
    while rounds < wl.min_rounds or (perf_counter() - window_start) * (rounds + 1) / rounds <= budget:
        run_round(wl, ctx, rounds, tally, times[0], tracer, canon[0] if not rounds else None)
        rounds += 1
    n_ops = len(times[0])
    if tracer is not None:
        tracer.uninstall()
    walls = [tally.wall]
    for p in range(1, PASSES):
        replay = Tally()
        for r in range(rounds):
            run_round(wl, ctx, r, replay, times[p], None, canon[p] if not r else None)
        tally.failures += replay.failures
        walls.append(replay.wall)
    window_s = perf_counter() - window_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(c != canon[0] for c in canon):
        tally.failures.append("round 0 gave different outputs in different passes")

    op_times = [min(ts) for ts in zip(*times)]
    values = timing_values(op_times, import_s, setup_times)
    values["peak_rss_mb"] = peak_rss_mb
    wall = timing_values([min(ts) for ts in zip(*walls)], import_wall, setup_wall)
    extra = {}
    if tracer is not None:
        values.update(layer_values(tracer, n_ops))
        untraced = statistics.mean(sum(ts) for ts in times[1:])
        values["trace.overhead_frac"] = sum(times[0]) / untraced - 1.0
        values["trace.op_mean_s"] = sum(walls[0]) / n_ops  # unscaled, like self_s
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_path)
        extra = {"spans": len(tracer.spans),
                 "spans_dropped": tracer.dropped,
                 "spans_file": str(spans_path.relative_to(ROOT)),
                 "layers_per_op": tracer.table("ops", n_ops),
                 "layers_per_setup": tracer.table("setup", 1)}

    by_kind: dict = {}
    for kind, t in zip(tally.kinds, op_times):
        by_kind.setdefault(kind, []).append(t)
    attempted = n_ops * PASSES
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_rpl_lines": src_lines(),
        "import_reps_s": import_s, "setup_reps_s": setup_times,
        "import_reps_wall_s": import_wall, "setup_reps_wall_s": setup_wall,
        "rounds": rounds, "passes": PASSES, "window_s": window_s,
        "attempted": attempted, "failed": len(tally.failures),
        "fail_frac": len(tally.failures) / attempted,
        "failures": tally.failures[:5],
        "op_tail_percentile": tail(op_times)[1], "op_tail_beyond": TAIL_BEYOND,
        "op_samples": n_ops,
        "pass_op_s": [sum(ts) for ts in times],
        "ops_by_kind": {k: {"count": len(ts), "p50_ms": statistics.median(ts) * 1000.0}
                        for k, ts in sorted(by_kind.items())},
        "digest": digest(canon[0]),
        "digest_ops": len(canon[0]),
        "values": values,
        "wall_values": wall,
        **extra,
    }
    group = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[group]},
    }
    return record, result


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    import_rpl()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record, result = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
