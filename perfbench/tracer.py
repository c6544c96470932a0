"""Span tracing of the `rpl` layers from outside the package.

`Tracer.install` replaces the public functions of the traced modules, the
aliases other modules imported them under, and a list of class methods
with wrappers that record one span per call: name, start, end, parent span
and op index, kept in memory and written out at the end.  Self time is a
span's duration minus the time of its direct children; total time adds up
the outermost calls only, so recursion counts once.  Pair-color reads
are far too frequent for spans; they are only counted.  `uninstall`
restores every replaced attribute, so an untraced replay runs the original
code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("patterns", "perms", "fractals", "extract", "build", "largeness",
           "instances", "cli")

# per-pair helpers run once per color read; they stay untraced
UNTRACED = {"patterns.pair_index"}

METHODS = (
    ("patterns", "FiniteColoring", "from_function"),
    ("build", "AdversaryScript", "enumerated"),
    ("build", "AdversaryScript", "hitting_measure"),
    ("largeness", "LargenessPredicate", "holds"),
)

COUNTED = (("patterns", "StableColoring", "color"),
           ("patterns", "FiniteColoring", "color"))
COLOR_METRIC = "patterns.color"

# per-call figures averaged into `<name>.<stat>` besides calls and self_s
STATS = {
    "extract.find_homogeneous_block": (
        "pool_mean", lambda args, kwargs, result: len(args[1])),
    "extract.randomized_extract": (
        "success_frac", lambda args, kwargs, result: float(result.success)),
    "patterns.find_realization": (
        "hit_frac", lambda args, kwargs, result: float(result is not None)),
    "build.delta_extract": (
        "ok_frac", lambda args, kwargs, result: float(result.status == "ok")),
}

SPAN_CAP = 300_000


class Tracer:
    def __init__(self):
        self.acc = None  # per-name [calls, self_s, stat_sum, total_s] of the phase being traced
        self.phases: dict = {}
        self.stack: list = []  # open frames: [child_time, span_index]
        self.spans: list = []
        self.dropped = 0
        self.op = -1
        self.depth: dict = {}  # open calls per name, so recursion counts once in total_s
        self.names: list = []
        self._patched: list = []
        self._color_calls = [0]
        self._color_mark = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"rpl.{m}") for m in MODULES}
        pkg = importlib.import_module("rpl")
        replace: dict = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{m}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name in UNTRACED or inspect.isgeneratorfunction(obj)):
                    continue
                replace[id(obj)] = (obj, self._wrap(name, obj))
        # rebind every module attribute holding a replaced object, so calls
        # through `from .x import f` aliases are traced too
        for mod in list(mods.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            raw = cls.__dict__[meth]
            name = f"{m}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))
        cell = self._color_calls
        for m, cls_name, meth in COUNTED:
            cls = getattr(mods[m], cls_name)
            self._patch(cls, meth, _counted(cls.__dict__[meth], cell))

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._patched):
            setattr(obj, attr, old)
        self._patched.clear()

    def _patch(self, obj, attr, new) -> None:
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        stat = STATS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            acc = tracer.acc
            if acc is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            if len(tracer.spans) < SPAN_CAP:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            depth = tracer.depth
            depth[name] = depth.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                depth[name] -= 1
                rec = acc.get(name)
                if rec is None:
                    rec = acc[name] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                if not depth[name]:
                    rec[3] += dur
                if idx >= 0:
                    tracer.spans[idx] = (name_id, start, end, parent, tracer.op)
            if stat is not None:
                rec[2] += stat(args, kwargs, result)
            return result

        return traced

    # -- phases ------------------------------------------------------------

    def begin(self, phase: str, op: int = -1) -> None:
        self.acc = self.phases.setdefault(phase, {})
        self.op = op
        self._color_mark = self._color_calls[0]

    def end(self) -> None:
        rec = self.acc.setdefault(COLOR_METRIC, [0, 0.0, 0.0, 0.0])
        rec[0] += self._color_calls[0] - self._color_mark
        self.acc = None

    # -- results -----------------------------------------------------------

    def table(self, phase: str, per: int) -> dict:
        """Per-name figures of a phase, divided by `per` (ops or set-ups)."""
        out = {}
        for name, (calls, self_s, stat_sum, total_s) in sorted(self.phases.get(phase, {}).items()):
            row = {"calls": calls / per, "self_s": self_s / per, "total_s": total_s / per}
            stat_name = STATS.get(name, (None, None))[0]
            if stat_name is not None:
                row[stat_name] = stat_sum / calls if calls else 0.0
            out[name] = row
        return out

    def write_spans(self, path) -> None:
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][1] if spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": self.names,
                "dropped": self.dropped,
                "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in spans],
            }, fh, separators=(",", ":"))


def _counted(fn, cell):
    @functools.wraps(fn)
    def color(self, x, y):
        cell[0] += 1
        return fn(self, x, y)

    return color
