"""Every layer that a per-layer metric of BENCHMARK.json traces names a
callable in rpl, so that a refactor cannot orphan a traced layer unnoticed.
A traced method must sit in its class's own dictionary, where the tracer
patches it; an inherited one resolves by getattr but cannot be patched."""

import importlib
import json
from functools import reduce
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# a metric is `<layer>.<stat>`; `trace.*` describes the tracer itself
LAYERS = sorted({m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]
                 if not m["name"].startswith("trace.")})
# pair-color reads are counted on both coloring classes under one name
ALIASES = {"patterns.color": ("patterns.FiniteColoring.color", "patterns.StableColoring.color")}


@pytest.mark.parametrize("layer", LAYERS)
def test_traced_layer_resolves(layer):
    for name in ALIASES.get(layer, (layer,)):
        module, *path = name.split(".")
        mod = importlib.import_module(f"rpl.{module}")
        obj = reduce(getattr, path, mod)
        assert callable(obj), name
        if len(path) == 2:  # module.Class.method
            assert path[1] in vars(getattr(mod, path[0])), f"{name} is inherited"
