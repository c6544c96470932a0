"""Every public top-level function and class of `rpl` has a user.

A definition is used when another top-level statement in `src/rpl` names
it, when the package exports it in `__init__.__all__`, when the benchmark
harness under `perfbench/` names it (traced layers are dotted strings
there), or when an acceptance criterion names it.  An import alone does
not count, and neither does a definition naming itself.  The allowlist
holds the few names kept without such a user, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rpl"

ALLOWED = {
    "ads_extract": "monotone extraction of the main theorem; awaits a verb (ROADMAP item 6)",
    "escaping_select": "escaping selection race; awaits a verb (ROADMAP item 6)",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_in(node, strings: bool = False) -> set:
    """Identifiers the tree reads: names and attributes, and with strings
    set, the parts of string constants that are dotted identifiers."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                yield path.stem, stmt.name


def used_names() -> set:
    used = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            used |= names_in(stmt, strings=path.name == "__init__.py") - own
    for path in (ROOT / "perfbench").rglob("*.py"):
        used |= names_in(ast.parse(path.read_text()), strings=True)
    used |= names_in(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    return used


def test_every_public_definition_has_a_user():
    used = used_names()
    orphans = [f"{mod}.{name}" for mod, name in public_definitions()
               if name not in used and name not in ALLOWED]
    assert orphans == [], f"reached only by their own unit tests: {orphans}"


def test_allowlist_names_defined_orphans():
    # a name that gains a user or goes away leaves the allowlist
    defined = {name for _, name in public_definitions()}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & used_names()
