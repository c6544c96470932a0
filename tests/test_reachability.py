"""Every public top-level function and class of `rpl` has a user, and so
does every public method and property of its classes.

A definition is used when another top-level statement in `src/rpl` names
it, when the package exports it in `__init__.__all__`, when the benchmark
harness under `perfbench/` names it (traced layers are dotted strings
there), or when an acceptance criterion names it.  An import alone does
not count, and neither does a definition naming itself.  The allowlist
holds the few names kept without such a user, each with its reason.  A
method or property is used when `src/rpl` names it outside its own body,
or the harness or an acceptance criterion names it.

Every name a `src/rpl` module or a test file imports is read somewhere
in that file: in code, in a string annotation, or in its `__all__`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rpl"

ALLOWED: dict = {}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def name_counts(node, strings: bool = False) -> Counter:
    """How often the tree reads each identifier: names and attributes,
    and with strings set, the parts of string constants that are dotted
    identifiers."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def names_in(node, strings: bool = False) -> set:
    return set(name_counts(node, strings))


def public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                yield path.stem, stmt.name


def names_outside_src() -> set:
    """Names the benchmark harness and the acceptance tests read."""
    used = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        used |= names_in(ast.parse(path.read_text()), strings=True)
    return used | names_in(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))


def used_names() -> set:
    used = names_outside_src()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            used |= names_in(stmt, strings=path.name == "__init__.py") - own
    return used


def test_every_public_definition_has_a_user():
    used = used_names()
    orphans = [f"{mod}.{name}" for mod, name in public_definitions()
               if name not in used and name not in ALLOWED]
    assert orphans == [], f"reached only by their own unit tests: {orphans}"


def test_every_public_method_has_a_user():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    in_src = Counter()
    for path, tree in trees.items():
        in_src.update(name_counts(tree, strings=path.name == "__init__.py"))
    outside = names_outside_src()
    orphans = [f"{path.stem}.{cls.name}.{fn.name}"
               for path, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
               and fn.name not in outside and in_src[fn.name] <= name_counts(fn)[fn.name]]
    assert orphans == [], f"reached only by their own unit tests: {orphans}"


def test_allowlist_names_defined_orphans():
    # a name that gains a user or goes away leaves the allowlist
    defined = {name for _, name in public_definitions()}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & used_names()


def imported_names(tree) -> dict:
    """Name -> line of each name the module binds by an import, bar
    `__future__` features."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                out[a.asname or a.name.split(".")[0]] = n.lineno
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            for a in n.names:
                out[a.asname or a.name] = n.lineno
    return out


def read_names(tree) -> set:
    """Names the module reads: loaded names, the names inside string
    annotations, and the entries of `__all__`."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        for annotation in (getattr(n, "annotation", None), getattr(n, "returns", None)):
            for c in ast.walk(annotation) if annotation is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    out |= read_names(ast.parse(c.value, mode="eval"))
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets):
            out |= {c.value for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
    return out


def test_every_import_is_read():
    unread = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        read = read_names(tree)
        unread += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported_names(tree).items() if name not in read]
    assert unread == [], f"imported and never read: {unread}"
