"""Checks over the source tree with the stdlib ``ast`` module.

No private function, class, module-level assignment or instance
attribute in ``src/`` is left behind: each ``_name`` defined there, or
assigned as ``self._name``, is read somewhere in ``src/``.
Public names are out of scope, since code outside ``src/`` may use
them.

Orchestrator state changes only through lifecycle operations: in
``src/`` and ``perfbench/`` (read, never edited), the DRBs, allocations,
levels and the generation are assigned only inside those operations and
constructors.

The reference orchestrator in ``tests/reference.py`` stays independent
of the engine: it imports neither ``Orchestrator`` nor any private name
from ``ranslice``. Modules in ``src/`` import no private name from one
another either."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions_and_reads(root: Path) -> tuple[dict[str, str], set[str]]:
    """Every private function or class (at any depth), module-level
    assignment and instance attribute assigned through ``self`` under
    ``root``, by name with its place; and every name read, as a plain
    name, an attribute or an imported name."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    defined[target.id] = f"{path.relative_to(root)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined[node.name] = f"{path.relative_to(root)}:{node.lineno}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "self" and _is_private(node.attr)):
                defined.setdefault(node.attr, f"{path.relative_to(root)}:{node.lineno}")
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return defined, read


def test_every_private_name_in_src_is_used():
    defined, read = private_definitions_and_reads(SRC)
    assert defined, f"no private names found under {SRC}"
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)
    assert not unused, "defined but never used in src/: " + ", ".join(unused)


def test_the_private_check_finds_an_instance_attribute_nothing_reads(tmp_path):
    (tmp_path / "m.py").write_text("""
class Orch:
    def __init__(self):
        self._kept = self._left = 0
        self._counted: int = 0
        other._elsewhere = 1

    def tick(self):
        self._counted += 1
        return self._kept
""", encoding="utf-8")
    defined, read = private_definitions_and_reads(tmp_path)
    assert sorted(name for name in defined if name not in read) == ["_counted", "_left"]


# State the tick path trusts to change only in lifecycle operations.
LIFECYCLE_STATE = frozenset({"admitted_drbs", "allocated_prbs", "cu_sl", "du_sl", "current_il",
                             "_generation"})
LIFECYCLE_OPS = frozenset({"admit_drb", "depart_drb", "allocate_prbs", "scale", "_follow_aux",
                           "instantiate_subnet", "__init__", "__post_init__", "__new__"})
# The orchestrator's reset hook writes the generation; lifecycle
# operations alone may call it (tests call it after editing by hand).
RESET_HOOK = "_relayout"


def _targets(node: ast.AST):
    """The attribute names ``node`` assigns: attribute targets of an
    assignment (unpacked through tuples, lists and starred targets), and
    the constant name given to ``setattr`` or ``__setattr__``."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "setattr" and len(node.args) > 1:
            stack = [node.args[1]]
        elif isinstance(func, ast.Attribute) and func.attr == "__setattr__" and node.args:
            stack = [node.args[-2] if len(node.args) > 2 else node.args[0]]
        else:
            return
        for arg in stack:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield arg.value
        return
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Attribute):
            yield target.attr


def state_writes(roots) -> list[tuple[str, str, str]]:
    """Every (what, function, place) under ``roots`` that assigns one of
    LIFECYCLE_STATE or calls RESET_HOOK, with the innermost enclosing
    function's name (``<module>`` or the class body's ``<class Name>``)."""
    found = []

    def visit(node: ast.AST, where: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Lambda):
                inner = "<lambda>"
            elif isinstance(child, ast.ClassDef):
                inner = f"<class {child.name}>"
            for name in _targets(child):
                if name in LIFECYCLE_STATE:
                    found.append((name, where, f"{path}:{child.lineno}"))
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == RESET_HOOK):
                found.append((f"{RESET_HOOK}()", where, f"{path}:{child.lineno}"))
            visit(child, inner, path)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            visit(tree, "<module>", f"{root.name}/{path.relative_to(root)}")
    return found


def stray_writes(roots) -> list[str]:
    """The writes of state_writes outside lifecycle operations; the
    reset hook may bump the generation."""
    return [f"{what} in {where} ({place})" for what, where, place in state_writes(roots)
            if where not in LIFECYCLE_OPS
            and not (where == RESET_HOOK and what == "_generation")]


def test_lifecycle_state_is_written_only_by_lifecycle_operations():
    writes = state_writes([SRC, ROOT / "perfbench"])
    # The check sees the writers it exists for.
    assert {"admitted_drbs", "allocated_prbs", "cu_sl", "_generation", f"{RESET_HOOK}()"} <= {
        what for what, _, _ in writes}
    stray = stray_writes([SRC, ROOT / "perfbench"])
    assert not stray, "lifecycle state written outside lifecycle operations: " + ", ".join(stray)


def test_the_write_check_finds_every_form_of_write(tmp_path):
    (tmp_path / "edits.py").write_text("""
def tick(orch, sub, rec):
    sub.admitted_drbs += (1,)
    sub.allocated_prbs: int = 3
    rec.holder.cu_sl, (a, *rec.holder.du_sl) = 1, (2, 3)
    setattr(orch.aux, "current_il", "x")
    object.__setattr__(orch, "_generation", 0)
    orch._relayout()
    sub.other = 1

class Orch:
    def _relayout(self):
        self._generation += 1

    def scale(self):
        self.current_il = "y"
        self._relayout()
""", encoding="utf-8")
    assert sorted(w.split(" (")[0] for w in stray_writes([tmp_path])) == [
        "_generation in tick", "_relayout() in tick", "admitted_drbs in tick",
        "allocated_prbs in tick", "cu_sl in tick", "current_il in tick", "du_sl in tick"]


def engine_imports(source: str) -> list[str]:
    """What ``source`` takes from ``ranslice`` that an independent model
    may not: ``Orchestrator``, a private name or module, ``*``, or a whole
    module, whose attributes would escape this check."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "ranslice"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ranslice":
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in ("Orchestrator", "*")
                      or any(map(_is_private, f"{node.module}.{a.name}".split(".")))]
    return found


def test_the_reference_imports_nothing_of_the_engine_internals():
    assert engine_imports("from ranslice.orchestrator import Decision, Orchestrator, _fold\n"
                          "from ranslice._x import y\nfrom ranslice import *\n"
                          "import ranslice.sim\nfrom os import _exit\n") == [
        "ranslice.orchestrator.Orchestrator", "ranslice.orchestrator._fold", "ranslice._x.y",
        "ranslice.*", "ranslice.sim"]
    assert not engine_imports((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))


def private_imports(root: Path) -> list[str]:
    """Each private name that a module under ``root`` imports from a
    ``ranslice`` module, relative or absolute, with its place. The name
    imported counts, not the alias it is bound to."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ranslice"):
                found += [f"{a.name} ({path.relative_to(root)}:{node.lineno})"
                          for a in node.names if _is_private(a.name)]
    return found


def test_no_module_in_src_imports_a_private_name_of_another(tmp_path):
    (tmp_path / "m.py").write_text("from .config import _int, load_anchors\n"
                                   "from ranslice.sim import _safe_wait\n"
                                   "from json.encoder import encode_basestring_ascii as _str\n"
                                   "from os import _exit\n", encoding="utf-8")
    assert private_imports(tmp_path) == ["_int (m.py:1)", "_safe_wait (m.py:2)"]
    assert not private_imports(SRC), private_imports(SRC)
