"""No private function, class or module-level assignment in ``src/`` is
left behind: each ``_name`` defined there is read somewhere in ``src/``.
Public names are out of scope, since code outside ``src/`` may use
them. Uses only the stdlib ``ast`` module."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions_and_reads(root: Path) -> tuple[dict[str, str], set[str]]:
    """Every private function or class (at any depth) and module-level
    assignment under ``root``, by name with its place; and every name
    read, as a plain name, an attribute or an imported name."""
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
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return defined, read


def test_every_private_name_in_src_is_used():
    defined, read = private_definitions_and_reads(SRC)
    assert defined, f"no private names found under {SRC}"
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)
    assert not unused, "defined but never used in src/: " + ", ".join(unused)
