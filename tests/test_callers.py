"""Every public module-level name under src/qpspec has a caller.

A function or class that only tests call is dead weight: it is named
somewhere in the package outside its own definition, or in the benchmark
harness (bench/*.py), or it goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpspec"
BENCH = ROOT / "bench"

# Kept without a caller on purpose: ROADMAP item 2 (error bars for every
# reported energy) uses it for the truncation term of each enclosure.
ALLOWED = {"decay_envelope"}


def _names(tree, skip=None):
    """Identifiers a tree refers to, outside the subtree `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def test_every_public_name_has_a_caller():
    src = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted(BENCH.glob("*.py")):
        bench |= _names(ast.parse(path.read_text()))
    uncalled = []
    for path, tree in src.items():
        for node in _definitions(tree):
            named = set(bench)
            for other, other_tree in src.items():
                named |= _names(other_tree, skip=node if other == path else None)
            if node.name not in named and node.name not in ALLOWED:
                uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"no caller in src/ or bench/: {uncalled}"
