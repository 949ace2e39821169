"""Every public module-level name under src/qpspec has a caller, every
defaulted parameter of a public function or method is passed by one, every
key of the CLI's config table is read, and every name the benchmark's tracer
binds exists.

A function, class or option that only tests use is dead weight: it is named
or set somewhere in the package outside its own definition, or in the
benchmark harness (bench/*.py), or it goes.  Calls are matched by name only,
so a parameter counts as passed when any call of that name could set it.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpspec"
BENCH = ROOT / "bench"

# Kept without a caller on purpose: acceptance test 5 checks eigenvector
# decay with it, and ROADMAP item 2 (error bars for every reported energy)
# still plans on it.  Gap truncation is bounded by sized_gap's padded
# residual instead.
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


def _defaulted_params(tree):
    """(name, param, positional index at a call or None) for each defaulted
    parameter of a public function or method; methods drop their receiver."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs = [(node, False)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f, not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in f.decorator_list))
                     for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for func, bound in funcs:
            if func.name.startswith("_"):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield func.name, arg.arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield func.name, arg.arg, None


def _passes(call, param, index) -> bool:
    """Whether a call may set `param`, by keyword or at `index`."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed():
    calls = {}
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for name, param, index in _defaulted_params(ast.parse(path.read_text())):
            if name in ALLOWED:
                continue
            if not any(_passes(c, param, index) for c in calls.get(name, [])):
                unset.append(f"{name}.{param}")
    assert not unset, f"defaulted parameter never passed in src/ or bench/: {unset}"


def test_every_config_key_is_read():
    # a key is read when cli.py subscripts something with it, outside the table
    tree = ast.parse((SRC / "cli.py").read_text())
    table = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "CONFIG" for t in node.targets))
    keys = {key.value for node in ast.walk(table) if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant)}
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is table:
            continue
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            read.add(node.slice.value)
        stack.extend(ast.iter_child_nodes(node))
    assert keys and not keys - read, f"config key never read by cli.py: {sorted(keys - read)}"


def _tracer_table(name):
    """The literal dict assigned to `name` in bench/tracing.py."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    return ast.literal_eval(node.value)


def test_every_traced_name_resolves():
    # the tracer wraps these by name; a rename or deletion breaks a traced run
    functions, methods = _tracer_table("FUNCTIONS"), _tracer_table("METHODS")
    assert functions and methods
    missing = [f"{module}.{attr}" for module, attr in functions.values()
               if not hasattr(importlib.import_module(module), attr)]
    for module, cls, attr in methods.values():
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls}.{attr}")
    assert not missing, f"traced by bench/tracing.py but not defined: {missing}"
