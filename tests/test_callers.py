"""Every public name under src/qpspec has a caller, every defaulted parameter
is passed and varies, every key of the CLI's config table is read, and every
name the benchmark's tracer binds exists.

A function, class, method, property or option that only tests use is dead
weight: it is named or set somewhere in the package outside its own
definition, or in the benchmark harness (bench/*.py), or it goes.  Four
guards check that:

- every public module-level name is named by a caller;
- every public method and property of a public class is read as an
  attribute (`.name`) by a caller, the tracer's METHODS table counting as
  one; a bare variable of the same name does not count;
- every defaulted parameter of a public function or method is passed by
  some call;
- no such parameter is passed by every call with the same literal, which
  makes it a constant in disguise.

Calls are matched by name only, so a parameter counts as passed when any
call of that name could set it.  Each guard is a function of the source
trees, so the guards can be checked on a planted source too, and an ALLOWED
entry that no guard flags any more fails as stale.
"""

import ast
import importlib
import textwrap
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpspec"
BENCH = ROOT / "bench"

# Kept on purpose, each a name, Class.attr or func.param a guard flags.
ALLOWED = {
    # No caller: acceptance test 5 checks eigenvector decay with it, and
    # ROADMAP item 2 (error bars for every reported energy) still plans on
    # it.  Gap truncation is bounded by sized_gap's padded residual instead.
    "decay_envelope",
    # No caller: tests check each route's eigenvector with it, and ROADMAP
    # item 2 replaces it with the 2-norm residual that enclosures need.
    "EigenRecord.residual",
    # Always False in src/: a constant True would add a full eigh to every
    # band point (6.9 ms against a 3.3 ms route, ROADMAP item 8), and
    # deleting it would turn the oracle off.  ROADMAP items 8 and 13 retire
    # it.
    "eigen_simple.oracle_check",
}


def _refs(tree) -> Counter:
    """How often a tree refers to each identifier."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def _methods(tree):
    """(class name, node) for each public method or property of a public class."""
    for cls in _definitions(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


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


def _calls(trees) -> dict:
    """Every call in `trees`, by the name it calls."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return calls


UNKNOWN = object()  # a * or ** argument may set the parameter


def _argument(call, param, index):
    """What a call passes for `param`, by keyword or at `index`: the
    expression, None when it takes the default, or UNKNOWN."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    starred = [isinstance(a, ast.Starred) for a in call.args]
    if index is not None and len(call.args) > index and not any(starred[:index + 1]):
        return call.args[index]
    if any(starred) or any(kw.arg is None for kw in call.keywords):
        return UNKNOWN
    return None


def _literal(node):
    """A key equal for equal literals, or None for anything else."""
    if not isinstance(node, ast.expr):
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def uncalled_names(src, bench) -> list:
    """Each public module-level name of `src` that no tree names outside its
    own definition."""
    named = sum(map(_refs, src + bench), Counter())
    return [node.name for tree in src for node in _definitions(tree)
            if named[node.name] <= _refs(node)[node.name]]


def _attrs(tree) -> Counter:
    """How often a tree reads each attribute name."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def uncalled_methods(src, bench, traced=()) -> list:
    """Class.attr for each public method or property of a public class of
    `src` that no tree reads as an attribute outside its own definition,
    and `traced` does not hold."""
    read = sum(map(_attrs, src + bench), Counter(traced))
    return [f"{cls}.{node.name}" for tree in src for cls, node in _methods(tree)
            if read[node.name] <= _attrs(node)[node.name]]


def unpassed_params(src, bench) -> list:
    """func.param for each defaulted parameter of `src` that no call sets."""
    calls = _calls(src + bench)
    return [f"{name}.{param}" for tree in src
            for name, param, index in _defaulted_params(tree)
            if all(_argument(c, param, index) is None for c in calls.get(name, []))]


def one_literal_params(src, bench) -> list:
    """func.param for each defaulted parameter of `src` that every call
    passes, each with the same literal."""
    calls = _calls(src + bench)
    out = []
    for tree in src:
        for name, param, index in _defaulted_params(tree):
            keys = {_literal(_argument(c, param, index)) for c in calls.get(name, [])}
            if len(keys) == 1 and None not in keys:
                out.append(f"{name}.{param}")
    return out


def _tracer_table(name):
    """The literal dict assigned to `name` in bench/tracing.py."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    return ast.literal_eval(node.value)


@lru_cache(maxsize=None)
def _package():
    """(src trees, bench trees, method names the tracer binds)."""
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    traced = [attr for _, _, attr in _tracer_table("METHODS").values()]
    return src, bench, traced


def test_every_public_name_has_a_caller():
    src, bench, _ = _package()
    uncalled = sorted(set(uncalled_names(src, bench)) - ALLOWED)
    assert not uncalled, f"no caller in src/ or bench/: {uncalled}"


def test_every_public_method_has_a_caller():
    uncalled = sorted(set(uncalled_methods(*_package())) - ALLOWED)
    assert not uncalled, f"method or property with no caller in src/ or bench/: {uncalled}"


def test_every_defaulted_parameter_is_passed():
    src, bench, _ = _package()
    unset = sorted(set(unpassed_params(src, bench)) - ALLOWED)
    assert not unset, f"defaulted parameter never passed in src/ or bench/: {unset}"


def test_no_defaulted_parameter_is_one_literal():
    src, bench, _ = _package()
    pinned = sorted(set(one_literal_params(src, bench)) - ALLOWED)
    assert not pinned, f"every src/ and bench/ call passes the same literal: {pinned}"


def test_every_allowed_entry_is_still_flagged():
    src, bench, traced = _package()
    flagged = (set(uncalled_names(src, bench)) | set(uncalled_methods(src, bench, traced))
               | set(unpassed_params(src, bench)) | set(one_literal_params(src, bench)))
    assert not ALLOWED - flagged, f"stale ALLOWED entries: {sorted(ALLOWED - flagged)}"


PLANTED = textwrap.dedent('''
    class Box:
        def used(self, scale=1.0):
            return scale

        @property
        def unused(self):
            return 0

        @property
        def center(self):
            return 0.5


    def make(x, flag=False, tag=None):
        return Box().used(2.0 * x)


    def run(y, center):
        make(center, flag=True, tag="a")
        make(2, True, tag=y)
        return Box().used(scale=3.0)
''')


def test_guards_flag_planted_cases():
    src = [ast.parse(PLANTED)]
    # a variable named center does not call the property
    assert uncalled_methods(src, []) == ["Box.unused", "Box.center"]
    assert uncalled_methods(src, [], traced=["unused", "center"]) == []
    # flag is True at both calls; tag and scale get a non-literal once
    assert one_literal_params(src, []) == ["make.flag"]
    assert unpassed_params(src, []) == []


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
