"""Every public name under src/qpspec has a caller, every function runs,
every defaulted parameter is passed and varies, every key of the CLI's
config table is read, every name the benchmark's tracer binds exists,
only dual_operator, for LAPACK heevr, imports scipy: on the oracle's first
call, never at module level, and every except clause names the types it
catches, none of them Exception or BaseException.

A function, class, method, property or option that only tests use is dead
weight: it is named or set somewhere in the package outside its own
definition, or in the benchmark harness (bench/*.py), or it goes.  Five
guards check that:

- every public module-level name is named by a caller: by a bare name in
  its own module, elsewhere by an import or an attribute read;
- every public method and property of a public class is read as an
  attribute (`.name`) by a caller, the tracer's METHODS table counting as
  one; a bare variable of the same name does not count;
- every def under src/qpspec, private, nested and dunder ones too, is
  called while a fresh interpreter replays the package's real traffic
  under sys.setprofile: every CLI command on every committed config, one
  config error, and unit 0 of each benchmark workload at seed 1;
- every defaulted parameter of a public function or method is passed by
  some call;
- no such parameter is passed by every call with the same literal, which
  makes it a constant in disguise.

Static calls are matched by name only, so a parameter counts as passed when
any call of that name could set it.  Each guard is a function of its
sources, so the guards can be checked on planted sources too, and an
ALLOWED entry that no guard flags any more fails as stale.
"""

import ast
import importlib
import json
import subprocess
import sys
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
    # Unrun: only bench/tracing.py names them, and a traced run needs them
    # to exist (test_every_traced_name_resolves).  ROADMAP item 6 moves the
    # tracer onto counters and retires them.
    "GeometryBuilder.admissible_k",
    "interval",
    "ResonanceInterval.contains",
}


def _refs(tree) -> Counter:
    """How often a tree imports each identifier or reads it as an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _names(tree) -> Counter:
    """How often a tree uses each bare name."""
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


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
    own definition.  A bare name counts in the defining module only;
    elsewhere the name must be imported or read as an attribute, so that a
    local variable of the same name is no caller."""
    imported = sum(map(_refs, src + bench), Counter())
    out = []
    for tree in src:
        named = imported + _names(tree)
        out += [node.name for node in _definitions(tree)
                if named[node.name] <= (_refs(node) + _names(node))[node.name]]
    return out


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


# Runs `traffic` (argv[1]) under a profiler, with argv[2:] put first on
# sys.path, and prints the (file, first line) of every code object that ran.
# A decorated def's code starts at its first decorator.
PROFILER = textwrap.dedent('''
    import contextlib, io, json, sys
    sys.path[:0] = sys.argv[2:]
    seen = set()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exec(sys.argv[1], {})
    sys.setprofile(None)
    print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in seen})))
''')

# The package's real traffic: every CLI command on every committed config,
# the config error path, and unit 0 of each benchmark workload at seed 1.
TRAFFIC = textwrap.dedent(f'''
    import tempfile
    from pathlib import Path
    from qpspec import cli
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as out:
        for config in sorted(Path({str(ROOT / "examples_config")!r}).glob("*.json")):
            for command in cli.COMMANDS:
                cli.main([command, "--config", str(config), "--out", out])
        cli.main(["validate", "--config", str(Path(out) / "missing.json")])
    for workload in WORKLOADS.values():
        for step in workload(1).unit(0):
            step.check(step.summarize(step.run()))
''')


def _defs(node, prefix=""):
    """(qualified name, first line) of every def under `node`, methods and
    nested defs too; a decorated def starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _defs(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def unrun_functions(files, traffic, path) -> list:
    """The qualified name of each def in `files` that no call reaches while
    a fresh interpreter runs `traffic` with `path` first on sys.path."""
    proc = subprocess.run([sys.executable, "-c", PROFILER, traffic, *map(str, path)],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, f"traffic failed:\n{proc.stderr}"
    ran = {(str(Path(file).resolve()), line) for file, line in json.loads(proc.stdout)}
    return [name for file in files
            for name, line in _defs(ast.parse(file.read_text()))
            if (str(file.resolve()), line) not in ran]


@lru_cache(maxsize=None)
def _unrun() -> tuple:
    # a fresh interpreter: caches that earlier tests filled would hide calls
    return tuple(unrun_functions(sorted(SRC.glob("*.py")), TRAFFIC, [ROOT / "src", BENCH]))


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


def test_every_function_runs_under_a_command_or_a_workload():
    unrun = sorted(set(_unrun()) - ALLOWED)
    assert not unrun, f"run by no CLI command and no workload: {unrun}"


def test_every_allowed_entry_is_still_flagged():
    src, bench, traced = _package()
    flagged = (set(uncalled_names(src, bench)) | set(uncalled_methods(src, bench, traced))
               | set(unpassed_params(src, bench)) | set(one_literal_params(src, bench))
               | set(_unrun()))
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


# Two planted modules for uncalled_names: a name may be called by a bare
# name inside its own module, elsewhere only by an import or an attribute.
PLANTED_DEFINER = textwrap.dedent('''
    def helper():
        return 1


    def imported():
        return helper()


    def read():
        return 2


    def shielded():
        return 3
''')

PLANTED_USER = textwrap.dedent('''
    import definer
    from definer import imported


    def entry(shielded):
        return imported() + definer.read() + shielded
''')


def test_name_guard_flags_planted_cases():
    src = [ast.parse(PLANTED_DEFINER), ast.parse(PLANTED_USER)]
    # a parameter named shielded in another module does not call it
    assert uncalled_names(src, []) == ["shielded", "entry"]


PLANTED_RUN = textwrap.dedent('''
    import functools


    def called():
        def inner_called():
            return 1

        def inner_uncalled():
            return 2

        return inner_called()


    def uncalled():
        return 0


    @functools.lru_cache(maxsize=None)
    def cached_called(x):
        return x


    @functools.lru_cache(maxsize=None)
    def cached_uncalled(x):
        return x


    class Box:
        @property
        def called(self):
            return called()

        def uncalled(self):
            return 0
''')


def test_runtime_guard_flags_planted_cases(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(PLANTED_RUN)
    traffic = "import planted\nplanted.Box().called\nplanted.cached_called(1)\n"
    # a decorated def is matched on its first decorator's line, where its
    # code starts
    assert unrun_functions([module], traffic, [tmp_path]) == [
        "called.<locals>.inner_uncalled", "uncalled", "cached_uncalled", "Box.uncalled"]


def scipy_imports(files) -> list:
    """(stem, scope) for each import of scipy or a submodule in `files`:
    scope is the name of the innermost def around it, None at module level
    (inside an if, a try or a class body too: those run on import)."""
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"

    def visit(node, scope):
        if imports_scipy(node):
            yield scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return [(file.stem, scope) for file in files
            for scope in visit(ast.parse(file.read_text()), None)]


def test_only_the_oracle_imports_scipy():
    # scipy is imported only inside dual_operator's _lapack, on the oracle's
    # first call, so a process that never calls the oracle never loads it;
    # every other module runs on numpy alone, so no second LAPACK path, and
    # no module-level scipy import, comes back unnoticed
    assert scipy_imports(sorted(SRC.glob("*.py"))) == [("dual_operator", "_lapack")]


def test_scipy_guard_flags_planted_cases(tmp_path):
    planted = {"plain": "import scipy\n", "dotted": "import numpy, scipy.linalg as sla\n",
               "guarded": "try:\n    from scipy import linalg\nexcept ImportError:\n    pass\n",
               "in_class": "class C:\n    import scipy.linalg\n",
               "lazy": "def f():\n    from scipy.linalg import lu_factor\n",
               "nested": "class C:\n    def m(self):\n        def g():\n"
                         "            import scipy\n",
               "clean": "import numpy\nfrom .scipyish import x\n"}
    for stem, text in planted.items():
        (tmp_path / f"{stem}.py").write_text(text)
    files = [tmp_path / f"{stem}.py" for stem in planted]
    assert scipy_imports(files) == [("plain", None), ("dotted", None), ("guarded", None),
                                    ("in_class", None), ("lazy", "f"), ("nested", "g")]


BROAD = {"Exception", "BaseException"}


def broad_handlers(files) -> list:
    """(stem, line) for each except clause in `files` that names no type (a
    bare except:) or names Exception or BaseException, alone, dotted or in
    a tuple."""
    def broad(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name in BROAD

    out = []
    for file in files:
        for node in ast.walk(ast.parse(file.read_text())):
            if isinstance(node, ast.ExceptHandler):
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if node.type is None or any(map(broad, types)):
                    out.append((file.stem, node.lineno))
    return out


def test_no_except_clause_swallows_every_error():
    # a failure is a typed QPSpecError or a named library error; a broad
    # handler would turn a defect into a row, a check result or an exit code
    assert broad_handlers(sorted(SRC.glob("*.py"))) == []


def test_except_guard_flags_planted_cases(tmp_path):
    planted = {"bare": "try:\n    f()\nexcept:\n    pass\n",
               "plain": "try:\n    f()\nexcept Exception as exc:\n    raise\n",
               "tupled": "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n",
               "dotted": "import builtins\ntry:\n    f()\nexcept builtins.Exception:\n    pass\n",
               "nested": "def g():\n    try:\n        f()\n    except KeyError:\n        pass\n"
                         "    except Exception:\n        pass\n",
               "clean": "ERRORS = (OSError,)\ntry:\n    f()\nexcept (KeyError, ValueError):\n"
                        "    pass\nexcept ERRORS:\n    pass\nexcept errors.QPSpecError:\n    pass\n"}
    for stem, text in planted.items():
        (tmp_path / f"{stem}.py").write_text(text)
    files = [tmp_path / f"{stem}.py" for stem in planted]
    assert broad_handlers(files) == [("bare", 3), ("plain", 3), ("tupled", 3), ("dotted", 4),
                                     ("nested", 6)]


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

