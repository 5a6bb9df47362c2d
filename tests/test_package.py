import ast
import importlib.util
import pathlib

import pytest

import qbound
from conftest import fresh_python

ROOT = pathlib.Path(__file__).resolve().parents[1]


def fresh(code, **env):
    return fresh_python("-c", code, **env).decode().strip()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats doubles the import time of the package and of every
    # command-line call; nothing in qbound needs it
    assert fresh("import sys, qbound; print('scipy.stats' in sys.modules)") \
        == "False"


def test_import_package_loads_no_submodule():
    assert fresh("import sys, qbound; print(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('qbound.')))") == "[]"


def test_cli_import_loads_no_scipy_submodule():
    # each scipy submodule loads in the one function that uses it, so a
    # command pays only for what it runs
    assert fresh("import sys, qbound.cli; print(sorted(m for m in "
                 "('scipy.linalg', 'scipy.special', 'scipy.optimize', "
                 "'scipy.sparse', 'scipy.stats') if m in sys.modules))") \
        == "[]"


def test_infomeasures_loads_no_qcore():
    # the one coercion helper, as_matrix, lives in linalg
    assert fresh("import sys, qbound.infomeasures; "
                 "print('qbound.qcore' in sys.modules)") == "False"


def test_submodules_load_on_first_access():
    assert fresh("import sys, qbound; print('qbound.rains' in sys.modules, "
                 "qbound.rains.__name__, 'qbound.rains' in sys.modules)") \
        == "False qbound.rains True"
    with pytest.raises(AttributeError, match="nosuch"):
        qbound.nosuch


def test_only_cli_pins_blas_threads():
    # the library leaves the BLAS environment alone; the CLI sets one thread
    # when it is unset and keeps an explicit count
    code = ("import os, qbound\n"
            "for name in qbound.__all__: getattr(qbound, name)\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "import qbound.cli\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert fresh(code).split() == ["None", "1"]
    assert fresh(code, OPENBLAS_NUM_THREADS="2").split() == ["2", "2"]


def test_benchmark_tracer_names_exist():
    # the benchmark's tracer replaces these attributes by name; a rename or
    # deletion in the library would otherwise surface only under --trace 1
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(owner, attr) for owner, attr, _ in
             tracing.SPANNED + tracing.COUNTED]
    assert names
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in names if not hasattr(owner, attr)]
    assert missing == []


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) for each defaulted
    parameter of a function, method or class constructor in tree. A
    constructor is called by its class's name, and a method's positional
    indices skip self."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                pos = a.posonlyargs + a.args
                skip = int(cls is not None and not any(
                    _callee(d) == "staticmethod" for d in child.decorator_list))
                name = cls if cls and child.name == "__init__" else child.name
                first = len(pos) - len(a.defaults)
                out.extend((name, p.arg, i - skip)
                           for i, p in enumerate(pos[first:], start=first))
                out.extend((name, p.arg, None) for p, dflt
                           in zip(a.kwonlyargs, a.kw_defaults) if dflt is not None)
                visit(child, None)
            else:
                visit(child, cls)
    visit(tree, None)
    return out


def test_every_defaulted_parameter_is_set_somewhere():
    # A default that no call in src/, tests/ or benchmark/ overrides is a
    # constant, not an option. Calls are matched by callee name alone, so
    # any same-named call counts as a setter: Model.solve and sdp.solve are
    # one name here, and a test that sets a parameter keeps it. A call with
    # *args or **kwargs sets every parameter of its callee's name, and
    # functools.partial(f, ...) counts as a call of f.
    files = [p for d in ("src", "tests", "benchmark")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    n_pos, keywords = {}, {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name, args = _callee(call.func), call.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            star = (any(isinstance(x, ast.Starred) for x in args)
                    or any(k.arg is None for k in call.keywords))
            n_pos[name] = max(n_pos.get(name, 0),
                              float("inf") if star else len(args))
            keywords.setdefault(name, set()).update(
                k.arg for k in call.keywords)
    unset = ["%s:%s(%s)" % (p.name, name, param)
             for p in files if p.parts[-3:-1] == ("src", "qbound")
             for name, param, i in _defaulted_parameters(trees[p])
             if param not in keywords.get(name, ())
             and not (i is not None and i < n_pos.get(name, 0))]
    assert unset == []
