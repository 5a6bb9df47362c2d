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
