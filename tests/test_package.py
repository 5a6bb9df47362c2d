import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats doubles the import time of the package and of every
    # command-line call; nothing in qbound needs it
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qbound; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
