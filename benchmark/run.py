"""qbound benchmark: time fixed, seeded workloads end to end, or per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload bidir-sweep --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all          # every workload in turn

Each run sets the workload up SETUP_REPS times (import of numpy, scipy and
qbound in a fresh interpreter, input generation from the seed, one small
warm-up call) and reports the median as setup_s. It then repeats passes
over the same items until the next pass would end after --seconds (always
at least one pass).
With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
untraced passes in the first half of the window and traced passes in the
second (at least one each), and prints the per-layer metrics.
Every item's values and checks are printed; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

An item fails (counted in "failed", and "correct" becomes false) when it
raises or misses a tolerance. pass_frac also counts an item that returned
converged=False as not passed.

Times are reported in reference-speed seconds (see SpeedProbe); the
measured seconds are printed next to them.
"""
import os

# The interior-point iteration count depends on the BLAS thread count, so
# it is pinned before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_s_p50": "s",
             "item_s_p90": "s", "pass_frac": "fraction", "peak_rss_mb": "MB"}


IMPORT = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, %r); "
          "import numpy, scipy, qbound")


def import_library():
    """Make qbound importable from the checkout's src/ and import it."""
    if not (SRC / "qbound" / "__init__.py").is_file():
        raise SystemExit("benchmark: qbound sources not found under %s" % SRC)
    sys.path.insert(0, str(SRC))
    # no bytecode cache, so every import compiles qbound the same way
    sys.dont_write_bytecode = True
    import qbound  # noqa: F401


def fresh_import():
    """Start a fresh interpreter that imports numpy, scipy and qbound, as a
    command-line call does."""
    subprocess.run([sys.executable, "-c", IMPORT % str(SRC)], check=True)


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (dep.get("name"), dep.get("version"))
        except (TypeError, KeyError):
            return "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "process_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


class Execution:
    """One run of one item: its time, printed values and check results."""

    def __init__(self, item, done):
        t0 = time.perf_counter()
        try:
            out = item.run()
            self.error = None
        except Exception as exc:  # a raising item is a failed item
            out, self.error = None, "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc()
        self.seconds = time.perf_counter() - t0
        self.values, self.checks, self.converged = {}, {}, False
        if self.error is None:
            try:
                self.values, self.checks, self.converged = \
                    item.check(out, done)
            except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                self.error = "check: %s: %s" % (type(exc).__name__, exc)
        self.failed = self.error is not None or not all(self.checks.values())
        self.passed = not self.failed and bool(self.converged)


class SpeedProbe:
    """Calibration of the host's speed during a run.

    The host this benchmark was built on (a 2-vCPU VM shared with other
    tenants) changes speed by up to 1.8x over tens of seconds. Over 30-s
    blocks of the same 4 minutes, the block medians of a bidir-sweep item,
    a dynamics-reading pass and a batch of LMO solves varied with a
    coefficient of variation of 8-10 %; their ratios to this kernel's block
    medians, 3-4 %. So between items, at most once a second, the probe
    times the kernel BURST times, and every time metric is reported in
    reference-speed seconds: measured seconds times
    NOMINAL_S / (median kernel time of the run). The kernel (tiny LAPACK
    calls and interpreter work, like most of qbound's time at these sizes)
    is part of the benchmark, so a change to qbound cannot move it.
    """
    NOMINAL_S = 0.0037
    EVERY_S = 1.0
    BURST = 5

    def __init__(self):
        import numpy as np
        sym = np.random.default_rng(0).standard_normal((8, 8))
        self._sym = sym + sym.T
        self._eigh = np.linalg.eigh
        self._last = -math.inf
        self.samples = []

    def _kernel(self):
        x = 0.0
        for _ in range(150):
            self._eigh(self._sym)
            for i in range(60):
                x += i * 0.5

    def sample(self):
        if time.perf_counter() - self._last < self.EVERY_S:
            return
        for _ in range(self.BURST):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def factor(self):
        return self.NOMINAL_S / statistics.median(self.samples)


def run_pass(items, probe=None):
    done = {}
    runs = []
    for item in items:
        if probe:
            probe.sample()
        ex = Execution(item, done)
        if ex.error is None:
            done[item.name] = ex.values
        runs.append(ex)
    if probe:
        probe.sample()
    return runs


def mean_wall(passes):
    return statistics.fmean(sum(ex.seconds for ex in p) for p in passes)


def run_passes(items, seconds, started, probe):
    """Repeat passes until the next one would end after `seconds`."""
    passes = []
    while True:
        runs = run_pass(items, probe)
        passes.append(runs)
        wall = sum(ex.seconds for ex in runs)
        if time.perf_counter() - started + wall > seconds:
            return passes


def p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def fmt(v):
    if isinstance(v, (list, tuple)):
        return "[%s]" % ",".join(fmt(x) for x in v)
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def report_items(name, items, passes):
    for i, item in enumerate(items):
        runs = [p[i] for p in passes]
        first = runs[0]
        bad = sorted({k for ex in runs for k, ok in ex.checks.items() if not ok})
        errors = sorted({ex.error for ex in runs if ex.error})
        line = "item %s %-42s %s  converged %d/%d  measured median %.4fs" % (
            name, item.name,
            "ok %d/%d" % (sum(not ex.failed for ex in runs), len(runs)),
            sum(bool(ex.converged) for ex in runs), len(runs),
            statistics.median(ex.seconds for ex in runs))
        line += "  " + " ".join("%s=%s" % (k, fmt(v))
                                for k, v in first.values.items())
        line += "  checks: " + (", ".join(first.checks) or "-")
        if bad:
            line += "  FAILED: " + ", ".join(bad)
        if errors:
            line += "  ERROR: " + "; ".join(errors)
        drift = [j for j, ex in enumerate(runs) if ex.values != first.values]
        if drift:
            line += "  values differ in passes %s" % drift
        print(line)


def setup(make_items, warmup, seed, probe):
    """Set up SETUP_REPS times: import in a fresh interpreter, build the
    items from the seed, make the warm-up call. Returns the items and the
    median set-up seconds."""
    import numpy as np
    times = []
    for _ in range(SETUP_REPS):
        probe.sample()
        t0 = time.perf_counter()
        fresh_import()
        items = make_items(np.random.default_rng(seed))
        warmup()
        times.append(time.perf_counter() - t0)
    return items, statistics.median(times)


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads
    make_items, warmup = workloads.WORKLOADS[name]
    probe = SpeedProbe()
    items, setup_s = setup(make_items, warmup, seed, probe)
    started = time.perf_counter()
    if trace:
        # untraced passes in the first half of the window, traced after
        untraced = run_passes(items, seconds / 2, started, probe)
        with tracing.Tracer() as tracer:
            traced = run_passes(items, seconds, started, probe)
        raw = tracer.metrics(len(traced), mean_wall(traced),
                             mean_wall(untraced))
        units = dict(tracing.METRICS)
        passes = untraced + traced
    else:
        passes = run_passes(items, seconds, started, probe)
        times = [ex.seconds for p in passes for ex in p]
        raw = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(ex.seconds for ex in p)
                                        for p in passes),
            "item_s_p50": statistics.median(times),
            "item_s_p90": p90(times),
            "pass_frac": sum(ex.passed for p in passes for ex in p)
            / len(times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    probe.sample()
    speed = probe.factor()
    metrics = {k: v * speed if units[k] == "s" else v for k, v in raw.items()}
    runs = [ex for p in passes for ex in p]
    report_items(name, items, passes)
    print("passes %s %d  measured pass walls %s" % (
        name, len(passes), " ".join("%.3f" % sum(ex.seconds for ex in p)
                                    for p in passes)))
    print("calibration %s %d samples, median %.6f s, nominal %.6f s: "
          "times below are measured seconds x %.4f"
          % (name, len(probe.samples), statistics.median(probe.samples),
             probe.NOMINAL_S, speed))
    for k, v in metrics.items():
        print("metric %s %s %s %s%s" % (
            name, k, fmt(v), units[k],
            "  (measured %s)" % fmt(raw[k]) if units[k] == "s" else ""))
    failed = sum(ex.failed for ex in runs)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="bidir-sweep, frank-wolfe, dynamics-reading or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_library()
    import workloads
    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        ap.error("unknown workload %r" % args.workload)
    print("# qbound benchmark workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    print("# environment " + json.dumps(environment()))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
