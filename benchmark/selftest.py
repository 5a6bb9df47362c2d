"""Self-test of the benchmark itself.

    python3 benchmark/selftest.py [workload ...]

For each workload (all by default) it
- builds the inputs twice from one seed and checks they are identical, and
  once from a second seed and checks they have the same items, names and
  shapes but other values;
- runs one traced pass twice on the first seed's inputs and checks that
  every count (sdp.iterations, rains.lmo_calls, rains.fw_iterations,
  dynamics.generator_applies and the other per-layer counts) repeats
  exactly at the pinned BLAS thread count, and that the traced self times
  plus the untraced remainder add up to the pass wall time.
It also checks that BENCHMARK.json names exactly the workloads and metrics
the benchmark prints. Exits 1 if any check fails.
"""
import json
import sys

import run  # pins the BLAS threads before numpy is imported

SEEDS = (7, 8)


def shapes(inputs):
    return {k: [a.shape for a in v] if isinstance(v, list) else v.shape
            for k, v in inputs.items()}


def same_inputs(a, b):
    import numpy as np
    return all(
        all(np.array_equal(x, y) for x, y in zip(a[k], b[k]))
        if isinstance(a[k], list) else np.array_equal(a[k], b[k])
        for k in a)


def check_inputs(name, make_items, fail):
    import numpy as np
    first, again, other = (make_items(np.random.default_rng(s))
                           for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
    names = [it.name for it in first]
    if [it.name for it in again] != names or [it.name for it in other] != names:
        fail(name, "item names depend on the seed")
    for a, b, c in zip(first, again, other):
        if not same_inputs(a.inputs, b.inputs):
            fail(name, "%s: one seed gave two inputs" % a.name)
        if shapes(a.inputs) != shapes(c.inputs):
            fail(name, "%s: input shapes depend on the seed" % a.name)
    if any(a.inputs for a in first) and all(
            same_inputs(a.inputs, c.inputs) for a, c in zip(first, other)):
        fail(name, "the second seed gave the same inputs")
    return first


def traced_pass(items):
    import tracing
    with tracing.Tracer() as tracer:
        runs = run.run_pass(items)
    wall = sum(ex.seconds for ex in runs)
    return runs, tracer.metrics(1, wall, wall)


def check_counts(name, items, fail):
    import tracing
    counts = [n for n, unit in tracing.METRICS if unit == "count"]
    (runs, m1), (_, m2) = traced_pass(items), traced_pass(items)
    if any(ex.failed for ex in runs):
        fail(name, "failed items: %s"
             % [it.name for it, ex in zip(items, runs) if ex.failed])
    for k in counts:
        if m1[k] != m2[k]:
            fail(name, "%s differs between runs: %s vs %s" % (k, m1[k], m2[k]))
    parts = sum(m1["%s.self_s" % layer] for layer in tracing.LAYERS) \
        + m1["trace.untraced_s"]
    if abs(parts - m1["trace.wall_s"]) > 1e-9 * max(1.0, m1["trace.wall_s"]):
        fail(name, "self times + untraced %.9f != wall %.9f"
             % (parts, m1["trace.wall_s"]))
    print("selftest %s: counts repeat: %s" % (name, ", ".join(
        "%s=%g" % (k, m1[k]) for k in ("sdp.iterations", "rains.lmo_calls",
                                       "rains.fw_iterations",
                                       "dynamics.generator_applies"))))


def check_benchmark_json(fail):
    import tracing
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json", "workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.E2E_UNITS:
        fail("BENCHMARK.json", "end_to_end metrics differ from run.E2E_UNITS")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.METRICS:
        fail("BENCHMARK.json", "per_layer metrics differ from tracing.METRICS")


def main(argv):
    run.import_library()
    import workloads
    failures = []

    def fail(where, msg):
        failures.append("%s: %s" % (where, msg))
        print("selftest FAILED %s: %s" % (where, msg))

    check_benchmark_json(fail)
    for name in argv or list(workloads.WORKLOADS):
        make_items, warmup = workloads.WORKLOADS[name]
        items = check_inputs(name, make_items, fail)
        warmup()
        check_counts(name, items, fail)
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
