"""Per-layer tracing from outside the program.

The tracer replaces module attributes of the qbound package with wrappers
that time each call (a span) and restores them afterwards; nothing in the
library changes. Spans nest through a stack: a span's self time is its
duration minus the durations of the spans it encloses, so the self times
of all spans plus the time spent outside any span add up to the pass.

Three facts about the library decide how the wrappers are installed:
- rains, dynamics and reading import choi_of, relative_entropy,
  mutual_information and others by name, so every module attribute that
  holds the original function is replaced, not only the defining one.
- A complex sdp.solve calls itself once on the real embedding. Only the
  outer call counts as a solve; the inner one is recorded as its child
  span "sdp.solve_embedded".
- Model.solve and _frank_wolfe look up sdp.solve and rains.ppt_prime_lmo
  at call time, so replacing the module attributes catches those calls.

Spans are aggregated in memory (calls, inclusive and self seconds per span
name) instead of being kept one by one: the frank-wolfe workload makes
about 45,000 partial-transpose calls per pass.
"""
import functools
import time
from collections import Counter, defaultdict

from qbound import dynamics, infomeasures, linalg, qcore, rains, reading, sdp

MODULES = (linalg, sdp, qcore, infomeasures, rains, dynamics, reading)
LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in MODULES)

# (owner, attribute, span name); owners are modules or classes.
SPANNED = [
    (linalg, "partial_transpose", "linalg.partial_transpose"),
    (linalg, "partial_trace", "linalg.partial_trace"),
    (linalg, "permute_systems", "linalg.permute_systems"),
    (linalg, "eigh", "linalg.eigh"),
    (linalg, "matrix_fn_on_support", "linalg.matrix_fn_on_support"),
    (sdp, "solve", "sdp.solve"),
    (sdp.Model, "compile", "sdp.compile"),
    (qcore, "choi_of", "qcore.choi_of"),
    (infomeasures, "relative_entropy", "infomeasures.relative_entropy"),
    (infomeasures, "mutual_information", "infomeasures.mutual_information"),
    (rains, "rmax_bidirectional", "rains.rmax_bidirectional"),
    (rains, "rmax_state", "rains.rmax_state"),
    (rains, "rains_relative_entropy", "rains.rains_relative_entropy"),
    (rains, "sandwiched_rains", "rains.sandwiched_rains"),
    (rains, "ppt_prime_lmo", "rains.ppt_prime_lmo"),
    (rains, "_frank_wolfe", "rains.frank_wolfe"),
    (dynamics, "evolve", "dynamics.evolve"),
    (dynamics, "witness_f", "dynamics.witness_f"),
    (dynamics, "nonmarkov_measure", "dynamics.nonmarkov_measure"),
    (dynamics, "entropy_change_bounds", "dynamics.entropy_change_bounds"),
    (reading, "renyi_mutual_information", "reading.renyi_mutual_information"),
    (reading, "blahut_arimoto", "reading.blahut_arimoto"),
    (reading, "thermal_cell_capacity", "reading.thermal_cell_capacity"),
    (reading, "second_order_bound", "reading.second_order_bound"),
    (reading, "private_reading_rate_n1", "reading.private_reading_rate_n1"),
    (reading, "coherent_info_rate", "reading.coherent_info_rate"),
]
# Counted but not timed: about 30,000 calls per dynamics-reading pass, each
# a few small matrix products, so a span would mostly time itself.
COUNTED = [(dynamics.LindbladGenerator, "apply", "generator_applies")]

LINALG_FNS = ("partial_transpose", "partial_trace", "permute_systems",
              "eigh", "matrix_fn_on_support")

# Every per-layer metric: (name, unit). All are per pass; lower is better.
# "_s" is inclusive time, "self_s" excludes enclosed spans.
METRICS = [
    ("sdp.solve_s", "s"), ("sdp.solve_calls", "count"),
    ("sdp.iterations", "count"), ("sdp.s_per_iteration", "s"),
    ("sdp.numerical_limit", "count"), ("sdp.max_iter_hits", "count"),
    ("sdp.stalled_iteration_share", "fraction"),
    ("sdp.compile_s", "s"), ("sdp.compile_calls", "count"),
    ("sdp.constraints", "count"), ("sdp.block_dim", "count"),
    ("rains.lmo_calls", "count"), ("rains.lmo_s", "s"),
    ("rains.fw_iterations", "count"), ("rains.fw_self_s", "s"),
    ("rains.fw_unconverged", "count"),
    ("reading.renyi_iterations", "count"), ("reading.renyi_s", "s"),
    ("reading.blahut_arimoto_iterations", "count"),
    ("reading.blahut_arimoto_s", "s"),
    ("dynamics.evolve_s", "s"), ("dynamics.generator_applies", "count"),
    ("dynamics.witness_f_s", "s"),
] + [("linalg.%s_%s" % (fn, kind), unit) for fn in LINALG_FNS
     for kind, unit in (("calls", "count"), ("s", "s"))] + [
    ("infomeasures.relative_entropy_calls", "count"),
    ("infomeasures.relative_entropy_s", "s"),
    ("infomeasures.mutual_information_calls", "count"),
    ("infomeasures.mutual_information_s", "s"),
    ("qcore.choi_of_calls", "count"), ("qcore.choi_of_s", "s"),
] + [("%s.self_s" % layer, "s") for layer in LAYERS] + [
    ("trace.untraced_s", "s"), ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Aggregated spans and counters for the calls made while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.top_s = 0.0
        self._stack = []
        self._undo = []

    def __enter__(self):
        """Install the wrappers."""
        for owner, attr, name in SPANNED:
            hook = _HOOKS.get(name)
            self._replace(owner, attr, lambda fn, name=name, hook=hook:
                          self._span(name, fn, hook))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, lambda fn, name=name:
                          self._counter(name, fn))
        return self

    def __exit__(self, *exc):
        """Restore the original functions."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _replace(self, owner, attr, make):
        fn = getattr(owner, attr)
        wrapped = make(fn)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [(m, k) for m in MODULES for k, v in vars(m).items()
                      if v is fn]
        for m, k in owners:
            self._undo.append((m, k, fn))
            setattr(m, k, wrapped)

    def _span(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = name == "sdp.solve" and stack and stack[-1][0] == name
            span = ["sdp.solve_embedded" if inner else name, 0.0]
            stack.append(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
                self.calls[span[0]] += 1
                self.total_s[span[0]] += dt
                self.self_s[span[0]] += dt - span[1]
            if hook is not None and not inner:
                hook(self.counts, out, args, kwargs)
            return out
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def metrics(self, passes, wall_s, untraced_wall_s):
        """Per-pass layer metrics for `passes` traced passes of mean wall
        time wall_s; untraced_wall_s is the mean pass without tracing."""
        c, t, s = self.counts, self.total_s, self.self_s
        its = c["sdp.iterations"]
        m = {
            "sdp.solve_s": t["sdp.solve"],
            "sdp.solve_calls": self.calls["sdp.solve"],
            "sdp.iterations": its,
            "sdp.numerical_limit": c["sdp.numerical_limit"],
            "sdp.max_iter_hits": c["sdp.max_iter_hits"],
            "sdp.compile_s": t["sdp.compile"],
            "sdp.compile_calls": self.calls["sdp.compile"],
            "sdp.constraints": c["sdp.constraints"],
            "sdp.block_dim": c["sdp.block_dim"],
            "rains.lmo_calls": self.calls["rains.ppt_prime_lmo"],
            "rains.lmo_s": t["rains.ppt_prime_lmo"],
            "rains.fw_iterations": c["rains.fw_iterations"],
            "rains.fw_self_s": s["rains.frank_wolfe"],
            "rains.fw_unconverged": c["rains.fw_unconverged"],
            "reading.renyi_iterations": c["reading.renyi_iterations"],
            "reading.renyi_s": t["reading.renyi_mutual_information"],
            "reading.blahut_arimoto_iterations":
                c["reading.blahut_arimoto_iterations"],
            "reading.blahut_arimoto_s": t["reading.blahut_arimoto"],
            "dynamics.evolve_s": t["dynamics.evolve"],
            "dynamics.generator_applies": c["generator_applies"],
            "dynamics.witness_f_s": t["dynamics.witness_f"],
        }
        for fn in tuple("linalg." + f for f in LINALG_FNS) + (
                "infomeasures.relative_entropy",
                "infomeasures.mutual_information", "qcore.choi_of"):
            m[fn + "_calls"] = self.calls[fn]
            m[fn + "_s"] = t[fn]
        for layer in LAYERS:
            m[layer + ".self_s"] = sum(v for k, v in s.items()
                                       if k.split(".")[0] == layer)
        m = {k: v / passes for k, v in m.items()}
        # ratios of per-pass totals, so they need no division by passes
        m["sdp.s_per_iteration"] = t["sdp.solve"] / its if its else 0.0
        m["sdp.stalled_iteration_share"] = \
            c["sdp.stalled_iterations"] / its if its else 0.0
        m["trace.untraced_s"] = wall_s - self.top_s / passes
        m["trace.wall_s"] = wall_s
        m["trace.overhead_s"] = wall_s - untraced_wall_s
        return {name: m[name] for name, _ in METRICS}


def _solve_hook(counts, sol, args, kwargs):
    p = args[0]
    max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else sdp.MAX_ITER)
    counts["sdp.iterations"] += sol.iterations
    counts["sdp.constraints"] += len(p.A)
    counts["sdp.block_dim"] += sum(p.blocks)
    if sol.status == "numerical_limit":
        counts["sdp.numerical_limit"] += 1
        counts["sdp.stalled_iterations"] += sol.iterations
        if sol.iterations >= max_iter:
            counts["sdp.max_iter_hits"] += 1


def _frank_wolfe_hook(counts, out, args, kwargs):
    _, _, iterations, converged = out
    counts["rains.fw_iterations"] += iterations
    counts["rains.fw_unconverged"] += not converged


def _iterations_hook(key):
    def hook(counts, out, args, kwargs):
        counts[key] += out["iterations"]
    return hook


_HOOKS = {
    "sdp.solve": _solve_hook,
    "rains.frank_wolfe": _frank_wolfe_hook,
    "reading.renyi_mutual_information":
        _iterations_hook("reading.renyi_iterations"),
    "reading.blahut_arimoto":
        _iterations_hook("reading.blahut_arimoto_iterations"),
}
