"""Command-line driver.

Named computations and parameter sweeps with CSV or JSON output, plus a
property-suite runner. Every sweep runs through _sweep: a start:end:count
grid (fractions such as 4/3 allowed) or one value, rows in grid order.
Outputs are deterministic for a fixed seed. Exit codes: 0 success, 2
argument error (a non-finite or out-of-range number included), 3 numerical
failure (diagnostic JSON on stderr).
"""
import argparse
import json
import math
import os
import sys
from fractions import Fraction

# One BLAS thread unless the caller sets a count: the thread count changes
# the last bits of some SDP results, and OpenBLAS reads it when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import dynamics, qcore, rains, reading  # noqa: E402
from . import infomeasures as im  # noqa: E402


def _num(s):
    """Locale-free finite scalar: plain float or a fraction like 4/3."""
    try:
        v = float(Fraction(s)) if "/" in s else float(s)
    except ArithmeticError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError("not a finite number: %r" % s)
    return v


def parse_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:end:count, got %r" % spec)
    start, end = _num(parts[0]), _num(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count == 1:
        return [start]
    return list(np.linspace(start, end, count))


def _fmt(x):
    """One CSV field; quoted as in RFC 4180 when it holds a comma, a double
    quote or a line break."""
    if isinstance(x, float):
        return "%.12g" % x
    s = str(x)
    if any(c in s for c in ',"\r\n'):
        return '"%s"' % s.replace('"', '""')
    return s


def emit(args, meta, columns, rows):
    """Write one table in the requested format, UTF-8, grid order."""
    if args.format == "csv":
        lines = ["# " + ",".join("%s=%s" % kv for kv in sorted(meta.items()))]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"meta": meta,
                   "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep(point, grid, value):
    """point's rows at each value of the start:end:count grid, or at value
    alone when no grid is given, in grid order."""
    return [point(x) for x in (parse_grid(grid) if grid else [value])]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rains_state(args):
    d = args.d
    if args.state == "max-ent":
        rho = qcore.max_ent_state(d)
    elif args.state == "isotropic":
        f = args.param
        # eigenvalues f + (1-f)/d^2 and (1-f)/d^2: PSD iff this holds
        if not (f <= 1 and f * (d * d - 1) >= -1):
            raise ValueError("--param of the isotropic state must lie in "
                             "[-1/(d^2-1), 1], got %r" % f)
        rho = f * qcore.max_ent_state(d) \
            + (1 - f) * np.eye(d * d, dtype=complex) / d ** 2
    elif args.state == "product":
        if d < 1:
            raise ValueError("--state product needs --d >= 1, got %d" % d)
        rho = np.eye(d * d, dtype=complex) / d ** 2
    else:
        raise ValueError("unknown state %r" % args.state)
    v, _ = rains.rmax_state(rho, (d, d), tol=args.tol)
    meta = {"quantity": "max_rains_state", "base": "bits",
            "tolerance": args.tol}
    emit(args, meta, ["state", "d", "value"], [[args.state, d, v]])
    return 0


def _named_channel(name, d, q, theta):
    if name in ("dephasing", "gadc") and d != 2:
        raise ValueError("channel %s is a qubit channel: --d must be 2, "
                         "got %d" % (name, d))
    if name == "identity":
        return qcore.identity_channel(d)
    if name == "depolarizing":
        return qcore.depolarizing(d, q)
    if name == "erasure":
        return qcore.erasure(d, q)
    if name == "dephasing":
        return qcore.dephasing(math.pi * q)
    if name == "gadc":
        return qcore.gadc(q, theta)
    raise ValueError("unknown channel %r" % name)


def _channel_command(quantity, base, value):
    """The command body of rains-channel and nonunitarity: value(channel,
    tol) of the named channel at each q."""
    def cmd(args):
        def point(q):
            ch = _named_channel(args.channel, args.d, q, args.theta)
            return [q, value(ch, args.tol)]

        rows = _sweep(point, args.q_grid, args.q)
        meta = {"quantity": quantity, "base": base, "tolerance": args.tol,
                "channel": args.channel}
        emit(args, meta, ["q", "value"], rows)
        return 0
    return cmd


cmd_rains_channel = _channel_command(
    "max_rains_channel", "bits",
    lambda ch, tol: rains.rmax_channel(ch, tol=tol)[0])
cmd_nonunitarity = _channel_command(
    "nonunitarity_diamond", "dimensionless",
    lambda ch, tol: dynamics.nonunitarity(ch, tol=tol))


def _bidir_channel(name, p, phi):
    if name == "swap":
        return qcore.partial_swap(0.0)
    if name == "identity":
        return qcore.BipartiteChannel(qcore.identity_channel(4),
                                      (2, 2), (2, 2))
    if name == "partial-swap":
        return qcore.partial_swap(p)
    if name == "swap-dephasing":
        return qcore.swap_then_collective_dephasing(p, phi)
    if name == "cnot":
        return qcore.cnot()
    raise ValueError("unknown bidirectional channel %r" % name)


def cmd_rains_bidir(args):
    def point(p):
        N = _bidir_channel(args.channel, p, args.phi)
        r = rains.rmax_bidirectional(N, tol=args.tol)
        return [p, r["value"], r["gap"]]

    rows = _sweep(point, args.p_grid, args.p)
    meta = {"quantity": "max_rains_bidirectional", "base": "bits",
            "tolerance": args.tol, "channel": args.channel}
    emit(args, meta, ["p", "value", "primal_dual_gap"], rows)
    return 0


def cmd_capacity(args):
    if args.cell == "thermal":
        Ns = [_num(s) for s in args.photons.split(",")]
        v = reading.thermal_cell_capacity(Ns)
        meta = {"quantity": "thermal_cell_capacity", "base": "bits",
                "tolerance": 1e-10}
        emit(args, meta, ["photons", "value"], [[args.photons, v]])
        return 0

    def point(q):
        ch = _named_channel(args.cell, args.d, q, args.theta)
        v = reading.covariant_cell_capacity(ch, qcore.hw_group(args.d))
        return [q, v]

    rows = _sweep(point, args.q_grid, args.q)
    meta = {"quantity": "covariant_cell_capacity", "base": "bits",
            "tolerance": 1e-10, "cell": args.cell}
    emit(args, meta, ["q", "value"], rows)
    return 0


def cmd_private_rate(args):
    d = args.d

    def point(q):
        cell = reading.hw_probe_cell(d=d, q=q)
        phi = qcore.max_ent_vector(d)
        p = np.full(len(cell), 1.0 / len(cell))
        rate = reading.private_reading_rate_n1(cell, p, phi)
        ci = reading.coherent_info_rate(cell, p, phi)
        return [q, rate, ci]

    rows = _sweep(point, args.q_grid, args.q)
    meta = {"quantity": "private_reading_rate_n1", "base": "bits",
            "tolerance": 1e-9}
    emit(args, meta, ["q", "rate", "coherent_info"], rows)
    return 0


def cmd_secure_read(args):
    # the q range of depolarizing(d, q = 1 - eta), or a GADC's eta in [0, 1]
    dep = args.kind == "depolarizing" and args.d >= 2
    top = args.d * args.d / (args.d * args.d - 1.0) if dep else 1.0
    for flag, eta in (("--eta0", args.eta0), ("--eta1", args.eta1)):
        if not (0 <= 1 - eta <= top if dep else 0 <= eta <= 1):
            raise ValueError("%s must lie in [%g, 1], got %g"
                             % (flag, 1 - top, eta))
    rep = reading.secure_reading_deltas(args.kind, args.q, args.N,
                                        args.eta0, args.eta1,
                                        d=args.d, theta=args.theta)
    meta = {"quantity": "secure_reading_deltas", "base": "bits",
            "tolerance": 1e-10, "kind": args.kind}
    emit(args, meta, ["D_I", "D_C", "N_D_I", "N_D_C"],
         [[rep["D_I"], rep["D_C"], rep["N_D_I"], rep["N_D_C"]]])
    return 0


def cmd_dynamics(args):
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    if args.t_max < 0:
        raise ValueError("--t-max must be >= 0")
    ts = list(np.linspace(0.0, args.t_max, args.steps + 1))
    if args.preset == "gadc":
        fam = dynamics.gadc_family(args.omega)
        rows = [[t, fam.f(t), fam.entropy_rate(t), fam.W(t)] for t in ts]
        cols = ["t", "witness_f", "entropy_rate", "population_gap"]
    elif args.preset in ("damping", "oscillatory"):
        traj = {"damping": dynamics.damping_trajectory,
                "oscillatory": dynamics.oscillatory_trajectory}[args.preset]
        rows = [[t, traj(t)[1]] for t in ts]
        cols = ["t", "entropy_rate"]
    else:
        raise ValueError("unknown preset %r" % args.preset)
    meta = {"quantity": "dynamics_" + args.preset, "base": "nats",
            "tolerance": 1e-9}
    emit(args, meta, cols, rows)
    return 0


def cmd_props(args):
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # data processing under a random channel
    ok = True
    for _ in range(10):
        rho = qcore.random_density(3, rng)
        sig = qcore.random_density(3, rng)
        ch = qcore.depolarizing(3, float(rng.uniform(0.1, 0.9)))
        d0 = im.relative_entropy(rho, sig)
        d1 = im.relative_entropy(ch.apply(rho.matrix), ch.apply(sig.matrix))
        ok &= d1 <= d0 + 1e-9
    record("data_processing_relative_entropy", ok)

    # entropy rate vs finite differences
    ok = True
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = dynamics.LindbladGenerator(np.zeros((2, 2)), [(1.0, A)])
    ts = np.linspace(0, 1, 6)
    traj = dynamics.evolve(gen, np.diag([0.3, 0.7]).astype(complex), ts)
    for t, r in zip(ts[1:], traj[1:]):
        num = dynamics.entropy_rate(r, gen.apply(t, r))
        rr = dynamics.evolve(gen, r, [t, t + 1e-6])[-1]
        fd = (im.entropy(rr, base="nats") - im.entropy(r, base="nats")) / 1e-6
        ok &= abs(fd - num) < 1e-4
    record("entropy_rate_finite_difference", ok)

    # zero-error certificate
    rep = reading.zero_error_certificate()
    record("zero_error_certificate", rep["ok"],
           "residual %.2e" % rep["identity_residual"])

    # erasure wiretap rate
    cell = reading.hw_probe_cell(d=2, q=0.25)
    phi = qcore.max_ent_vector(2)
    p = np.full(4, 0.25)
    rate = reading.private_reading_rate_n1(cell, p, phi)
    record("erasure_wiretap_rate", abs(rate - 1.5) < 1e-8,
           "rate %.12f" % rate)

    rows = [[name, "pass" if ok else "fail", detail]
            for name, ok, detail in checks]
    meta = {"quantity": "property_suite", "base": "boolean",
            "tolerance": "per-check", "seed": args.seed}
    emit(args, meta, ["check", "status", "detail"], rows)
    return 0 if all(ok for _, ok, _ in checks) else 3


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="qbound",
        description="Entanglement measures, reading capacities and "
                    "dynamics witnesses for small quantum systems.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="output file (default stdout)")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--seed", type=int, default=0)
    # the q sweep of a dimension-d channel or cell, and a named channel
    q_sweep = argparse.ArgumentParser(add_help=False)
    q_sweep.add_argument("--d", type=int, default=2)
    q_sweep.add_argument("--q", type=_num, default=0.0)
    q_sweep.add_argument("--q-grid")
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--channel", default="depolarizing")
    channel.add_argument("--theta", type=_num, default=0.5)
    channel.add_argument("--tol", type=_num, default=1e-8)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("rains-state", parents=[common],
                       help="max-Rains value of a named bipartite state; "
                            "CSV columns: state,d,value")
    s.add_argument("--state", default="max-ent",
                   choices=["max-ent", "isotropic", "product"])
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--param", type=_num, default=1.0)
    s.add_argument("--tol", type=_num, default=1e-8)
    s.set_defaults(func=cmd_rains_state)

    s = sub.add_parser("rains-channel", parents=[common, channel, q_sweep],
                       help="max-Rains information of a named channel; "
                            "CSV columns: q,value")
    s.set_defaults(func=cmd_rains_channel)

    s = sub.add_parser("rains-bidir", parents=[common],
                       help="bidirectional max-Rains information; CSV "
                            "columns: p,value,primal_dual_gap")
    s.add_argument("--channel", default="partial-swap",
                   choices=["swap", "identity", "partial-swap",
                            "swap-dephasing", "cnot"])
    s.add_argument("--p", type=_num, default=0.0)
    s.add_argument("--p-grid")
    s.add_argument("--phi", type=_num, default=math.pi)
    s.add_argument("--tol", type=_num, default=1e-9)
    s.set_defaults(func=cmd_rains_bidir)

    s = sub.add_parser("capacity", parents=[common, q_sweep],
                       help="reading capacity of a named cell; CSV "
                            "columns: q,value (thermal: photons,value)")
    s.add_argument("--cell", default="erasure",
                   choices=["erasure", "depolarizing", "identity",
                            "thermal"])
    s.add_argument("--theta", type=_num, default=0.5)
    s.add_argument("--photons", default="0,1",
                   help="comma-separated mean photon numbers")
    s.set_defaults(func=cmd_capacity)

    s = sub.add_parser("private-rate", parents=[common, q_sweep],
                       help="private reading rate of the erasure wiretap "
                            "cell; CSV columns: q,rate,coherent_info")
    s.set_defaults(func=cmd_private_rate)

    s = sub.add_parser("secure-read", parents=[common],
                       help="per-site security parameters; CSV columns: "
                            "D_I,D_C,N_D_I,N_D_C")
    s.add_argument("--kind", choices=["depolarizing", "gadc"],
                   default="depolarizing")
    s.add_argument("--q", type=_num, default=0.005)
    s.add_argument("--N", type=int, default=1000)
    s.add_argument("--eta0", type=_num, default=0.8)
    s.add_argument("--eta1", type=_num, default=0.7)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--theta", type=_num, default=0.5)
    s.set_defaults(func=cmd_secure_read)

    s = sub.add_parser("dynamics", parents=[common],
                       help="witness/entropy-rate traces for analytic "
                            "families; CSV columns depend on preset")
    s.add_argument("--preset", choices=["gadc", "damping", "oscillatory"],
                   default="gadc")
    s.add_argument("--omega", type=_num, default=5.0)
    s.add_argument("--t-max", type=_num, default=5.0)
    s.add_argument("--steps", type=int, default=200)
    s.set_defaults(func=cmd_dynamics)

    s = sub.add_parser("nonunitarity", parents=[common, channel, q_sweep],
                       help="diamond-norm nonunitarity sweep; CSV "
                            "columns: q,value")
    s.set_defaults(func=cmd_nonunitarity)

    s = sub.add_parser("props", parents=[common], help="run the quick property suite; CSV "
                                     "columns: check,status,detail")
    s.set_defaults(func=cmd_props)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:
        parser.exit(2, "argument error: %s\n" % e)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        diag = {"error": "numerical_failure", "detail": str(e),
                "subcommand": args.cmd}
        sys.stderr.write(json.dumps(diag) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
