"""Benchmark workloads: seeded inputs, the library calls timed on them and
the checks on every result.

A workload turns a seed into a fixed list of items. One item is one sweep
point or one optimizer call (a few very cheap calls are batched into one
item so that no item is only microseconds long). Running every item once
is one pass. Library functions receive only the generated inputs; the seed
itself never reaches them.

Tolerances are copied from the repository's tests (acceptance criteria 4
and 9, test_rains, test_reading, test_dynamics); each check names the test
it comes from in README.md.
"""
import math

import numpy as np
from scipy.optimize import minimize_scalar

from qbound import dynamics, infomeasures, qcore, rains, reading


class Item:
    """One timed library call and the checks on its result.

    run() makes the call. check(out, done) returns (values, checks,
    converged): the numbers to print, a dict of named tolerance checks
    (True when met) and the convergence flag the call reported. `done`
    maps the names of the items already run in this pass to their values,
    for checks that compare items (monotone curve, orderings).
    `inputs` holds the generated arrays, for the self-test.
    """

    def __init__(self, name, run, check, inputs=None):
        self.name = name
        self.run = run
        self.check = check
        self.inputs = inputs or {}


def haar_unitary(d, rng):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_channel(din, dout, env, rng):
    """Channel from a Haar-random Stinespring isometry."""
    A = rng.standard_normal((dout * env, din)) \
        + 1j * rng.standard_normal((dout * env, din))
    Q, R = np.linalg.qr(A)
    V = Q * (np.diag(R) / np.abs(np.diag(R)))
    return qcore.KrausChannel([V.reshape(dout, env, din)[:, e, :]
                               for e in range(env)])


def bloch_ensemble(m, U):
    """m qubit states rotated by U; state j has Bloch vector length
    0.9 - 0.1 j at azimuth 2 pi j / m in the equatorial plane."""
    states = []
    for j in range(m):
        r, phi = 0.9 - 0.1 * j, 2 * math.pi * j / m
        bloch = np.array([[1, r * np.exp(-1j * phi)],
                          [r * np.exp(1j * phi), 1]]) / 2
        states.append(U @ bloch @ U.conj().T)
    return states


# ---------------------------------------------------------------------------
# bidir-sweep: few, large SDPs
# ---------------------------------------------------------------------------

# Every 5th point of the criterion-4 grid np.linspace(0, 1, 21), i.e.
# p = 0, 0.25, 0.5, 0.75, 1. The stride is fixed so one pass fits the run.
GRID = np.linspace(0.0, 1.0, 21)
GRID_STRIDE = 5
# Two Haar-random two-qubit unitaries, drawn once from a fixed generator and
# not from the run's seed: they run the same SDP path as the grid but have
# no symmetry to reduce by. Whether such a solve stalls, and then runs up to
# max_iter IPM iterations, depends on rounding: with seeded draws a pass
# took 24-43 s over 10 seeds, too wide a spread for the wall_s bound. So
# bidir-sweep does not depend on the seed at all.
N_GENERIC = 2
GENERIC_DRAW_SEED = 0


def _bidir_check(extra=None, prev=None):
    def check(out, done):
        v = out["value"]
        values = {"value": v, "gamma_primal": out["gamma_primal"],
                  "gamma_dual": out["gamma_dual"], "gap": out["gap"]}
        checks = {"gap<=1e-6": out["gap"] <= 1e-6}
        if extra:
            checks.update(extra(v))
        if prev is not None:
            checks["monotone"] = v <= done[prev]["value"] + 1e-6
        return values, checks, True
    return check


def bidir_items(rng):
    """The seed is unused; see N_GENERIC."""
    items = []
    prev = None
    for p in GRID[::GRID_STRIDE]:
        p = float(p)
        extra = None
        if p == 0.0:
            extra = lambda v: {"|v-2|<=1e-4": abs(v - 2.0) <= 1e-4}
        elif p == 1.0:
            extra = lambda v: {"|v|<=1e-4": abs(v) <= 1e-4}
        name = "partial_swap[p=%.2f]" % p
        items.append(Item(
            name, lambda p=p: rains.rmax_bidirectional(qcore.partial_swap(p)),
            _bidir_check(extra, prev)))
        prev = name
    items.append(Item(
        "swap_then_collective_dephasing[0.5,pi]",
        lambda: rains.rmax_bidirectional(
            qcore.swap_then_collective_dephasing(0.5, math.pi)),
        _bidir_check(lambda v: {"|v-1|<=1e-2": abs(v - 1.0) <= 1e-2})))
    draws = np.random.default_rng(GENERIC_DRAW_SEED)
    for k in range(N_GENERIC):
        U = haar_unitary(4, draws)
        N = qcore.BipartiteChannel(qcore.KrausChannel([U]), (2, 2), (2, 2))
        items.append(Item(
            "haar_unitary[%d]" % k, lambda N=N: rains.rmax_bidirectional(N),
            _bidir_check(lambda v: {"0<=v<=2 (+-1e-4)":
                                    -1e-4 <= v <= 2.0 + 1e-4})))
    return items


def bidir_warmup():
    rains.rmax_state(qcore.max_ent_state(2), (2, 2))


# ---------------------------------------------------------------------------
# frank-wolfe: thousands of tiny LMO SDPs
# ---------------------------------------------------------------------------

ISO_WEIGHT = 0.85
# Factor spectra of the product states, from mixed to nearly pure. The
# Frank-Wolfe iterates are covariant under local unitaries (PPT' and D are
# invariant, the start point is I/n), so the iteration count depends on the
# spectra only: the seed draws the local eigenbases, and a pass costs the
# same for every seed. All use the library defaults (max_iter=500).
PRODUCT_SPECTRA = (((0.8, 0.2), (0.65, 0.35)),
                   ((0.9, 0.1), (0.75, 0.25)),
                   ((0.95, 0.05), (0.9, 0.1)))
# Renyi mutual information of cq ensembles, each rotated by a seeded
# unitary on B. The quantity and, up to rounding, the descent are invariant
# under that rotation, so the seed does not decide whether a call converges
# (on random qubit ensembles, 1 call in 40 stopped unconverged). Commuting
# ensembles (probs, diagonal states), checked against a scalar oracle; the
# first is the ensemble of test_renyi_mutual_information_diagonal_oracle:
RENYI_COMMUTING = (((0.5, 0.5), ((0.9, 0.1), (0.2, 0.8))),
                   ((0.3, 0.7), ((0.75, 0.25), (0.35, 0.65))))
# and uniform ensembles of bloch_ensemble(m) states, checked against Holevo.
RENYI_GENERIC_SIZES = (2, 3, 4)
RENYI_ALPHA = 2.0


def _isotropic():
    return ISO_WEIGHT * qcore.max_ent_state(2) \
        + (1 - ISO_WEIGHT) * np.eye(4, dtype=complex) / 4


def _fw_values(out):
    return {"value": out["value"], "gap": out["gap"],
            "iterations": out["iterations"]}


def _rotated(spectrum, rng):
    U = haar_unitary(len(spectrum), rng)
    return (U * np.asarray(spectrum)) @ U.conj().T


def _renyi_oracle(probs, diag_states, alpha):
    """Commuting ensemble: scalar minimization over diagonal sigma
    (the oracle of test_renyi_mutual_information_diagonal_oracle)."""
    def objective(s):
        sig = np.array([s, 1 - s])
        tot = sum(p * np.sum(w ** alpha * sig ** (1 - alpha))
                  for p, w in zip(probs, diag_states))
        return np.log2(tot) / (alpha - 1)
    return minimize_scalar(objective, bounds=(1e-6, 1 - 1e-6),
                           method='bounded', options={"xatol": 1e-12}).fun


def frank_wolfe_items(rng):
    iso = _isotropic()
    iso_name = "isotropic[rains_relative_entropy,rmax_state]"

    def iso_run():
        return (rains.rains_relative_entropy(iso, (2, 2)),
                rains.rmax_state(iso, (2, 2)))

    def iso_check(out, done):
        fw, (rmax, wit) = out
        return {"D_Rains": fw["value"], "fw_gap": fw["gap"],
                "iterations": fw["iterations"], "R_max": rmax,
                "sdp_gap": wit["gap"]}, \
            {"gap<=1e-6": wit["gap"] <= 1e-6}, fw["converged"]

    def sandwiched_check(out, done):
        mid = out["value"]
        return _fw_values(out), {
            "D_Rains<=sandwiched+1e-3": done[iso_name]["D_Rains"] <= mid + 1e-3,
            "sandwiched<=R_max+1e-3": mid <= done[iso_name]["R_max"] + 1e-3,
        }, out["converged"]

    def product_check(out, done):
        return _fw_values(out), {"|v|<1e-4": abs(out["value"]) < 1e-4}, \
            out["converged"]

    items = [
        Item(iso_name, iso_run, iso_check),
        Item("sandwiched_rains[isotropic,alpha=2]",
             lambda: rains.sandwiched_rains(iso, (2, 2), alpha=2.0),
             sandwiched_check),
    ]
    for k, (sa, sb) in enumerate(PRODUCT_SPECTRA):
        rho = np.kron(_rotated(sa, rng), _rotated(sb, rng))
        items.append(Item(
            "rains_relative_entropy[product %d]" % k,
            lambda rho=rho: rains.rains_relative_entropy(rho, (2, 2)),
            product_check, {"rho": rho}))
    items.append(_renyi_item(rng))
    return items


def _renyi_item(rng):
    """Renyi mutual information of the cq ensembles above. On a commuting
    ensemble it must match the scalar oracle to 1e-6; on the others it must
    be at least the Holevo quantity, since I_alpha is nondecreasing in
    alpha and I_1 is the Holevo quantity."""
    cases = []
    for probs, diag in RENYI_COMMUTING:
        U = haar_unitary(2, rng)
        states = [U @ np.diag(w).astype(complex) @ U.conj().T for w in diag]
        cases.append((np.array(probs), states, "oracle",
                      _renyi_oracle(probs, [np.array(w) for w in diag],
                                    RENYI_ALPHA)))
    for m in RENYI_GENERIC_SIZES:
        probs = np.full(m, 1.0 / m)
        states = bloch_ensemble(m, haar_unitary(2, rng))
        cases.append((probs, states, "holevo",
                      infomeasures.holevo(probs, states)))

    def run():
        return [reading.renyi_mutual_information(p, st, RENYI_ALPHA)
                for p, st, _, _ in cases]

    def check(outs, done):
        ok = all(abs(o["value"] - ref) <= 1e-6 if kind == "oracle"
                 else o["value"] >= ref - 1e-6
                 for o, (_, _, kind, ref) in zip(outs, cases))
        return {"values": [o["value"] for o in outs],
                "references": [c[3] for c in cases],
                "iterations": [o["iterations"] for o in outs]}, \
            {"|v-oracle|<=1e-6, v>=holevo-1e-6": ok}, \
            all(o["converged"] for o in outs)
    return Item("renyi_mutual_information[x%d]" % len(cases), run, check,
                {"states": [np.array(c[1]) for c in cases]})


def frank_wolfe_warmup():
    rains.ppt_prime_lmo(-qcore.max_ent_state(2), (2, 2))


# ---------------------------------------------------------------------------
# dynamics-reading: no SDP at all
# ---------------------------------------------------------------------------

# Phase-covariant qubit generator in a seeded frame U: H = U (w/2 Z) U^+,
# decay U sigma_- U^+ at the sign-changing rate g(t) = G0 (A0 + cos(W t)),
# dephasing U Z U^+ at rate GD. The excited population in the frame decays
# as exp(-Gamma(t)), Gamma(t) = G0 (A0 t + sin(W t) / W) >= 0, which is the
# analytic check on evolve; the negative-rate intervals make the witness
# negative, so the measure is positive.
OMEGA0, G0, A0, W, GD, T_MAX = 1.0, 1.0, 0.4, 3.0, 0.05, 3.0
N_EVOLVE_TIMES = 31
# Two nonmarkov_measure calls of 5 states each, so that the slowest items
# are more than a tenth of all item times and item_s_p90 falls inside them.
N_WITNESS_CALLS = 2
N_WITNESS_STATES = 5
N_WITNESS_STEPS = 100
DIVISIBLE_DIMS = (2, 3) * 4
N_ENTROPY_CHANGE = 64
ENTROPY_CHANGE_DIM = 3
THERMAL_NS = (0.1, 2.0)
# bloch_ensemble(m) for m = 2, 3, rotated by a seeded unitary:
# Blahut-Arimoto is covariant under it, so the seed changes the inputs but
# not the iteration count. (With m = 4 it takes about 8,900 iterations,
# 10 s, and would crowd out everything else in the pass.)
ENSEMBLE_SIZES = (2, 3)
N_WIRETAP = 32


def _phase_covariant(U):
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    Ud = U.conj().T
    return dynamics.LindbladGenerator(
        U @ (OMEGA0 / 2 * Z) @ Ud,
        [(lambda t: G0 * (A0 + math.cos(W * t)), U @ sm @ Ud),
         (GD, U @ Z @ Ud)])


def _decay_exponent(t):
    return G0 * (A0 * t + math.sin(W * t) / W)


def _evolve_item(rng):
    U = haar_unitary(2, rng)
    rho0 = qcore.random_density(2, rng).matrix
    ts = np.linspace(0.0, T_MAX, N_EVOLVE_TIMES)
    gen = _phase_covariant(U)
    excited = U[:, 1]

    def check(traj, done):
        p0 = float(np.real(excited.conj() @ rho0 @ excited))
        dev = max(abs(float(np.real(excited.conj() @ r @ excited))
                      - p0 * math.exp(-_decay_exponent(t)))
                  for t, r in zip(ts, traj))
        return {"max_population_dev": dev}, {"dev<=1e-8": dev <= 1e-8}, True
    return Item("evolve[phase-covariant]",
                lambda: dynamics.evolve(gen, rho0, ts), check,
                {"U": U, "rho0": rho0})


def _nonmarkov_item(k, rng):
    U = haar_unitary(2, rng)
    gen = _phase_covariant(U)
    states = [qcore.random_density(2, rng).matrix
              for _ in range(N_WITNESS_STATES)]

    def check(out, done):
        m = out["measure"]
        return {"measure": m}, {"0<measure<inf": 0 < m < math.inf}, True
    return Item("nonmarkov_measure[phase-covariant %d]" % k,
                lambda: dynamics.nonmarkov_measure(
                    gen, T_MAX, n_steps=N_WITNESS_STEPS, states=states),
                check, {"U": U, "states": np.array(states)})


def _divisible_item(rng):
    """Constant-rate Lindblad trajectories (acceptance criterion 9)."""
    cases = []
    for d in DIVISIBLE_DIMS:
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        H /= np.linalg.norm(H)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gen = dynamics.LindbladGenerator(H, [(0.7, A / np.linalg.norm(A))])
        cases.append((gen, qcore.random_density(d, rng).matrix))
    ts = np.linspace(0.0, 1.0, 8)

    def run():
        fmin = []
        for gen, rho0 in cases:
            traj = dynamics.evolve(gen, rho0, ts)
            fmin.append(min(dynamics.witness_f(gen, t, r)
                            for t, r in zip(ts, traj)))
        return fmin

    def check(fmin, done):
        return {"min_witness": min(fmin), "sum_min_witness": sum(fmin)}, \
            {"min_f>=-1e-7": min(fmin) >= -1e-7}, True
    return Item("divisible_trajectories[x%d]" % len(DIVISIBLE_DIMS), run,
                check, {"rho0": [rho0 for _, rho0 in cases]})


def _entropy_change_item(rng):
    """Entropy-change chain on mixed-unitary channels (criterion 9)."""
    d = ENTROPY_CHANGE_DIM
    cases = []
    for _ in range(N_ENTROPY_CHANGE):
        w = rng.dirichlet(np.ones(2))
        K = [math.sqrt(w[j]) * haar_unitary(d, rng) for j in range(2)]
        cases.append((qcore.KrausChannel(K), qcore.random_density(d, rng).matrix))

    def run():
        return [dynamics.entropy_change_bounds(ch, rho) for ch, rho in cases]

    def check(reps, done):
        ok = all(r["lower"] <= r["delta_S"] + 1e-9
                 and r["delta_S"] <= r["upper"] + 1e-9
                 and r["lower"] <= r["middle"] + 1e-9
                 and r["middle"] <= r["upper"] + 1e-9 for r in reps)
        return {"sum_delta_S": sum(r["delta_S"] for r in reps),
                "sum_lower": sum(r["lower"] for r in reps),
                "sum_upper": sum(r["upper"] for r in reps)}, \
            {"chain (1e-9)": ok}, True
    return Item("entropy_change_bounds[x%d]" % N_ENTROPY_CHANGE, run, check,
                {"rho": np.array([rho for _, rho in cases])})


def _thermal_item():
    """The cell of test_thermal_cell_capacity_orderings (no seeded part)."""
    def run():
        return (reading.thermal_cell_capacity(THERMAL_NS, probs=[0.5, 0.5]),
                reading.thermal_cell_capacity(THERMAL_NS))

    def check(out, done):
        fixed, opt = out
        return {"holevo_uniform": fixed, "capacity": opt}, \
            {"capacity>=holevo-1e-9": opt >= fixed - 1e-9}, True
    return Item("thermal_cell_capacity[N=0.1,2.0]", run, check)


def _ensemble_item(m, rng):
    """Blahut-Arimoto and second-order bounds on a qubit ensemble."""
    states = bloch_ensemble(m, haar_unitary(2, rng))

    def run():
        return (reading.blahut_arimoto(states),
                reading.second_order_bound(states, 10, 0.1),
                reading.second_order_bound(states, 1000, 0.1),
                reading.second_order_bound(states, 50, 0.5))

    def check(out, done):
        ba, b10, b1000, half = out
        cap = ba["capacity"]
        return {"capacity": cap, "iterations": ba["iterations"],
                "b10": b10, "b1000": b1000, "b_eps_half": half}, {
            "kkt<=1e-8": ba["kkt_residual"] <= 1e-8,
            "b10<b1000<capacity": b10 < b1000 < cap,
            "|b(eps=.5)-capacity|<=1e-6": abs(half - cap) <= 1e-6,
        }, True
    return Item("blahut_arimoto+second_order[m=%d]" % m, run, check,
                {"states": np.array(states)})


def _wiretap_item(rng):
    """Private reading rate equals coherent information (criterion 9)."""
    cases = []
    for _ in range(N_WIRETAP):
        cell = reading.with_wiretaps([random_channel(2, 2, 2, rng)
                                      for _ in range(3)])
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cases.append((cell, rng.dirichlet(np.ones(3)),
                      psi / np.linalg.norm(psi)))

    def run():
        return [(reading.private_reading_rate_n1(c, p, psi),
                 reading.coherent_info_rate(c, p, psi))
                for c, p, psi in cases]

    def check(pairs, done):
        dev = max(abs(a - b) for a, b in pairs)
        return {"sum_private_rate": sum(a for a, _ in pairs),
                "max_dev": dev}, {"dev<=1e-9": dev <= 1e-9}, True
    return Item("private_rate_vs_coherent_info[x%d]" % N_WIRETAP, run, check,
                {"psi": np.array([psi for _, _, psi in cases])})


def dynamics_reading_items(rng):
    return [_evolve_item(rng)] \
        + [_nonmarkov_item(k, rng) for k in range(N_WITNESS_CALLS)] \
        + [_divisible_item(rng), _entropy_change_item(rng), _thermal_item()] \
        + [_ensemble_item(m, rng) for m in ENSEMBLE_SIZES] \
        + [_wiretap_item(rng)]


def dynamics_reading_warmup():
    gen = dynamics.LindbladGenerator(np.diag([0.5, -0.5]),
                                     [(1.0, [[0, 1], [0, 0]])])
    dynamics.evolve(gen, np.eye(2) / 2, [0.0, 0.1])
    reading.blahut_arimoto([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


WORKLOADS = {
    "bidir-sweep": (bidir_items, bidir_warmup),
    "frank-wolfe": (frank_wolfe_items, frank_wolfe_warmup),
    "dynamics-reading": (dynamics_reading_items, dynamics_reading_warmup),
}
