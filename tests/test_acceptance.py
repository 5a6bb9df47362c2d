"""Acceptance gate: the nine headline checks, one pass/fail line each.

Each criterion prints a single summary line. Criterion 5 checks the
secure-reading presets against Bell-basis closed forms computed in the
test. The figures once quoted for those presets are not reproduced by
their stated parameters; they are kept on record in a comment there, and
pinning them again waits for the paper's parameter table.
"""
import math
import time

import numpy as np
import pytest

from qbound import dynamics as dyn
from qbound import infomeasures as im
from qbound import linalg, qcore, rains, reading
from conftest import haar_unitary, random_channel


def _report(num, label, ok, detail=""):
    line = "criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)


def test_criterion_1_erasure_cell_capacity():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3):
        g = qcore.hw_group(d)
        for q in (0.0, 0.25, 0.5, 1.0):
            got = reading.covariant_cell_capacity(qcore.erasure(d, q), g)
            worst = max(worst, abs(got - 2 * (1 - q) * math.log2(d)))
    dt = time.time() - t0
    ok = worst <= 1e-8 and dt < 1.0
    _report(1, "erasure cell capacity", ok,
            "max dev %.2e, %.2fs" % (worst, dt))
    assert worst <= 1e-8
    assert dt < 1.0


def test_criterion_2_depolarizing_cell_capacity():
    t0 = time.time()
    g = qcore.hw_group(2)
    worst = 0.0
    for q in (0.0, 0.5, 1.0):
        got = reading.covariant_cell_capacity(qcore.depolarizing(2, q), g)
        # Choi-state spectrum: (1-q)+q/4 once, q/4 three times
        lam = [(1 - q) + q / 4] + [q / 4] * 3
        want = 2.0 + sum(v * math.log2(v) for v in lam if v > 0)
        worst = max(worst, abs(got - want))
    dt = time.time() - t0
    ok = worst <= 1e-8 and dt < 1.0
    _report(2, "depolarizing cell capacity", ok,
            "max dev %.2e, %.2fs" % (worst, dt))
    assert worst <= 1e-8
    assert dt < 1.0


def test_criterion_3_nonunitarity():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3):
        for q in np.linspace(0.0, 1.0, 11):
            got = dyn.nonunitarity(qcore.depolarizing(d, float(q)))
            want = dyn.depolarizing_nonunitarity(d, float(q))
            worst = max(worst, abs(got - want))
    endpoint = dyn.nonunitarity(qcore.depolarizing(2, 1.0))
    dt = time.time() - t0
    ok = worst <= 1e-5 and abs(endpoint - 1.5) <= 1e-5 and dt < 30.0
    _report(3, "diamond-norm nonunitarity", ok,
            "max dev %.2e, endpoint %.6f, %.1fs" % (worst, endpoint, dt))
    assert worst <= 1e-5
    assert abs(endpoint - 1.5) <= 1e-5
    assert dt < 30.0


def test_criterion_4_bidirectional_max_rains():
    t0 = time.time()
    gaps = []

    def solve(N):
        out = rains.rmax_bidirectional(N)
        gaps.append(out["gap"])
        return out["value"]

    swap_v = solve(qcore.partial_swap(0.0))
    ident_v = solve(qcore.BipartiteChannel(qcore.identity_channel(4),
                                           (2, 2), (2, 2)))
    deph_v = solve(qcore.swap_then_collective_dephasing(0.5, math.pi))
    curve = [solve(qcore.partial_swap(float(p)))
             for p in np.linspace(0.0, 1.0, 21)]
    mono = all(a >= b - 1e-6 for a, b in zip(curve, curve[1:]))
    dt = time.time() - t0
    ok = (abs(swap_v - 2.0) <= 1e-4 and abs(ident_v) <= 1e-4
          and abs(deph_v - 1.0) <= 1e-2 and mono
          and max(gaps) <= 1e-6 and dt < 300.0)
    _report(4, "bidirectional max-Rains", ok,
            "swap %.6f, id %.2e, deph %.4f, monotone %s, max gap %.1e, %.0fs"
            % (swap_v, ident_v, deph_v, mono, max(gaps), dt))
    assert abs(swap_v - 2.0) <= 1e-4
    assert abs(ident_v) <= 1e-4
    assert abs(deph_v - 1.0) <= 1e-2
    assert mono
    assert max(gaps) <= 1e-6
    assert dt < 300.0


def _kl_bits(p, r):
    return sum(a * math.log2(a / b) for a, b in zip(p, r) if a > 0)


def test_criterion_5_secure_reading_presets():
    # Both presets give Bell-diagonal Choi states (maximally entangled
    # probe), so the mixed and blank outputs commute and N*D is N times a
    # classical relative entropy between matched Bell-basis spectra.
    # D_I = D_C holds for both presets, so one closed form checks both.
    q, N, theta = 0.005, 1000, 0.5
    t0 = time.time()
    dep = reading.secure_reading_deltas('depolarizing', q=q, N=N,
                                        eta0=0.8, eta1=0.7)
    gad = reading.secure_reading_deltas('gadc', q=q, N=N,
                                        eta0=0.45, eta1=0.4, theta=theta)
    dt = time.time() - t0

    def dep_spec(eta):
        # keep with probability eta: {eta + (1-eta)/4, (1-eta)/4 x3}
        return [eta + (1 - eta) / 4] + [(1 - eta) / 4] * 3

    def gad_spec(eta, s):
        # theta = 1/2: diagonal linear in eta, coherence |00><11| = s/2
        # with s = sqrt(eta); the mixture mixes eta and s separately
        return [(1 + eta) / 4 + s / 2, (1 + eta) / 4 - s / 2,
                (1 - eta) / 4, (1 - eta) / 4]

    e0, e1 = 0.8, 0.7
    dep_want = N * _kl_bits(dep_spec(q * e1 + (1 - q) * e0), dep_spec(e0))
    g0, g1 = 0.45, 0.4
    gad_want = N * _kl_bits(
        gad_spec(q * g1 + (1 - q) * g0,
                 q * math.sqrt(g1) + (1 - q) * math.sqrt(g0)),
        gad_spec(g0, math.sqrt(g0)))
    checks = [("%s %s" % (kind, key), out[key], want)
              for kind, out, want in (("depolarizing", dep, dep_want),
                                      ("gadc", gad, gad_want))
              for key in ("N_D_I", "N_D_C")]
    worst = max(abs(got - want) / want for _, got, want in checks)
    ok = worst <= 1e-6 and dt < 1.0
    _report(5, "secure-reading presets", ok,
            "dep N*D_I %.6e, gadc N*D_I %.6e, max rel dev %.1e, %.2fs"
            % (dep["N_D_I"], gad["N_D_I"], worst, dt))
    # Figures quoted for these presets from outside the repository, kept on
    # record and not asserted: no reading of the stated parameters gives
    # them. Depolarizing 8.5e-4 is 6.5% from the closed form 7.9506e-4;
    # GADC 7.0e-5 is 38% from 9.6633e-5. Swapping the GADC roles
    # (transmissivity 0.5, mixing weights 0.45 and 0.4) gives 7.384e-5.
    for name, got, want in checks:
        assert abs(got - want) <= 1e-6 * want, (
            "%s = %.9e vs closed form %.9e (rel dev %.2e > 1e-6)"
            % (name, got, want, abs(got - want) / want))
    assert dt < 1.0


def test_criterion_6_gadc_nonmarkovianity():
    t0 = time.time()
    fam = dyn.gadc_family(5.0)
    ts = np.linspace(1e-4, 5.0, 1200)
    fmin = min(fam.f(float(t)) for t in ts)

    h = 1e-6
    worst = 0.0
    for t in np.linspace(0.1, 4.9, 25):
        sdot = (im.entropy(fam.state(t + h), base='nats')
                - im.entropy(fam.state(t - h), base='nats')) / (2 * h)
        worst = max(worst, abs(sdot + fam.W(t) - fam.f(t)))

    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    blp = dyn.blp_for_family(fam.channel_at, a, b, np.linspace(0, 5, 400))
    dt = time.time() - t0
    ok = fmin < 0 and worst <= 1e-6 and abs(blp) <= 1e-8 and dt < 30.0
    _report(6, "oscillatory damping witness", ok,
            "min f %.3f, analytic dev %.1e, blp %.1e, %.1fs"
            % (fmin, worst, blp, dt))
    assert fmin < 0
    assert worst <= 1e-6
    assert abs(blp) <= 1e-8
    assert dt < 30.0


def test_criterion_7_entropy_rate_formula():
    t0 = time.time()
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        jumps = []
        for _ in range(int(rng.integers(1, 3))):
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            jumps.append((float(rng.uniform(0.2, 1.0)),
                          A / np.linalg.norm(A)))
        gen = dyn.LindbladGenerator(H, jumps)
        rho0 = qcore.random_density(d, rng).matrix
        t = float(rng.uniform(0.1, 0.8))
        r_m, r, r_p = dyn.evolve(gen, rho0, [t - h, t, t + h],
                                 local_err=1e-11)
        rate = dyn.entropy_rate(r, gen.apply(t, r))
        fd = (im.entropy(r_p, base='nats')
              - im.entropy(r_m, base='nats')) / (2 * h)
        worst = max(worst, abs(rate - fd))

    worst_an = 0.0
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = dyn.LindbladGenerator(np.zeros((2, 2)), [(1.0, A)])
    for t in (0.3, 0.8, 1.7):
        rho, want = dyn.damping_trajectory(t)
        got = dyn.entropy_rate(rho, gen.apply(t, rho))
        worst_an = max(worst_an, abs(got - want))
    for t in (0.12, 0.4, 0.77):
        rho, want = dyn.oscillatory_trajectory(t)
        v = math.pi * math.sin(2 * math.pi * t)
        got = dyn.entropy_rate(rho, np.diag([-v, v]).astype(complex))
        worst_an = max(worst_an, abs(got - want))
    dt = time.time() - t0
    ok = worst <= 1e-6 and worst_an <= 1e-8 and dt < 60.0
    _report(7, "entropy-rate formula", ok,
            "fd dev %.1e, analytic dev %.1e, %.1fs" % (worst, worst_an, dt))
    assert worst <= 1e-6
    assert worst_an <= 1e-8
    assert dt < 60.0


def test_criterion_8_ppt_prime_overlap():
    t0 = time.time()
    worst = 0.0
    for M in (2, 3):
        phi = qcore.max_ent_state(M)
        sigma = rains.ppt_prime_lmo(-phi, (M, M))
        val = float(np.real(np.trace(sigma @ phi)))
        worst = max(worst, abs(val - 1.0 / M))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 5.0
    _report(8, "PPT' overlap with max-ent", ok,
            "max dev %.1e, %.1fs" % (worst, dt))
    assert worst <= 1e-6
    assert dt < 5.0


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(23)
    fails = []

    # data processing for the three divergences, 100 instances
    for i in range(100):
        d = int(rng.integers(2, 4))
        rho = qcore.random_density(d, rng).matrix
        sig = qcore.random_density(d, rng).matrix
        ch = random_channel(d, int(rng.integers(2, 4)),
                            int(rng.integers(2, 4)), rng)
        Nr, Ns = ch.apply(rho), ch.apply(sig)
        a = float(rng.uniform(1.1, 3.0))
        if not (im.relative_entropy(Nr, Ns)
                <= im.relative_entropy(rho, sig) + 1e-8
                and im.dmax(Nr, Ns) <= im.dmax(rho, sig) + 1e-8
                and im.sandwiched_renyi(Nr, Ns, a)
                <= im.sandwiched_renyi(rho, sig, a) + 1e-8):
            fails.append("data processing instance %d" % i)

    # entropy-change chain on 100 sub-unital (mixed-unitary) instances
    for i in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(k))
        K = [math.sqrt(w[j]) * haar_unitary(d, rng) for j in range(k)]
        ch = qcore.KrausChannel(K)
        rho = qcore.random_density(d, rng).matrix
        rep = dyn.entropy_change_bounds(ch, rho)
        if not (rep["lower"] <= rep["delta_S"] + 1e-9
                and rep["delta_S"] <= rep["upper"] + 1e-9
                and rep["lower"] <= rep["middle"] + 1e-9
                and rep["middle"] <= rep["upper"] + 1e-9):
            fails.append("entropy-change chain instance %d" % i)

    # amortization spot-check on 20 (state, bidirectional channel) pairs
    for i in range(20):
        V = haar_unitary(4, rng)
        N = qcore.BipartiteChannel(qcore.KrausChannel([V]), (2, 2), (2, 2))
        rho = qcore.random_density(16, rng, dims=(2, 2, 2, 2)).matrix
        rep = rains.amortization_spotcheck(N, rho, (2, 2, 2, 2))
        if not rep["holds"]:
            fails.append("amortization pair %d (slack %.2e)"
                         % (i, rep["slack"]))

    # teleportation simulation for cnot and depolarizing
    g2 = qcore.hw_group(2)
    for label, ch, in_rep, out_rep in (
            ("cnot", qcore.cnot(), None, None),
            ("depolarizing", qcore.depolarizing(2, 0.35), g2, g2)):
        rho = qcore.random_density(4 if label == "cnot" else 2, rng).matrix
        base = ch.channel if isinstance(ch, qcore.BipartiteChannel) else ch
        sim = qcore.teleport_simulate(ch, rho, in_rep=in_rep, out_rep=out_rep)
        td = 0.5 * linalg.schatten_norm(sim - base.apply(rho), 1)
        if td > 1e-8:
            fails.append("teleportation %s (dist %.2e)" % (label, td))

    # Markov lower bound along 20 divisible trajectories
    for i in range(20):
        d = int(rng.integers(2, 4))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (H + H.conj().T) / 2
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gen = dyn.LindbladGenerator(H, [(0.7, A / np.linalg.norm(A))])
        rho0 = qcore.random_density(d, rng).matrix
        ts = np.linspace(0.0, 1.0, 8)
        traj = dyn.evolve(gen, rho0, ts)
        if dyn.witness_f(gen, ts, np.array(traj)).min() < -1e-7:
            fails.append("markov bound trajectory %d" % i)

    # coherent-information identity on 50 purified ensembles
    worst_ci = 0.0
    for i in range(50):
        m = int(rng.integers(2, 4))
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        env = int(rng.integers(2, 3))
        cell = reading.with_wiretaps(
            [random_channel(din, dout, env, rng) for _ in range(m)])
        psi = rng.standard_normal(din * din) \
            + 1j * rng.standard_normal(din * din)
        psi /= np.linalg.norm(psi)
        p = rng.dirichlet(np.ones(m))
        dev = abs(reading.private_reading_rate_n1(cell, p, psi)
                  - reading.coherent_info_rate(cell, p, psi))
        worst_ci = max(worst_ci, dev)
    if worst_ci > 1e-9:
        fails.append("coherent-info identity (dev %.2e)" % worst_ci)

    # erasure wiretap rate and privacy
    for d, q in ((2, 0.25), (3, 0.5)):
        cell = reading.hw_probe_cell(d=d, q=q)
        m = len(cell)
        p = np.full(m, 1.0 / m)
        psi = qcore.max_ent_vector(d)
        _, envs = cell.probe_outputs(psi)
        i_xe = im.mutual_information(im.cq_state(p, envs),
                                     (m, envs[0].shape[0]))
        rate = reading.private_reading_rate_n1(cell, p, psi)
        if abs(i_xe) > 1e-9:
            fails.append("erasure wiretap leakage d=%d (%.2e)" % (d, i_xe))
        if abs(rate - 2 * (1 - q) * math.log2(d)) > 1e-8:
            fails.append("erasure wiretap rate d=%d (%.12f)" % (d, rate))

    # zero-error certificate
    cert = reading.zero_error_certificate()
    if abs(cert["min_eig"] - (1 - 1 / math.sqrt(2))) > 1e-10 \
            or not cert["ok"]:
        fails.append("zero-error certificate")

    dt = time.time() - t0
    ok = not fails and dt < 300.0
    _report(9, "property suites", ok,
            ("all suites clean" if not fails else "; ".join(fails))
            + ", %.0fs" % dt)
    assert not fails, fails
    assert dt < 300.0
