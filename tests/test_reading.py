import functools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qbound import infomeasures as im
from qbound import linalg, qcore, reading
from conftest import haar_isometry, haar_unitary


def bloch_state(theta, phi=0.0):
    v = np.array([math.cos(theta / 2),
                  math.sin(theta / 2) * np.exp(1j * phi)])
    return np.outer(v, v.conj())


def test_memory_cell_validation():
    with pytest.raises(ValueError):
        reading.MemoryCell([])
    with pytest.raises(ValueError):
        reading.MemoryCell([qcore.identity_channel(2), qcore.erasure(2, 0.5)])
    # mismatched wiretap extension is rejected
    with pytest.raises(ValueError):
        reading.MemoryCell(
            [qcore.depolarizing(2, 0.5)],
            wiretap=[qcore.isometric_extension(qcore.depolarizing(2, 0.2))])


def test_with_wiretaps_consistency():
    cell = reading.with_wiretaps([qcore.depolarizing(2, 0.3),
                                  qcore.depolarizing(2, 0.8)])
    assert cell.wiretap is not None
    joints, envs = cell.probe_outputs(qcore.max_ent_vector(2))
    assert all(abs(np.trace(o) - 1) < 1e-10 for o in joints + envs)


def test_covariant_capacity_closed_forms():
    for d in (2, 3):
        for q in (0.0, 0.25, 0.5, 1.0):
            cap = reading.covariant_cell_capacity(qcore.erasure(d, q),
                                                  qcore.hw_group(d))
            assert cap == pytest.approx(2 * (1 - q) * np.log2(d), abs=1e-9)
    # depolarizing closed form
    for q in (0.0, 0.5, 1.0):
        cap = reading.covariant_cell_capacity(qcore.depolarizing(2, q),
                                              qcore.hw_group(2))
        lam1 = (1 - q) + q / 4
        lam2 = q / 4
        want = 2 + lam1 * np.log2(lam1) + 3 * lam2 * np.log2(lam2) \
            if 0 < q else 2.0
        if q == 1.0:
            want = 0.0
        assert cap == pytest.approx(want, abs=1e-9)


def test_covariant_capacity_rejects_noncovariant():
    with pytest.raises(ValueError):
        reading.covariant_cell_capacity(qcore.gadc(0.5, 1.0),
                                        qcore.hw_group(2))


def test_blahut_arimoto_degenerate_and_orthogonal():
    same = [np.eye(2) / 2, np.eye(2) / 2]
    out = reading.blahut_arimoto(same)
    assert out["capacity"] == pytest.approx(0.0, abs=1e-9)
    orth = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    out = reading.blahut_arimoto(orth)
    assert out["capacity"] == pytest.approx(1.0, abs=1e-9)
    assert np.abs(out["p"] - 0.5).max() < 1e-8
    assert out["kkt_residual"] <= 1e-8


def test_blahut_arimoto_three_state_grid_oracle():
    """Exhaustive simplex grid certifies the BA optimum for 3 pure states."""
    states = [bloch_state(0.0), bloch_state(2 * np.pi / 3),
              bloch_state(4 * np.pi / 3)]
    out = reading.blahut_arimoto(states)
    step = 0.02
    best = 0.0
    ks = int(round(1 / step))
    for i in range(ks + 1):
        for j in range(ks + 1 - i):
            p = np.array([i * step, j * step, 1 - (i + j) * step])
            best = max(best, im.holevo(p, states))
    assert out["capacity"] >= best - 1e-4
    assert out["capacity"] <= best + 1e-3


def test_blahut_arimoto_reports_unconverged(monkeypatch):
    # Bloch vectors of length 0.9, 0.8, 0.7 at azimuths 0, 2 pi/3, 4 pi/3
    states = [r * bloch_state(np.pi / 2, 2 * np.pi * j / 3)
              + (1 - r) * np.eye(2) / 2 for j, r in enumerate((0.9, 0.8, 0.7))]
    assert reading.blahut_arimoto(states)["converged"]
    out = reading.blahut_arimoto(states, max_iter=3)
    assert out["iterations"] == 3 and not out["converged"]
    # the callers that take the capacity or optimizer refuse such a result
    short = functools.partial(reading.blahut_arimoto, max_iter=3)
    monkeypatch.setattr(reading, "blahut_arimoto", short)
    for call in (lambda: reading.thermal_cell_capacity([0.1, 2.0]),
                 lambda: reading.second_order_bound(states, 10, 0.1)):
        with pytest.raises(ArithmeticError,
                           match="Blahut-Arimoto.*KKT residual"):
            call()
    # a fixed prior runs no Blahut-Arimoto
    reading.second_order_bound(states, 10, 0.1, probs=[0.5, 0.25, 0.25])


def test_blahut_arimoto_stops_at_last_finite_iterate():
    """The third state's weight halves each iteration until rho_bar loses
    its |2> support; the last finite iterate is returned, unwarned."""
    states = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
              np.diag([0.5, 0.499, 0.001])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = reading.blahut_arimoto(states)
        b10 = reading.second_order_bound(states, 10, 0.1)
        half = reading.second_order_bound(states, 50, 0.5)
    assert out["converged"]
    assert out["capacity"] == pytest.approx(1.0, abs=1e-9)
    assert out["kkt_residual"] <= 1e-8
    assert b10 < out["capacity"]
    assert half == pytest.approx(out["capacity"], abs=1e-6)


def _per_state_blahut_arimoto(states, tol=1e-10, kkt_tol=1e-8,
                              max_iter=20000):
    """The Blahut-Arimoto loop with one relative_entropy call per state."""
    p = np.full(len(states), 1.0 / len(states))
    prev = -np.inf
    for it in range(1, max_iter + 1):
        avg = sum(pi * s for pi, s in zip(p, states))
        divs = np.array([im.relative_entropy(s, avg) for s in states])
        cap = float(np.dot(p, divs))
        if abs(cap - prev) < tol and divs.max() - cap <= kkt_tol:
            break
        prev = cap
        w = p * np.exp2(divs - divs.max())
        p = w / w.sum()
    return cap, p, it


def _random_bloch_ensemble(m, rng):
    """m qubit states with random Bloch vectors of length 0.5 to 0.95."""
    v = rng.standard_normal((m, 3))
    v *= rng.uniform(0.5, 0.95, (m, 1)) / np.linalg.norm(v, axis=1,
                                                         keepdims=True)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]])
    return list((np.eye(2) + np.tensordot(v, paulis, 1)) / 2)


def test_blahut_arimoto_matches_per_state_loop():
    rng = np.random.default_rng(7)
    cut = max(reading.fock_cutoff(N) for N in (0.1, 2.0))
    ensembles = [_random_bloch_ensemble(m, rng) for m in (2, 3, 4)] + [
        [qcore.random_density(3, rng).matrix for _ in range(3)],
        [reading.thermal_state(N, cut) for N in (0.1, 2.0)]]
    for states in ensembles:
        cap, p, its = _per_state_blahut_arimoto(states)
        out = reading.blahut_arimoto(states)
        assert out["converged"]
        assert out["iterations"] == its
        assert out["capacity"] == pytest.approx(cap, abs=1e-12)
        assert np.abs(out["p"] - p).max() <= 1e-10


def test_blahut_arimoto_on_diagonals(monkeypatch):
    # thermal states are diagonal in the number basis, so every iteration
    # works on the diagonals and makes no eigendecomposition; one
    # off-diagonal entry takes the matrix path, one eigh per iteration
    cut = max(reading.fock_cutoff(N) for N in (0.1, 2.0))
    states = [reading.thermal_state(N, cut) for N in (0.1, 2.0)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    out = reading.blahut_arimoto(states)
    assert out["converged"] and out["iterations"] == 33 and calls == []
    states[1] = states[1].copy()
    states[1][0, 1] = states[1][1, 0] = 1e-3
    out = reading.blahut_arimoto(states)
    assert out["converged"] and len(calls) == out["iterations"]


def test_fock_cutoff_definition():
    for N in (0.5, 1.0, 5.0):
        m = reading.fock_cutoff(N)
        r = N / (N + 1)
        assert r ** (m + 1) < 1e-12
        assert m == 0 or r ** m >= 1e-12
    assert reading.fock_cutoff(0.0) == 0


def test_thermal_state_entropy_matches_g():
    for N in (0.3, 1.0, 2.5):
        cut = reading.fock_cutoff(N)
        th = reading.thermal_state(N, cut)
        assert im.entropy(th) == pytest.approx(im.g_fn(N), abs=1e-10)


def test_thermal_cell_capacity_orderings():
    Ns = [0.1, 2.0]
    fixed = reading.thermal_cell_capacity(Ns, probs=[0.5, 0.5])
    opt = reading.thermal_cell_capacity(Ns)
    assert opt >= fixed - 1e-9
    # direct Holevo oracle on a common cutoff
    cut = max(reading.fock_cutoff(N) for N in Ns)
    states = [reading.thermal_state(N, cut) for N in Ns]
    assert fixed == pytest.approx(im.holevo([0.5, 0.5], states), abs=1e-12)


def test_second_order_bound_limits():
    states = [np.diag([1.0, 0.0]).astype(complex),
              np.diag([0.0, 1.0]).astype(complex)]
    # orthogonal pure states have zero dispersion: bound equals capacity
    assert reading.second_order_bound(states, 100, 0.1) == pytest.approx(
        1.0, abs=1e-8)
    # eps = 1/2 kills the correction for any ensemble
    mixed = [np.diag([0.8, 0.2]).astype(complex),
             np.diag([0.3, 0.7]).astype(complex)]
    cap = reading.blahut_arimoto(mixed)["capacity"]
    assert reading.second_order_bound(mixed, 50, 0.5) == pytest.approx(
        cap, abs=1e-6)
    # the eps < 1/2 correction is negative and shrinks with n
    b10 = reading.second_order_bound(mixed, 10, 0.1)
    b1000 = reading.second_order_bound(mixed, 1000, 0.1)
    assert b10 < b1000 < cap


def test_renyi_mutual_information_diagonal_oracle():
    """Commuting ensemble: scalar minimization over diagonal sigma."""
    probs = np.array([0.5, 0.5])
    states = [np.diag([0.9, 0.1]).astype(complex),
              np.diag([0.2, 0.8]).astype(complex)]
    alpha = 2.0

    def objective(s):
        tot = 0.0
        sig = np.array([s, 1 - s])
        for p, st in zip(probs, states):
            w = np.diag(st).real
            tot += p * np.sum(w ** alpha * sig ** (1 - alpha))
        return np.log2(tot) / (alpha - 1)

    sc = minimize_scalar(objective, bounds=(1e-6, 1 - 1e-6), method='bounded',
                         options={"xatol": 1e-12})
    out = reading.renyi_mutual_information(probs, states, alpha)
    assert out["converged"]
    assert out["value"] == pytest.approx(sc.fun, abs=1e-6)


def _sibson(probs, spectra, alpha):
    """Closed form of a commuting ensemble with eigenvalues spectra[x]:
    alpha/(alpha-1) log2 sum_b (sum_x p_x lambda_xb^alpha)^(1/alpha)."""
    tot = np.sum(np.asarray(probs)[:, None] * np.asarray(spectra) ** alpha,
                 axis=0)
    return alpha / (alpha - 1) * np.log2(np.sum(tot ** (1 / alpha)))


@pytest.mark.parametrize("alpha", [1.1, 2.0, 5.0])
def test_renyi_mutual_information_commuting_closed_form(alpha):
    # the descent starts at Sibson's optimizer, exact for commuting states;
    # the third ensemble vanishes on a common level, where sigma_0 does too
    # (from I/3 the descent stalled there at alpha = 5)
    rng = np.random.default_rng(7)
    rotated = (rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3),
               haar_unitary(3, rng))
    for probs, spectra, basis in (
            ([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], np.eye(2)), rotated,
            ([0.3, 0.7], [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]], np.eye(3))):
        states = [(basis * w) @ basis.conj().T for w in spectra]
        out = reading.renyi_mutual_information(probs, states, alpha)
        assert out["converged"] and out["iterations"] == 1
        assert out["value"] == pytest.approx(
            _sibson(probs, spectra, alpha), abs=1e-12)


@pytest.mark.parametrize("seed,alpha", [(12, 1.01), (23, 1.1), (48, 10.0)])
def test_renyi_mutual_information_no_rounding_stall(seed, alpha):
    # full-rank ensembles on which a strict decrease test stalls at a
    # residual of 1e-7 to 1e-6, where one step changes the value by less
    # than its rounding; I_alpha >= I_1, the Holevo quantity
    rng = np.random.default_rng(seed)
    d, m = (int(x) for x in rng.integers(2, 5, size=2))
    states = [qcore.random_density(d, rng).matrix for _ in range(m)]
    probs = rng.dirichlet(np.ones(m))
    out = reading.renyi_mutual_information(probs, states, alpha)
    assert out["converged"] and out["residual"] <= 1e-7
    assert out["value"] >= im.holevo(probs, states) - 1e-9


def test_renyi_mutual_information_no_second_eigendecomposition(monkeypatch):
    # each candidate sigma comes with the eigenpairs it was built from, so
    # the loop never eigendecomposes a sigma again
    calls = []
    floored_eigh = linalg.floored_eigh

    def counted(sigma):
        calls.append(sigma)
        return floored_eigh(sigma)
    monkeypatch.setattr(linalg, "floored_eigh", counted)
    probs = [0.2, 0.5, 0.3]
    states = [bloch_state(t, f) * 0.9 + 0.05 * np.eye(2)
              for t, f in ((0.3, 0.0), (1.6, 0.4), (2.5, 2.0))]
    out = reading.renyi_mutual_information(probs, states, 2.0)
    assert out["converged"] and out["iterations"] > 1
    assert not calls


def test_renyi_mutual_information_identical_states():
    probs = [0.5, 0.5]
    states = [np.eye(2) / 2, np.eye(2) / 2]
    out = reading.renyi_mutual_information(probs, states, 2.0)
    assert out["value"] == pytest.approx(0.0, abs=1e-9)


def test_strong_converse_exponent_closed_form():
    # identical states: I_alpha = 0, bound = 2^{-n(1-1/alpha)R}
    probs = [0.5, 0.5]
    states = [np.eye(2) / 2, np.eye(2) / 2]
    got = reading.strong_converse_exponent(probs, states, R=1.0, alpha=2.0,
                                           n=4)
    assert got == pytest.approx(2.0 ** (-4 * 0.5), abs=1e-6)


def test_weak_converse_objectives_erasure():
    d, q = 2, 0.3
    cell = reading.hw_probe_cell(d=d, q=q)
    m = len(cell)
    probs = np.full(m, 1.0 / m)
    phi = qcore.max_ent_state(d)
    out = reading.weak_converse_objectives(cell, probs, phi, (d, d))
    want = 2 * (1 - q) * np.log2(d)
    assert out["nonadaptive"] == pytest.approx(want, abs=1e-9)
    # symbol-independent probe: adaptive objective equals I(X;RB)
    assert out["adaptive"] == pytest.approx(out["nonadaptive"], abs=1e-9)


def test_erasure_wiretap_privacy():
    for d, q in ((2, 0.25), (3, 0.5)):
        cell = reading.hw_probe_cell(d=d, q=q)
        m = len(cell)
        probs = np.full(m, 1.0 / m)
        psi = qcore.max_ent_vector(d)
        joints, envs = cell.probe_outputs(psi)
        i_xe = im.mutual_information(
            im.cq_state(probs, envs), (m, envs[0].shape[0]))
        assert abs(i_xe) < 1e-9  # the wiretapper learns nothing
        rate = reading.private_reading_rate_n1(cell, probs, psi)
        assert rate == pytest.approx(2 * (1 - q) * np.log2(d), abs=1e-8)
        ci = reading.coherent_info_rate(cell, probs, psi)
        assert rate == pytest.approx(ci, abs=1e-9)


def test_iso_outputs_match_partial_traces(rng):
    # the old path, kept as the oracle: the outer product of the branch
    # (1_L (x) V) psi and its two partial traces
    for dL, din, dout, denv in ((1, 2, 2, 2), (2, 2, 2, 3), (3, 2, 3, 2)):
        V = haar_isometry(dout * denv, din, rng)
        iso = qcore.IsometricExtension(V, dout, denv)
        n = dL * din
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        big = np.kron(np.eye(dL), V) @ psi
        R = np.outer(big, big.conj())
        dims = (dL, dout, denv)
        joint, env = reading._iso_outputs(iso, psi)
        np.testing.assert_allclose(
            joint, linalg.partial_trace(R, dims, [0, 1]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            env, linalg.partial_trace(R, dims, [2]), rtol=0, atol=1e-15)


def test_wiretap_rates_refuse_non_simplex_probs():
    cell = reading.hw_probe_cell(d=2, q=0.25)
    psi = qcore.max_ent_vector(2)
    for probs in ([0.7, 0.7, 0.0, 0.0], [1.2, -0.2, 0.0, 0.0]):
        for rate in (reading.private_reading_rate_n1,
                     reading.coherent_info_rate):
            with pytest.raises(ValueError, match="simplex"):
                rate(cell, probs, psi)


def test_zero_error_certificate():
    rep = reading.zero_error_certificate()
    assert rep["ok"]
    assert rep["min_eig"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-10)
    assert rep["identity_residual"] <= 1e-10


def test_secure_reading_depolarizing():
    out = reading.secure_reading_deltas('depolarizing', q=0.005, N=1000,
                                        eta0=0.8, eta1=0.7)
    assert out["D_I"] == pytest.approx(out["D_I_closed"], abs=1e-10)
    assert out["D_I"] == pytest.approx(out["D_C"], abs=1e-9)
    assert out["N_D_I"] == pytest.approx(1000 * out["D_I"], abs=1e-12)
    # q = 0 hides nothing to detect
    zero = reading.secure_reading_deltas('depolarizing', q=0.0, N=10,
                                         eta0=0.8, eta1=0.7)
    assert zero["D_I"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d, eta0", [(2, -1 / 3), (3, -0.125), (2, 1.0)])
def test_secure_reading_blank_cell_at_range_edge(d, eta0):
    # at eta0 = 1 - d^2/(d^2 - 1) the blank output loses an eigenvalue
    # (l1_0 = 0), at eta0 = 1 it is pure (l2_0 = 0): the mixture's support
    # is larger, so both parameters and the closed form are inf
    out = reading.secure_reading_deltas('depolarizing', q=0.005, N=1000,
                                        eta0=eta0, eta1=0.7, d=d)
    assert out["D_I"] == out["D_C"] == out["D_I_closed"] == math.inf
    # equal cells: the l = l_0 = 0 terms drop and nothing is detectable
    same = reading.secure_reading_deltas('depolarizing', q=0.005, N=1000,
                                         eta0=eta0, eta1=eta0, d=d)
    assert same["D_I_closed"] == 0.0
    assert same["D_I"] == pytest.approx(0.0, abs=1e-12)


def test_secure_reading_monotone_in_contrast():
    vals = []
    for eta1 in (0.5, 0.6, 0.7, 0.79):
        out = reading.secure_reading_deltas('depolarizing', q=0.005, N=1000,
                                            eta0=0.8, eta1=eta1)
        vals.append(out["D_I"])
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_secure_reading_gadc():
    out = reading.secure_reading_deltas('gadc', q=0.005, N=1000,
                                        eta0=0.45, eta1=0.4, theta=0.5)
    assert out["D_I"] == pytest.approx(out["D_C"], abs=1e-9)
    assert out["D_I"] > 0
