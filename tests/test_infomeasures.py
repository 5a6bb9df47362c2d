import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound import infomeasures as im
from qbound import linalg, qcore
from conftest import random_channel


def rand_state(d, rng):
    return qcore.random_density(d, rng).matrix


def test_entropy_known_values():
    assert im.entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert im.entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert im.entropy(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)
    assert im.entropy(np.eye(2) / 2, base='nats') == pytest.approx(
        np.log(2), abs=1e-12)


def test_relative_entropy_classical():
    # classical 2-point distributions embedded diagonally
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    expect = float(np.sum(p * np.log2(p / q)))
    assert im.relative_entropy(np.diag(p), np.diag(q)) == pytest.approx(
        expect, abs=1e-12)


def test_relative_entropy_support_violation():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert im.relative_entropy(rho, sigma) == math.inf
    assert im.dmax(rho, sigma) == math.inf
    assert im.sandwiched_renyi(rho, sigma, 2.0) == math.inf


def test_batched_relative_entropies_match_single_calls(rng):
    sigma = rand_state(3, rng)
    states = np.array([rand_state(3, rng) for _ in range(4)])
    for base in ('bits', 'nats'):
        neg = -np.array([im.entropy(s, base) for s in states])
        divs = im._relative_entropies(states, sigma, neg, base)
        for s, D in zip(states, divs):
            assert D == pytest.approx(im.relative_entropy(s, sigma, base),
                                      abs=1e-12)
    # only the state with weight outside the support of sigma gets inf
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    states = np.array([np.diag(d).astype(complex) for d in
                       ([0.7, 0.3, 0.0], [0.5, 0.4, 0.1], [0.2, 0.8, 0.0])])
    neg = -np.array([im.entropy(s) for s in states])
    divs = im._relative_entropies(states, sigma, neg, 'bits')
    assert divs[1] == math.inf
    assert np.isfinite(divs[[0, 2]]).all()
    assert divs[0] == pytest.approx(im.relative_entropy(states[0], sigma),
                                    abs=1e-12)


def test_dmax_classical():
    rho = np.diag([0.8, 0.2]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert im.dmax(rho, sigma) == pytest.approx(np.log2(1.6), abs=1e-10)


def test_renyi_orderings(rng):
    rho, sigma = rand_state(3, rng), rand_state(3, rng)
    D = im.relative_entropy(rho, sigma)
    D2 = im.sandwiched_renyi(rho, sigma, 2.0)
    Dhalf = im.sandwiched_renyi(rho, sigma, 0.5)
    Dm = im.dmax(rho, sigma)
    # monotone in alpha, with dmax the alpha -> inf limit
    assert Dhalf <= D + 1e-9
    assert D <= D2 + 1e-9
    assert D2 <= Dm + 1e-9
    # alpha -> 1 recovers the relative entropy
    assert im.sandwiched_renyi(rho, sigma, 1.00001) == pytest.approx(D, abs=1e-3)


def test_sandwiched_renyi_continuous_near_one():
    # the limit D(rho||sigma) serves only |alpha - 1| <= 1e-7; with the cut
    # at 1e-4 the value jumped 3.1e-5 on this pair over a step of 1e-8 in
    # alpha, where it should change by the alpha-slope (0.31) times 1e-8
    rng = np.random.default_rng(0)
    rho, sigma = rand_state(3, rng), rand_state(3, rng)
    f = lambda a: im.sandwiched_renyi(rho, sigma, a)
    slope = (f(1.0002) - f(1.0001)) / 1e-4
    assert abs(f(1.00010001) - f(1.0001) - slope * 1e-8) <= 1e-9
    for side in (1, -1):
        assert f(1 + side * 0.9e-7) == im.relative_entropy(rho, sigma)
        assert abs(f(1 + side * 1.1e-7) - f(1 + side * 0.9e-7)) <= 1e-7


def test_renyi_classical_oracle():
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    a = 2.0
    expect = float(np.log2(np.sum(p ** a * q ** (1 - a))) / (a - 1))
    got = im.sandwiched_renyi(np.diag(p), np.diag(q), a)
    assert got == pytest.approx(expect, abs=1e-10)


def test_sandwiched_objective_gradient_matches_central_differences(rng):
    # oracle: central differences along an orthonormal Hermitian basis
    from qbound.sdp import hermitian_basis

    def central_gradient(sigma, probs, states, alpha, h=1e-6):
        f = lambda s: im.sandwiched_objective(s, probs, states, alpha)[0]
        return sum((f(sigma + h * B) - f(sigma - h * B)) / (2 * h) * B
                   for B in hermitian_basis(sigma.shape[0]))

    sigma = rand_state(4, rng)
    rho = rand_state(4, rng)
    cases = [([1.0], [rho], 2.0),
             ([0.2, 0.5, 0.3], [rand_state(4, rng) for _ in range(3)], 1.5)]
    for probs, states, alpha in cases:
        val, G = im.sandwiched_objective(sigma, probs, states, alpha)
        ref = central_gradient(sigma, probs, states, alpha)
        assert np.abs(G - ref).max() <= 1e-6 * np.abs(ref).max()
    val, _ = im.sandwiched_objective(sigma, [1.0], [rho], 2.0)
    assert val == pytest.approx(im.sandwiched_renyi(rho, sigma, 2.0), abs=1e-10)


def test_sandwiched_objective_batched_matches_per_state_loop(rng):
    # oracle: one eigendecomposition of Q_x per state with p_x > 0, its
    # eigenvalues below 1e-16 times its largest sliced away
    def looped(sigma, probs, states, alpha):
        e = (1 - alpha) / (2 * alpha)
        ws, Vs = linalg.floored_eigh(sigma)
        Se = (Vs * ws ** e) @ Vs.conj().T
        tot, K = 0.0, np.zeros_like(Se)
        for p, R in zip(probs, states):
            if p <= 0:
                continue
            q, U = np.linalg.eigh(Se @ R @ Se)
            keep = q > 1e-16 * max(abs(q).max(), 1e-300)
            q, U = q[keep], U[:, keep]
            tot += p * np.sum(q ** alpha)
            M = R @ Se @ (U * q ** (alpha - 1)) @ U.conj().T
            K += p * (M + M.conj().T)
        dSe = linalg.frechet_derivative(ws, Vs, lambda x: x ** e,
                                        lambda x: e * x ** (e - 1), K)
        return (np.log2(tot) / (alpha - 1),
                alpha * dSe / ((alpha - 1) * np.log(2) * tot))

    sigma = rand_state(3, rng)
    probs = [0.3, 0.0, 0.25, 0.45]
    states = [rand_state(3, rng), rand_state(3, rng),
              qcore.random_density(3, rng, rank=1).matrix, rand_state(3, rng)]
    for alpha in (1.5, 2.0, 3.0):
        val, G = im.sandwiched_objective(sigma, probs, states, alpha)
        ref, Gref = looped(sigma, probs, states, alpha)
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert np.abs(G - Gref).max() <= 1e-12


def neyman_pearson(p, q, eps):
    """Classical hypothesis-testing divergence by the exact water-filling."""
    order = np.argsort(q / p)  # accept likeliest-under-p first
    pw, qw = p[order], q[order]
    need, spent, beta = 1 - eps, 0.0, 0.0
    for pi, qi in zip(pw, qw):
        take = min(1.0, (need - spent) / pi) if pi > 0 else 0.0
        take = max(take, 0.0)
        beta += take * qi
        spent += take * pi
        if spent >= need - 1e-15:
            break
    return -np.log2(beta)


def test_hypothesis_testing_matches_neyman_pearson():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    for eps in (0.0, 0.1, 0.3):
        expect = neyman_pearson(p, q, eps)
        got = im.hypothesis_testing(np.diag(p), np.diag(q), eps)
        assert got == pytest.approx(expect, abs=1e-6)


def test_hypothesis_testing_eps_zero_equals_support_overlap():
    # eps = 0 forces Lambda >= supp(rho): value -log2 Tr{P_rho sigma}
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    assert im.hypothesis_testing(rho, sigma, 0.0) == pytest.approx(2.0, abs=1e-6)


def test_mutual_information_bell():
    phi = qcore.max_ent_state(2)
    assert im.mutual_information(phi, (2, 2)) == pytest.approx(2.0, abs=1e-10)
    assert im.coherent_information(phi, (2, 2)) == pytest.approx(1.0, abs=1e-10)
    prod = np.kron(np.eye(2) / 2, np.eye(2) / 2)
    assert im.mutual_information(prod, (2, 2)) == pytest.approx(0.0, abs=1e-10)


def test_cmi_of_markov_state():
    # rho_AB (x) rho_C has I(A;B|C) = I(A;B)
    phi = qcore.max_ent_state(2)
    rho = np.kron(phi, np.eye(2) / 2)
    assert im.conditional_mutual_information(rho, (2, 2, 2)) == pytest.approx(
        2.0, abs=1e-10)


def test_holevo_and_cq_state():
    probs = [0.5, 0.5]
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert im.holevo(probs, states) == pytest.approx(1.0, abs=1e-12)
    tau = im.cq_state(probs, states)
    assert im.mutual_information(tau, (2, 2)) == pytest.approx(1.0, abs=1e-10)
    # both refuse what is not a probability vector
    for bad in ([0.7, 0.7], [1.5, -0.5]):
        for fn in (im.holevo, im.cq_state):
            with pytest.raises(ValueError, match="simplex"):
                fn(bad, states)


def test_rel_entropy_variance_classical():
    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    llr = np.log2(p / q)
    D = float(np.sum(p * llr))
    expect = float(np.sum(p * (llr - D) ** 2))
    assert im.rel_entropy_variance(np.diag(p), np.diag(q)) == pytest.approx(
        expect, abs=1e-10)
    # variance vanishes at rho = sigma
    assert im.rel_entropy_variance(np.diag(p), np.diag(p)) == pytest.approx(
        0.0, abs=1e-12)


def test_fidelity_and_trace_distance(rng):
    rho = rand_state(3, rng)
    assert im.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert im.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    # pure states: F = |<a|b>|^2
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    F = im.fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
    assert F == pytest.approx(0.5, abs=1e-10)


def test_metric_checks_slacks_nonnegative(rng):
    for _ in range(5):
        rho, sigma = rand_state(3, rng), rand_state(3, rng)
        rep = im.metric_checks(rho, sigma)
        assert rep["fvg_lower_slack"] >= -1e-9
        assert rep["fvg_upper_slack"] >= -1e-9
        assert rep["pinsker_slack"] >= -1e-9


def test_binary_entropy_and_g():
    assert im.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert im.binary_entropy(0.0) == 0.0
    assert im.g_fn(0) == 0.0
    assert im.g_fn(1) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        im.binary_entropy(1.5)


def test_afw_check(rng):
    rho, sigma = rand_state(4, rng), rand_state(4, rng)
    rep = im.afw_check(rho, sigma, (2, 2))
    assert rep["slack"] >= -1e-9
    same = im.afw_check(rho, rho, (2, 2))
    assert same["lhs"] == pytest.approx(0.0, abs=1e-10)


def test_eeprop_check_maximally_entangled():
    psi = qcore.max_ent_vector(3)
    rep = im.eeprop_check(psi, (3, 3), eps=0.01)
    assert rep["applicable"]
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert rep["slack"] >= -1e-9


def test_eeprop_check_local_basis_twist(rng):
    # a locally rotated maximally entangled state is still maximal
    from conftest import haar_unitary
    U = haar_unitary(2, rng)
    psi = np.kron(np.eye(2), U) @ qcore.max_ent_vector(2)
    rep = im.eeprop_check(psi, (2, 2), eps=0.01)
    assert rep["applicable"]
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_eeprop_not_applicable_for_product():
    psi = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0])).astype(complex)
    rep = im.eeprop_check(psi, (2, 2), eps=0.01)
    assert not rep["applicable"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_data_processing_all_divergences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    rho = qcore.random_density(d, rng).matrix
    sigma = qcore.random_density(d, rng).matrix
    ch = random_channel(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
    Nr, Ns = ch.apply(rho), ch.apply(sigma)
    assert im.relative_entropy(Nr, Ns) <= im.relative_entropy(rho, sigma) + 1e-8
    assert im.dmax(Nr, Ns) <= im.dmax(rho, sigma) + 1e-8
    a = float(rng.uniform(1.1, 3.0))
    assert im.sandwiched_renyi(Nr, Ns, a) <= im.sandwiched_renyi(rho, sigma, a) + 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_entropy_concavity(seed):
    rng = np.random.default_rng(seed)
    rho = qcore.random_density(3, rng).matrix
    sigma = qcore.random_density(3, rng).matrix
    lam = float(rng.uniform())
    mix = lam * rho + (1 - lam) * sigma
    assert im.entropy(mix) >= lam * im.entropy(rho) + (1 - lam) * im.entropy(sigma) - 1e-10
