import math

import numpy as np
import pytest
from scipy.linalg import expm

from qbound import dynamics as dyn
from qbound import infomeasures as im
from qbound import qcore
from conftest import random_channel


def damping_generator(gamma=1.0):
    A = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma_minus
    return dyn.LindbladGenerator(np.zeros((2, 2)), [(gamma, A)])


def random_lindblad(d, rng, n_jumps=2):
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (H + H.conj().T) / 2
    jumps = []
    for _ in range(n_jumps):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append((float(rng.uniform(0.2, 1.0)), A / np.linalg.norm(A)))
    return dyn.LindbladGenerator(H, jumps)


def test_generator_traceless(rng):
    gen = random_lindblad(3, rng)
    rho = qcore.random_density(3, rng).matrix
    L = gen.apply(0.0, rho)
    assert abs(np.trace(L)) < 1e-12
    assert np.abs(L - L.conj().T).max() < 1e-12
    # Heisenberg picture is the adjoint: Tr{X L(rho)} = Tr{L*(X) rho}
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X = (X + X.conj().T) / 2
    lhs = np.trace(X @ L)
    rhs = np.trace(gen.adjoint_apply(0.0, X) @ rho)
    assert abs(lhs - rhs) < 1e-12


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [2, 3])
def test_generator_time_dependent_parts_match_direct_formula(d, rng):
    """Callable H(t) and A(t), a callable rate on a constant jump and a
    constant term, applied to a stack of non-Hermitian matrices."""
    H0, H1 = (X + X.conj().T for X in _random_complex(rng, 2, d, d))
    A0, A1, B, C = _random_complex(rng, 4, d, d)
    H = lambda t: H0 + t * H1
    A = lambda t: A0 + math.sin(t) * A1
    jumps = [(lambda t: 0.5 + t * t, A), (lambda t: math.cos(t), B), (0.3, C)]
    gen = dyn.LindbladGenerator(H, jumps)

    def direct(t, R, adjoint):
        Ht = H(t)
        out = (1j if adjoint else -1j) * (Ht @ R - R @ Ht)
        for g, Aj in jumps:
            g = g(t) if callable(g) else g
            Aj = Aj(t) if callable(Aj) else Aj
            Ad, AdA = Aj.conj().T, Aj.conj().T @ Aj
            sandwich = Ad @ R @ Aj if adjoint else Aj @ R @ Ad
            out = out + g * (sandwich - 0.5 * (AdA @ R + R @ AdA))
        return out

    rho, X = _random_complex(rng, 2, 3, d, d)
    for t in (0.0, 0.7):
        L_rho = gen.apply(t, rho)
        adj_X = gen.adjoint_apply(t, X)
        assert L_rho.shape == adj_X.shape == (3, d, d)
        assert np.abs(L_rho - direct(t, rho, False)).max() <= 1e-12
        assert np.abs(adj_X - direct(t, X, True)).max() <= 1e-12
        # Tr{X L(rho)} = Tr{L^dag(X) rho}: the generator preserves
        # Hermiticity, so this holds without conjugating X
        lhs = np.einsum('kij,kji->k', X, L_rho)
        rhs = np.einsum('kij,kji->k', adj_X, rho)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_evolve_amplitude_damping():
    gen = damping_generator()
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    ts = np.linspace(0, 2, 9)
    traj = dyn.evolve(gen, rho0, ts)
    for t, rho in zip(ts, traj):
        x = np.exp(-t)
        assert np.abs(rho - np.diag([1 - x, x])).max() < 1e-8


def normalized_lindblad(d, rng):
    """Constant-rate generator shaped like the divisible trajectories of
    acceptance criterion 9: unit-norm H and one unit-norm jump at rate 0.7."""
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (H + H.conj().T) / 2
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return dyn.LindbladGenerator(H / np.linalg.norm(H),
                                 [(0.7, A / np.linalg.norm(A))])


def test_evolve_raises_on_step_size_underflow():
    gen = damping_generator()
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ArithmeticError, match="step size underflow"):
        dyn.evolve(gen, rho0, [0.0, 1.0], local_err=0.0)


@pytest.mark.parametrize("local_err", [-1.0, float("nan")])
def test_evolve_rejects_bad_local_err(local_err):
    # a negative bound rejected even a step of error 0 and grew its size
    # without end, so evolve never returned
    with pytest.raises(ValueError, match="local_err"):
        dyn.evolve(damping_generator(), np.eye(2) / 2, [0.0, 1.0],
                   local_err=local_err)


@pytest.mark.parametrize("t_grid", [[], [0.0, float("nan"), 1.0],
                                    [0.0, float("inf")]])
def test_evolve_rejects_empty_or_non_finite_grid(t_grid):
    # a time that is not finite made the step size NaN or infinite, and
    # the step loop never ended
    with pytest.raises(ValueError, match="t_grid"):
        dyn.evolve(damping_generator(), np.eye(2) / 2, t_grid)


@pytest.mark.parametrize("d", [2, 3])
def test_evolve_stack_matches_single_states(d, rng):
    gen = random_lindblad(d, rng)
    states = [qcore.random_density(d, rng).matrix for _ in range(4)]
    ts = np.linspace(0.0, 1.0, 6)
    # the stack takes the steps of its worst state, so the two runs agree
    # to the integration error, about local_err / 2 here
    stacked = dyn.evolve(gen, np.array(states), ts, local_err=1e-13)
    assert len(stacked) == len(ts)
    for i, rho0 in enumerate(states):
        for got, want in zip(stacked,
                             dyn.evolve(gen, rho0, ts, local_err=1e-13)):
            assert got.shape == (len(states), d, d)
            assert np.abs(got[i] - want).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_evolve_matches_exact_propagator(d, rng):
    ts = np.linspace(0.0, 1.0, 8)
    for _ in range(4):
        gen = normalized_lindblad(d, rng)
        # superoperator on row-major vec(rho), one column per matrix unit
        S = np.column_stack([gen.apply(0.0, E.reshape(d, d)).ravel()
                             for E in np.eye(d * d, dtype=complex)])
        rho0 = qcore.random_density(d, rng).matrix
        for t, rho in zip(ts, dyn.evolve(gen, rho0, ts)):
            exact = (expm(S * t) @ rho0.ravel()).reshape(d, d)
            assert np.abs(rho - exact).max() <= 1e-9


def test_entropy_rate_matches_finite_difference(rng):
    gen = random_lindblad(3, rng)
    rho0 = qcore.random_density(3, rng).matrix
    t, h = 0.4, 1e-5
    r_m, r, r_p = dyn.evolve(gen, rho0, [t - h, t, t + h])
    rate = dyn.entropy_rate(r, gen.apply(t, r))
    fd = (im.entropy(r_p, base='nats') - im.entropy(r_m, base='nats')) / (2 * h)
    assert rate == pytest.approx(fd, abs=1e-6)


def test_entropy_rate_analytic_damping():
    rho, rate_exact = dyn.damping_trajectory(0.7)
    gen = damping_generator()
    rate = dyn.entropy_rate(rho, gen.apply(0.7, rho))
    assert rate == pytest.approx(rate_exact, abs=1e-8)


def test_entropy_rate_analytic_oscillatory():
    for t in (0.1, 0.37, 0.8):
        rho, rate_exact = dyn.oscillatory_trajectory(t)
        v = np.pi * np.sin(2 * np.pi * t)
        rhodot = np.diag([-v, v]).astype(complex)
        num = dyn.entropy_rate(rho, rhodot)
        assert num == pytest.approx(rate_exact, abs=1e-8)


def test_markov_bound_forms_agree(rng):
    gen = random_lindblad(3, rng)
    rho = qcore.random_density(3, rng).matrix
    a = dyn.markov_lower_bound(gen, 0.0, rho, method="projector")
    b = dyn.markov_lower_bound(gen, 0.0, rho, method="commutator")
    assert a == pytest.approx(b, abs=1e-10)


def test_witness_nonnegative_along_markovian(rng):
    gen = random_lindblad(2, rng)
    rho0 = qcore.random_density(2, rng).matrix
    ts = np.linspace(0, 1.5, 16)
    traj = dyn.evolve(gen, rho0, ts)
    for t, rho in zip(ts, traj):
        assert dyn.witness_f(gen, t, rho) >= -1e-7


@pytest.mark.parametrize("d", [2, 3])
def test_witness_f_is_rate_minus_projector_bound(d, rng):
    gen = random_lindblad(d, rng)
    for _ in range(5):
        rho = qcore.random_density(d, rng).matrix
        want = (dyn.entropy_rate(rho, gen.apply(0.3, rho))
                - dyn.markov_lower_bound(gen, 0.3, rho, method="projector"))
        assert dyn.witness_f(gen, 0.3, rho) == pytest.approx(want, abs=1e-12)


def test_witness_f_stack_matches_single_states(rng):
    gen = random_lindblad(3, rng)
    v = np.array([1.0, 1j, 0.0]) / math.sqrt(2)
    states = [qcore.random_density(3, rng).matrix for _ in range(4)]
    states.append(np.outer(v, v.conj()))  # pure: the rank grows
    got = dyn.witness_f(gen, 0.2, np.array(states))
    want = [dyn.witness_f(gen, 0.2, r) for r in states]
    assert got.shape == (len(states),)
    assert got[-1] == math.inf
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_witness_f_infinite_when_rank_grows():
    gen = damping_generator()
    rho = np.diag([0.0, 1.0]).astype(complex)
    assert dyn.witness_f(gen, 0.0, rho) == math.inf


def test_witness_f_time_array_matches_per_time_calls(rng):
    # time-dependent H, rate and jump operator, so each time has its own L(t)
    H0 = random_lindblad(2, rng).hamiltonian(0.0)
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = dyn.LindbladGenerator(
        lambda t: (1 + t) * H0,
        [(lambda t: 0.4 + math.cos(3 * t), A),
         (0.3, lambda t: np.diag([1.0, np.exp(1j * t)]))])
    ts = np.linspace(0.0, 1.0, 6)
    states = [qcore.random_density(2, rng).matrix for _ in range(3)]
    states.append(np.diag([0.0, 1.0]).astype(complex))  # pure: the rank grows
    traj = np.array(dyn.evolve(gen, np.array(states), ts))
    got = dyn.witness_f(gen, ts, traj)
    want = np.array([dyn.witness_f(gen, t, r) for t, r in zip(ts, traj)])
    assert got.shape == (len(ts), len(states))
    assert got[0, -1] == math.inf
    np.testing.assert_array_equal(got, want)
    # a (T, d, d) trajectory of one state
    got = dyn.witness_f(gen, ts, traj[:, 0])
    want = [dyn.witness_f(gen, t, r) for t, r in zip(ts, traj[:, 0])]
    np.testing.assert_array_equal(got, want)


def test_witness_f_rejects_mismatched_times(rng):
    gen = random_lindblad(2, rng)
    traj = np.array([qcore.random_density(2, rng).matrix for _ in range(4)])
    for t in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="do not match"):
            dyn.witness_f(gen, t, traj)
    with pytest.raises(ValueError, match="do not match"):
        dyn.witness_f(gen, np.zeros(2), traj[0])


def test_witness_f_rejects_retained_negative_eigenvalue():
    # no dynamics at all, so the rank does not grow and the log is needed
    gen = dyn.LindbladGenerator(np.zeros((2, 2)))
    bad = np.diag([0.6, -0.4]).astype(complex)
    with pytest.raises(ValueError, match="retained eigenvalue"):
        dyn.witness_f(gen, 0.0, bad)
    with pytest.raises(ValueError, match="retained eigenvalue"):
        dyn.witness_f(gen, [0.0, 1.0], np.array([np.eye(2) / 2, bad]))


def test_nonmarkov_measure_one_witness_call(monkeypatch):
    calls = []
    witness = dyn.witness_f

    def counted(gen, t, rho):
        calls.append(np.shape(t))
        return witness(gen, t, rho)
    monkeypatch.setattr(dyn, "witness_f", counted)
    dyn.nonmarkov_measure(damping_generator(), 1.0, n_steps=20)
    assert calls == [(21,)]


def test_nonmarkov_measure_vanishes_for_lindblad(rng):
    gen = damping_generator()
    rep = dyn.nonmarkov_measure(gen, 2.0, n_steps=60)
    assert rep["measure"] == pytest.approx(0.0, abs=1e-9)


def test_nonmarkov_measure_pinned_value():
    """Phase-covariant qubit with a sign-changing decay rate on the default
    Bloch grid; the value was computed with adaptive RK4 step doubling and
    the witness evaluated state by state."""
    Z = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = dyn.LindbladGenerator(Z / 2, [(lambda t: 0.4 + math.cos(3 * t), sm),
                                        (0.05, Z)])
    rep = dyn.nonmarkov_measure(gen, 3.0, n_steps=200)
    assert rep["measure"] == pytest.approx(0.31898809060796, abs=1e-9)


def test_gadc_family_analytic_consistency():
    fam = dyn.gadc_family(5.0)
    for t in (0.2, 0.9, 2.4):
        rho = fam.state(t)
        ch = fam.channel_at(t)
        assert np.abs(ch.apply(np.eye(2) / 2) - rho).max() < 1e-10
        # analytic f against numeric entropy rate + numeric W
        h = 1e-6
        Sdot = (im.entropy(fam.state(t + h), base='nats')
                - im.entropy(fam.state(t - h), base='nats')) / (2 * h)
        assert fam.entropy_rate(t) == pytest.approx(Sdot, abs=1e-6)
        assert fam.f(t) == pytest.approx(fam.entropy_rate(t) + fam.W(t),
                                         abs=1e-12)


def test_gadc_witness_negative_somewhere():
    fam = dyn.gadc_family(5.0)
    ts = np.linspace(1e-3, 5, 400)
    assert min(fam.f(t) for t in ts) < 0


def test_blp_zero_for_gadc_probe_pair():
    fam = dyn.gadc_family(5.0)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    ts = np.linspace(0, 5, 200)
    assert dyn.blp_for_family(fam.channel_at, a, b, ts) == pytest.approx(
        0.0, abs=1e-8)


def test_blp_detects_distance_revival():
    ts = np.linspace(0, 2, 201)
    dists = np.abs(np.cos(np.pi * ts))  # two full revivals
    assert dyn.blp_measure(ts, dists) == pytest.approx(2.0, abs=0.05)


def test_entropy_change_bounds_chain(rng):
    for _ in range(5):
        ch = random_channel(3, 3, 2, rng)
        rho = qcore.random_density(3, rng).matrix
        rep = dyn.entropy_change_bounds(ch, rho)
        assert rep["lower"] <= rep["middle"] + 1e-9
        assert rep["middle"] <= rep["upper"] + 1e-9


def test_diamond_distance_known_values():
    ident = qcore.identity_channel(2)
    Z = qcore.KrausChannel([np.diag([1.0, -1.0]).astype(complex)])
    assert dyn.diamond_distance(ident, Z) == pytest.approx(2.0, abs=1e-6)
    P = qcore.KrausChannel([np.diag([1.0, 1j]).astype(complex)])
    assert dyn.diamond_distance(ident, P) == pytest.approx(np.sqrt(2), abs=1e-6)
    assert dyn.diamond_distance(ident, ident) == pytest.approx(0.0, abs=1e-6)


def test_nonunitarity_depolarizing_closed_form():
    for d in (2, 3):
        for q in (0.0, 0.3, 0.7, 1.0):
            got = dyn.nonunitarity(qcore.depolarizing(d, q))
            want = dyn.depolarizing_nonunitarity(d, q)
            assert got == pytest.approx(want, abs=1e-5)


def test_nonunitarity_endpoint():
    assert dyn.nonunitarity(qcore.depolarizing(2, 1.0)) == pytest.approx(
        1.5, abs=1e-6)


def test_nonunitarity_zero_for_unitary():
    U = np.diag([1.0, np.exp(0.3j)])
    ch = qcore.KrausChannel([U])
    assert dyn.nonunitarity(ch) == pytest.approx(0.0, abs=1e-6)


def test_unitarity_gap_check(rng):
    ch = qcore.depolarizing(2, 0.01)
    rep = dyn.unitarity_gap_check(ch, np.eye(2, dtype=complex))
    assert rep["holds"]
