import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qbound import infomeasures as im
from qbound import linalg, qcore, rains, sdp

from conftest import haar_unitary, random_channel


def test_state_bound_max_ent():
    for d in (2, 3):
        phi = qcore.max_ent_state(d)
        val, wit = rains.rmax_state(phi, (d, d))
        assert val == pytest.approx(np.log2(d), abs=1e-7)
        assert wit["gap"] <= 1e-6


def test_state_bound_product_is_zero(rng):
    rho = np.kron(qcore.random_density(2, rng).matrix,
                  qcore.random_density(2, rng).matrix)
    val, _ = rains.rmax_state(rho, (2, 2))
    assert abs(val) < 1e-6


def test_channel_bound_identity_and_depolarizing():
    val, _ = rains.rmax_channel(qcore.identity_channel(2))
    assert val == pytest.approx(1.0, abs=1e-6)
    # fully depolarizing output is a constant channel: no entanglement
    val, _ = rains.rmax_channel(qcore.depolarizing(2, 1.0))
    assert abs(val) < 1e-5


def test_bidirectional_choi_ordering():
    N = qcore.partial_swap(0.0)
    J, dims = rains.bidirectional_choi(N)
    assert dims == (2, 2, 2, 2)
    assert abs(np.trace(J).real - 4) < 1e-10
    # swapping maximally entangled halves: J is pure of rank 1 per block pair
    assert np.linalg.eigvalsh(J)[0] > -1e-10


def test_bidirectional_swap_and_identity():
    out = rains.rmax_bidirectional(qcore.partial_swap(0.0))
    assert out["value"] == pytest.approx(2.0, abs=1e-4)
    assert out["gap"] <= 1e-6
    out = rains.rmax_bidirectional(qcore.partial_swap(1.0))
    assert abs(out["value"]) < 1e-4
    assert out["gap"] <= 1e-6


def test_bidirectional_swap_dephasing_half():
    out = rains.rmax_bidirectional(
        qcore.swap_then_collective_dephasing(0.5, np.pi))
    assert out["value"] == pytest.approx(1.0, abs=1e-2)
    assert out["gap"] <= 1e-6


def _criterion_9_unitaries():
    """The 20 Haar unitaries of criterion 9's amortization spot-checks,
    by replaying that test's draws from default_rng(23)."""
    rng = np.random.default_rng(23)
    for _ in range(100):  # data processing
        d = int(rng.integers(2, 4))
        qcore.random_density(d, rng)
        qcore.random_density(d, rng)
        random_channel(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        rng.uniform(1.1, 3.0)
    for _ in range(100):  # entropy-change chain
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        rng.dirichlet(np.ones(k))
        for _ in range(k):
            haar_unitary(d, rng)
        qcore.random_density(d, rng)
    unitaries = []
    for _ in range(20):
        unitaries.append(haar_unitary(4, rng))
        qcore.random_density(16, rng, dims=(2, 2, 2, 2))
    return unitaries


def _certified_channels():
    # a Klein-covariant channel, a Haar unitary, which is solved in its KAK
    # canonical frame and rotated back, and the seeded 2-Kraus channel of
    # test_bidirectional_non_covariant_takes_full_path, on the full path
    U = haar_unitary(4, np.random.default_rng(3))
    ch = random_channel(4, 4, 2, np.random.default_rng(9))
    return [qcore.partial_swap(0.25),
            qcore.BipartiteChannel(qcore.KrausChannel([U]), (2, 2), (2, 2)),
            qcore.BipartiteChannel(ch, (2, 2), (2, 2))]


def test_bidirectional_primal_certificate():
    """The primal witness, checked outside the solver: X, rho >= 0,
    -rho (x) 1 <= T_{B L_B}(X) <= rho (x) 1, Tr rho = 1, and Tr{J X} is
    the reported primal value."""
    for N in _certified_channels():
        out = rains.rmax_bidirectional(N)
        J, dims = rains.bidirectional_choi(N)
        la, a, b, lb = dims
        X, rho = out["X"], out["rho"]
        E = linalg.permute_systems(np.kron(rho, np.eye(a * b)), (la, lb, a, b),
                                   [0, 2, 3, 1])
        TX = linalg.partial_transpose(X, dims, [2, 3])
        assert np.linalg.eigvalsh(X)[0] >= -1e-8
        assert np.linalg.eigvalsh(rho)[0] >= -1e-8
        assert np.linalg.eigvalsh(E - TX)[0] >= -1e-8
        assert np.linalg.eigvalsh(E + TX)[0] >= -1e-8
        assert abs(np.trace(rho).real - 1) <= 1e-8
        assert abs(np.trace(J @ X).real - out["gamma_primal"]) <= 1e-9


def test_bidirectional_dual_certificate():
    """The dual witness, checked outside the solver: V, Y >= 0,
    T_{B L_B}(V - Y) >= J, and ||Tr_AB{V + Y}||_inf is the reported dual
    value."""
    for N in _certified_channels():
        out = rains.rmax_bidirectional(N)
        J, dims = rains.bidirectional_choi(N)
        V, Y = out["witness"]["V"], out["witness"]["Y"]
        assert np.linalg.eigvalsh(V)[0] >= -1e-8
        assert np.linalg.eigvalsh(Y)[0] >= -1e-8
        T = linalg.partial_transpose(V - Y, dims, [2, 3])
        assert np.linalg.eigvalsh(T - J)[0] >= -1e-8
        norm = linalg.schatten_norm(linalg.partial_trace(V + Y, dims, [0, 3]),
                                    np.inf)
        assert abs(norm - out["gamma_dual"]) <= 1e-8


def test_isotypic_blocks():
    rng = np.random.default_rng(4)
    paulis = qcore.hw_group(2).unitaries
    for copies, n_blocks in ((2, 4), (4, 4)):
        group = [linalg.kron(*[P] * copies) for P in paulis]
        n = 2 ** copies
        Q = qcore.isotypic_blocks(group)
        assert len(Q) == n_blocks
        assert all(Qk.shape == (n, n // n_blocks) for Qk in Q)
        Qall = np.hstack(Q)
        assert np.abs(Qall.conj().T @ Qall - np.eye(n)).max() <= 1e-12
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = sum(g @ A @ g.conj().T for g in group) / len(group)
        for j, Qj in enumerate(Q):
            for k, Qk in enumerate(Q):
                if j != k:
                    assert np.abs(Qj.conj().T @ A @ Qk).max() <= 1e-12


def _count_full_path(monkeypatch):
    calls = []
    full = rains._rmax_bidirectional_full

    def counted(N, tol=1e-9):
        calls.append(N)
        return full(N, tol)
    monkeypatch.setattr(rains, "_rmax_bidirectional_full", counted)
    return calls, full


def _check_against_full(monkeypatch, N):
    calls, full = _count_full_path(monkeypatch)
    out = rains.rmax_bidirectional(N)
    assert calls == []  # the reduced path was taken
    ref = full(N)
    assert abs(out["value"] - ref["value"]) <= 1e-6
    assert abs(out["gamma_primal"] - ref["gamma_primal"]) <= 1e-6
    assert abs(out["gamma_dual"] - ref["gamma_dual"]) <= 1e-6
    assert out["gap"] <= 1e-6 and ref["gap"] <= 1e-6


_COVARIANT = dict(
    [("partial_swap[%.2f]" % p, lambda p=p: qcore.partial_swap(float(p)))
     for p in np.linspace(0.0, 1.0, 21)]
    + [("identity", lambda: qcore.BipartiteChannel(qcore.identity_channel(4),
                                                   (2, 2), (2, 2))),
       ("swap_dephasing", lambda: qcore.swap_then_collective_dephasing(
           0.5, np.pi)),
       ("cnot", qcore.cnot)])


@pytest.mark.parametrize("name", list(_COVARIANT))
def test_bidirectional_reduced_matches_full(monkeypatch, name):
    _check_against_full(monkeypatch, _COVARIANT[name]())


@pytest.mark.parametrize("i", range(20))
def test_bidirectional_kak_matches_full(monkeypatch, i):
    U = _criterion_9_unitaries()[i]
    N = qcore.BipartiteChannel(qcore.KrausChannel([U]), (2, 2), (2, 2))
    _check_against_full(monkeypatch, N)


def test_bidirectional_non_covariant_takes_full_path(monkeypatch):
    ch = random_channel(4, 4, 2, np.random.default_rng(9))
    N = qcore.BipartiteChannel(ch, (2, 2), (2, 2))
    J, _ = rains.bidirectional_choi(N)
    assert rains._klein_residual(J) > 1e-3
    calls, _ = _count_full_path(monkeypatch)
    out = rains.rmax_bidirectional(N)
    assert calls == [N]
    assert out["gap"] <= 1e-6


@pytest.mark.parametrize("p", [0.1, 0.3, 0.9, 0.95])
def test_bidirectional_partial_swap_solves_end_optimal(monkeypatch, p):
    # an unbiased Schur complement lets these solves reach the tolerance
    # instead of stalling near the optimum as numerical_limit
    statuses = []
    solve = rains.sdp.solve

    def recorded(prob, **kw):
        sol = solve(prob, **kw)
        statuses.append(sol.status)
        return sol
    monkeypatch.setattr(rains.sdp, "solve", recorded)
    rains.rmax_bidirectional(qcore.partial_swap(p))
    assert statuses and set(statuses) == {"optimal"}


@pytest.mark.parametrize("make", [lambda: qcore.partial_swap(0.3),
                                  lambda: qcore.partial_swap(0.75),
                                  lambda: qcore.swap_then_collective_dephasing(
                                      0.5, np.pi),
                                  qcore.cnot],
                         ids=["partial_swap[0.3]", "partial_swap[0.75]",
                              "swap_dephasing", "cnot"])
def test_bidirectional_equals_choi_state_rmax(make):
    # Baeuml-Das-Wilde (arXiv:1812.08223): for these channels the
    # bidirectional max-Rains information is R_max of the normalized Choi
    # state on (L_A A : B L_B)
    N = make()
    J, dims = rains.bidirectional_choi(N)
    la, a, b, lb = dims
    val, _ = rains.rmax_state(J / np.trace(J).real, (la * a, b * lb))
    assert abs(val - rains.rmax_bidirectional(N)["value"]) <= 1e-6


def test_emax_ppt_max_ent():
    for d in (2, 3):
        val = rains.emax_ppt(qcore.max_ent_state(d), (d, d))
        assert val == pytest.approx(np.log2(d), abs=1e-6)


def test_ppt_prime_lmo_and_membership(rng):
    phi = qcore.max_ent_state(2)
    # best overlap of a PPT' operator with the 2x2 max-ent state is 1/2
    sigma = rains.ppt_prime_lmo(-phi, (2, 2))
    ov = float(np.real(np.trace(sigma @ phi)))
    assert ov == pytest.approx(0.5, abs=1e-7)
    assert rains.ppt_prime_member(sigma, (2, 2), slack=1e-6)
    # the max-ent state itself is not PPT'
    assert not rains.ppt_prime_member(phi, (2, 2), slack=1e-6)


def _lmo_uncached(G, dims, tol=1e-9):
    """The PPT' linear oracle from a fresh sdp.Model per call."""
    G = np.asarray(G, dtype=complex)
    n = G.shape[0]
    TB = lambda X: linalg.partial_transpose(X, dims, [1])
    Tr = lambda X: np.trace(X, axis1=1, axis2=2).real[:, None, None]
    m = sdp.Model()
    S = m.var(n)
    C = m.var(n)
    D = m.var(n)
    m.set_objective({S: G})
    m.add_eq([(S, lambda X: X), (C, lambda X: -TB(X)), (D, TB)],
             np.zeros((n, n), dtype=complex))
    m.add_eq([(C, Tr), (D, Tr)], np.ones((1, 1)))
    sol = m.solve(tol=tol, label="PPT' linear oracle")
    if sol.primal_value >= 0:
        return np.zeros_like(sol.primal_blocks[S])
    return sol.primal_blocks[S]


def _hermitian(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def _lmo_slack_form(G, dims, tol=1e-9):
    """argmin Tr{G sigma} over PPT' with Tr(C + D) <= 1, an inequality
    written with a 1 x 1 slack u, from a fresh sdp.Model."""
    G = np.asarray(G, dtype=complex)
    n = G.shape[0]
    TB = lambda X: linalg.partial_transpose(X, dims, [1])
    Tr = lambda X: np.trace(X, axis1=1, axis2=2).real[:, None, None]
    m = sdp.Model()
    S = m.var(n)
    C = m.var(n)
    D = m.var(n)
    u = m.var(1)
    m.set_objective({S: G})
    m.add_eq([(S, lambda X: X), (C, lambda X: -TB(X)), (D, TB)],
             np.zeros((n, n), dtype=complex))
    m.add_eq([(C, Tr), (D, Tr), (u, lambda X: X)], np.ones((1, 1)))
    return m.solve(tol=tol, label="PPT' slack form").primal_blocks[S]


def test_ppt_prime_lmo_matches_slack_form():
    # the equality form Tr(C + D) = 1 with its zero branch minimizes over
    # the same set as the inequality form with a slack
    rng = np.random.default_rng(20)
    cases = [(_hermitian(4, rng), (2, 2)), (_hermitian(6, rng), (2, 3)),
             (-qcore.max_ent_state(2), (2, 2))]
    for G, dims in cases:
        sigma = rains.ppt_prime_lmo(G, dims)
        value = np.trace(G @ sigma).real
        assert value == pytest.approx(
            np.trace(G @ _lmo_slack_form(G, dims)).real, abs=1e-7)
        assert rains.ppt_prime_member(sigma, dims, slack=1e-7)
    for dims in ((2, 2), (2, 3)):
        n = int(np.prod(dims))
        sigma = rains.ppt_prime_lmo(np.eye(n), dims)
        assert np.array_equal(sigma, np.zeros((n, n)))
        assert np.trace(_lmo_slack_form(np.eye(n), dims)).real <= 1e-7


def _random_state(n, seed):
    return qcore.random_density(n, np.random.default_rng(seed)).matrix


_BUILDERS = {  # name: (call, its two inputs)
    "ppt_prime_lmo": (lambda G: rains.ppt_prime_lmo(G, (2, 2)),
                      [_hermitian(4, np.random.default_rng(seed))
                       for seed in range(2)]),
    "rmax_state": (lambda R: rains.rmax_state(R, (2, 2)),
                   [_random_state(4, seed) for seed in range(2)]),
    "emax_ppt": (lambda R: rains.emax_ppt(R, (2, 2)),
                 [_random_state(4, seed) for seed in range(2)]),
    "rmax_channel": (rains.rmax_channel,
                     [qcore.depolarizing(2, 0.3), qcore.dephasing(0.7)]),
    "rmax_bidirectional[reduced]": (rains.rmax_bidirectional,
                                    [qcore.partial_swap(0.3), qcore.cnot()]),
    "rmax_bidirectional[full]": (
        rains.rmax_bidirectional,
        [qcore.swap_then_collective_dephasing(0.3, 1.1),
         qcore.swap_then_collective_dephasing(0.6, 0.4)]),
}


def _same(a, b):
    """Bit-for-bit equality of nested dicts, tuples and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_builders_compile_once_per_structure(monkeypatch, name):
    # only the first call for a structure evaluates the maps; a shared
    # constraint side must leave every output bit for bit that of a model
    # built fresh for each call, and the cached model as it was built
    call, (x1, x2) = _BUILDERS[name]
    program = rains._program
    program.cache_clear()
    calls, keys = [], []
    for fn in ("partial_transpose", "partial_trace"):
        def counted(*args, fn=getattr(linalg, fn)):
            calls.append(args)
            return fn(*args)
        monkeypatch.setattr(linalg, fn, counted)

    def recorded(build, *key):
        keys.append((build, key))
        return program(build, *key)
    monkeypatch.setattr(rains, "_program", recorded)
    out, counts = [], []
    for x in (x1, x2, x1):
        out.append(call(x))
        counts.append(len(calls))
    assert counts[0] > 0 and counts[2] == counts[1] == counts[0]
    assert len(set(keys)) == 1 and _same(out[0], out[2])
    # the cached model still compiles to the program its builder builds
    build, key = keys[0]
    cached, fresh = program(build, *key)[0].compile(), build(*key)[0].compile()
    assert np.array_equal(cached.b, fresh.b)
    assert all(np.array_equal(a, c) for a, c in zip(cached.C, fresh.C))
    monkeypatch.setattr(rains, "_program", program.__wrapped__)
    for x, o in zip((x1, x2, x1), out):
        assert _same(o, call(x))
    if name == "ppt_prime_lmo":
        for G, sigma in zip((x1, x2, x1), out):
            assert np.array_equal(sigma, _lmo_uncached(G, (2, 2)))


@pytest.mark.parametrize("build, key", [
    (rains._ppt_prime_program, ((2, 2),)),
    (rains._rmax_state_program, ((4, 4),)),
    (rains._inf_norm_program, ((2, 2, 2, 2), (0, 3), (2, 3), True)),
])
def test_memo_built_once_per_structure(monkeypatch, build, key):
    # the first solve's _prepare makes the one dense column-layout copy Ft
    # and one CSR copy per size class; a with_data copy gets those objects
    import scipy.sparse
    made = []
    csr_array = scipy.sparse.csr_array
    monkeypatch.setattr(scipy.sparse, "csr_array",
                        lambda a: made.append(a.shape) or csr_array(a))
    model = build(*key)[0]
    p = model.compile()
    keep, _, layout = sdp._prepare(p)
    _, spans, Ft, classes, *_ = layout
    m, N = len(keep), p.A.shape[1]
    assert made == [(m, k * n * n) for _, k, n in spans]
    assert Ft.shape == (N, m) and Ft.flags.c_contiguous
    assert not np.shares_memory(Ft, p.A)
    for (o, k, n), (view, S) in zip(spans, classes):
        assert view.shape == (k, n, n * m) and view.base is Ft
        assert np.array_equal(S.toarray(), Ft[o:o + k * n * n].T)
    # the same memo, so the same Ft and CSR objects, and nothing rebuilt
    again = model.with_data().compile()
    assert sdp._prepare(again) is sdp._prepare(p)
    assert len(made) == len(spans)


_THREADED = {  # name in _BUILDERS: its inputs
    "ppt_prime_lmo": [_hermitian(4, np.random.default_rng(seed))
                      for seed in range(8)],
    "rmax_state": [_random_state(4, seed) for seed in range(8)],
    "rmax_bidirectional[reduced]": [qcore.partial_swap(p)
                                    for p in np.linspace(0.05, 0.95, 8)],
}


@pytest.mark.parametrize("name", list(_THREADED))
def test_builders_thread_safe(name):
    # worker threads share the cached program, from a cold cache on
    call, inputs = _BUILDERS[name][0], _THREADED[name]
    rains._program.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(call, inputs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    serial = [call(x) for x in inputs]
    assert all(_same(a, b) for a, b in zip(threaded, serial))


def test_rains_relative_entropy_values(rng):
    res = rains.rains_relative_entropy(qcore.max_ent_state(2), (2, 2))
    assert res["value"] == pytest.approx(1.0, abs=1e-4)
    rho = np.kron(qcore.random_density(2, rng).matrix,
                  qcore.random_density(2, rng).matrix)
    res = rains.rains_relative_entropy(rho, (2, 2))
    assert abs(res["value"]) < 1e-4


def _nearly_pure_qubit_product():
    """(0.95, 0.05) x (0.9, 0.1) in seeded local eigenbases."""
    rng = np.random.default_rng(1)
    U, V = haar_unitary(2, rng), haar_unitary(2, rng)
    return np.kron((U * [0.95, 0.05]) @ U.conj().T,
                   (V * [0.9, 0.1]) @ V.conj().T), (2, 2)


def _qutrit_product():
    rng = np.random.default_rng(1)
    return np.kron(qcore.random_density(3, rng).matrix,
                   qcore.random_density(3, rng).matrix), (3, 3)


@pytest.mark.parametrize("make", [_nearly_pure_qubit_product, _qutrit_product])
def test_rains_relative_entropy_product_states_converge(make):
    # a product state is PPT, so its minimizer rho/||T_B rho||_1 is returned
    # with no Frank-Wolfe step and a gap within the PPT shortcut's certified
    # width; away steps from I/n are checked by
    # test_frank_wolfe_one_lmo_call_per_iteration
    rho, dims = make()
    res = rains.rains_relative_entropy(rho, dims)
    assert res["converged"]
    assert abs(res["value"]) < 1e-4
    assert res["iterations"] == 0
    assert 0 <= res["gap"] <= 1.5e-12
    assert rains.ppt_prime_member(res["sigma"], dims, slack=1e-6)


@pytest.mark.parametrize("d, w", [(2, 0.85), (3, 0.7)])
def test_rains_relative_entropy_isotropic_closed_form(d, w):
    # isotropic state of fidelity F > 1/d with the maximally entangled state
    rho = w * qcore.max_ent_state(d) + (1 - w) * np.eye(d * d) / d ** 2
    F = w + (1 - w) / d ** 2
    exact = np.log2(d) - (1 - F) * np.log2(d - 1) - im.binary_entropy(F)
    res = rains.rains_relative_entropy(rho, (d, d))
    assert res["converged"]
    assert res["value"] == pytest.approx(exact, abs=1e-5)
    if (d, w) == (2, 0.85):
        # the line minimum of the last toward step is the LMO output itself,
        # which _line_minimum returns exactly when the slope there is <= 0
        assert res["value"] == pytest.approx(exact, abs=1e-9)


def test_frank_wolfe_one_lmo_call_per_iteration(monkeypatch):
    # the benchmark tracer counts LMO calls through the module global and
    # Frank-Wolfe iterations from the returned 4-tuple
    calls = []
    lmo = rains.ppt_prime_lmo

    def counted(G, dims):
        calls.append(G)
        return lmo(G, dims)
    monkeypatch.setattr(rains, "ppt_prime_lmo", counted)
    rho, dims = _nearly_pure_qubit_product()
    g = lambda s: rains._rel_ent_gradient(rho, s)
    sigma0 = np.eye(4, dtype=complex) / 4
    for max_iter, converged in ((500, True), (3, False)):
        calls.clear()
        out = rains._frank_wolfe(g, sigma0, dims, 1e-5, max_iter)
        assert len(out) == 4
        sigma, gap, iterations, ok = out
        assert ok is converged
        assert iterations == len(calls)
        assert iterations <= 100  # away steps end the zig-zag from I/4
        assert (gap <= 1e-5) is converged
        assert rains.ppt_prime_member(sigma, dims, slack=1e-6)


def _pure_product(d, rng):
    return np.kron(qcore.random_density(d, rng, rank=1).matrix,
                   qcore.random_density(d, rng, rank=1).matrix)


def _rank_two_separable():
    rng = np.random.default_rng(5)
    return 0.3 * _pure_product(2, rng) + 0.7 * _pure_product(2, rng), (2, 2)


def _isotropic(F):
    """The two-qubit isotropic state of fidelity F with the maximally
    entangled state; it is PPT exactly when F <= 1/2."""
    w = (F - 1 / 4) / (1 - 1 / 4)
    return w * qcore.max_ent_state(2) + (1 - w) * np.eye(4) / 4, (2, 2)


_RAINS_CALLS = {
    "rains_relative_entropy": rains.rains_relative_entropy,
    "sandwiched_rains": lambda rho, dims: rains.sandwiched_rains(rho, dims,
                                                                 alpha=2),
}


@pytest.mark.parametrize("call", list(_RAINS_CALLS))
@pytest.mark.parametrize("make", [
    _rank_two_separable,
    lambda: (_pure_product(2, np.random.default_rng(2)), (2, 2)),
    lambda: (_pure_product(3, np.random.default_rng(3)), (3, 3)),
    lambda: _isotropic(0.5),
], ids=["rank-2 separable", "qubit pure product", "qutrit pure product",
        "isotropic F=1/2"])
def test_ppt_state_certified_zero_without_lmo(monkeypatch, call, make):
    # rho/||T_B rho||_1 is in PPT' and D >= -log2 Tr sigma >= 0 there, so
    # it is the minimizer, certified with no Frank-Wolfe iteration or SDP
    def fail(*args, **kwargs):
        raise AssertionError("a PPT state needs no Frank-Wolfe or LMO call")
    monkeypatch.setattr(rains, "ppt_prime_lmo", fail)
    monkeypatch.setattr(rains, "_frank_wolfe", fail)
    rho, dims = make()
    res = _RAINS_CALLS[call](rho, dims)
    assert res["converged"]
    assert res["iterations"] == 0
    assert 0 <= res["gap"] <= 1.5e-12
    assert abs(res["value"]) <= 1e-9


@pytest.mark.parametrize("call", list(_RAINS_CALLS))
def test_frank_wolfe_start_rule(monkeypatch, call):
    starts = []

    def recorded(grad, sigma0, dims):
        starts.append(sigma0)
        return sigma0, 0.0, 1, True
    monkeypatch.setattr(rains, "_frank_wolfe", recorded)
    # weight 0.85 on the maximally entangled state, and just past PPT
    for rho, dims in (_isotropic(0.85 + 0.15 / 4), _isotropic(0.5 + 1e-6)):
        _RAINS_CALLS[call](rho, dims)
    assert len(starts) == 2
    assert all(np.array_equal(s, np.eye(4) / 4) for s in starts)
    rho, dims = _nearly_pure_qubit_product()
    res = _RAINS_CALLS[call](rho, dims)
    assert len(starts) == 2
    c = linalg.schatten_norm(linalg.partial_transpose(rho, dims, [1]), 1)
    assert np.array_equal(res["sigma"], rho / c)


def test_rains_relative_entropy_evaluates_value_once(monkeypatch):
    # Frank-Wolfe steps from gradients alone; only the final sigma is valued
    calls = []
    value = rains.relative_entropy

    def counted(R, sigma):
        calls.append(sigma)
        return value(R, sigma)
    monkeypatch.setattr(rains, "relative_entropy", counted)
    rho, dims = _nearly_pure_qubit_product()
    res = rains.rains_relative_entropy(rho, dims)
    assert len(calls) == 1 and calls[0] is res["sigma"]


def _line_case(seed):
    """Seeded full-rank R and sigma, and the direction d = tau - sigma to a
    full-rank tau."""
    rng = np.random.default_rng(seed)
    R, sigma, tau = (qcore.random_density(4, rng).matrix for _ in range(3))
    return R, sigma, tau - sigma


def test_line_minimum_interior():
    for seed in range(2):
        R, sigma, d = _line_case(seed)
        # R near the segment's midpoint puts the minimum inside it
        R = 0.8 * (sigma + d / 2) + 0.2 * R
        grad = lambda s: rains._rel_ent_gradient(R, s)
        f = lambda t: im.relative_entropy(R, sigma + t * d)
        cap = 1.0
        t = rains._line_minimum(grad, sigma, d, cap, grad(sigma))
        assert 0 < t < cap
        assert f(t) <= min(map(f, np.linspace(0, cap, 2001))) + 1e-12


def test_line_minimum_endpoint():
    # the minimum lies past cap: the slope at cap is <= 0, so cap exactly
    R, sigma, d = _line_case(7)
    R = sigma + d  # f is least at t = 1
    grad = lambda s: rains._rel_ent_gradient(R, s)
    cap = 0.3 / 0.7
    slope = np.real(np.vdot(grad(sigma + cap * d), d))
    assert slope <= 0
    assert rains._line_minimum(grad, sigma, d, cap, grad(sigma)) == cap


def test_rains_orderings(rng):
    # D_Rains <= sandwiched(alpha=2) <= max-Rains on a mixed entangled state
    phi = qcore.max_ent_state(2)
    rho = 0.85 * phi + 0.15 * np.eye(4) / 4
    fw_lo = rains.rains_relative_entropy(rho, (2, 2))
    fw_mid = rains.sandwiched_rains(rho, (2, 2), alpha=2.0)
    assert fw_lo["converged"] and fw_mid["converged"]
    lo, mid = fw_lo["value"], fw_mid["value"]
    hi, _ = rains.rmax_state(rho, (2, 2))
    assert lo <= mid + 1e-3
    assert mid <= hi + 1e-3


def test_amortization_spotcheck():
    N = qcore.partial_swap(0.0)
    # max-ent on (L_A, A') and on (B', L_B)
    rho = np.kron(qcore.max_ent_state(2), qcore.max_ent_state(2))
    rep = rains.amortization_spotcheck(N, rho, (2, 2, 2, 2))
    assert rep["holds"]
    assert rep["slack"] >= -1e-6


def test_private_state_overlap():
    theta = np.eye(2, dtype=complex) / 2
    twists = {(0, 1): np.diag([1.0, -1.0]).astype(complex),
              (1, 0): np.diag([1.0, -1.0]).astype(complex)}
    gamma = rains.make_private_state(2, theta, twists)
    Pi = rains.privacy_test_operator(2, 2, twists)
    assert rains.privacy_overlap(Pi, gamma) == pytest.approx(1.0, abs=1e-10)
    # classically correlated key state passes only with probability 1/K
    keys = np.zeros((4, 4), dtype=complex)
    keys[0, 0] = keys[3, 3] = 0.5
    cl = np.kron(keys, theta)
    assert rains.privacy_overlap(Pi, cl) == pytest.approx(0.5, abs=1e-10)


def test_converse_rate_bounds():
    # strong converse: (bound + log2(1/(1-eps)) / n)
    v = rains.converse_rate_bounds('strong', 1.0, n=10, eps=0.5)
    assert v == pytest.approx(1.0 + 0.1, abs=1e-12)
    v = rains.converse_rate_bounds('strong_renyi', 1.0, n=10, eps=0.5,
                                   alpha=2.0)
    assert v == pytest.approx(1.0 + (2.0 / 10) * np.log2(2), abs=1e-12)
    v = rains.converse_rate_bounds('weak', 1.0, n=10, eps=0.5)
    assert v == pytest.approx((1.0 + 1.0 / 10) / 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        rains.converse_rate_bounds('other', 1.0, n=1, eps=0.1)
