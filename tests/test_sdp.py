import ast
from pathlib import Path

import numpy as np
import pytest

from qbound import dynamics, linalg, qcore, rains, sdp
from qbound import infomeasures as im


def scalar_lp():
    # min x subject to x >= 1, modeled as x - s = 1 with s >= 0
    return sdp.SDPProblem(
        blocks=[1, 1],
        C=[np.array([[1.0]]), np.array([[0.0]])],
        A=[[1.0, -1.0]],
        b=[1.0])


def test_scalar_lp():
    sol = sdp.solve(scalar_lp())
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert abs(sol.dual_value - 1.0) < 1e-7
    assert sol.gap < 1e-7


def test_largest_eigenvalue(rng):
    """min t with t I - H >= 0 equals lambda_max."""
    A = rng.standard_normal((4, 4))
    H = (A + A.T) / 2
    m = sdp.Model()
    t = m.var(1)
    m.set_objective({t: np.ones((1, 1))})
    m.add_psd([(t, lambda X: X * np.eye(4))], H)
    sol = m.solve()
    assert sol.status == "optimal"
    assert abs(sol.primal_value - np.linalg.eigvalsh(H)[-1]) < 1e-6


def test_complex_embedding_value(rng):
    """Hermitian data solved through the real embedding, same value."""
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (A + A.conj().T) / 2
    m = sdp.Model()
    t = m.var(1)
    m.set_objective({t: np.ones((1, 1))})
    m.add_psd([(t, lambda X: X * np.eye(3, dtype=complex))], H)
    sol = m.solve()
    assert abs(sol.primal_value - np.linalg.eigvalsh(H)[-1]) < 1e-6


def test_trace_constrained_min(rng):
    # min <C, X> over density-like X: answer is the smallest eigenvalue
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = (A + A.conj().T) / 2
    m = sdp.Model()
    X = m.var(3)
    m.set_objective({X: C})
    m.add_eq([(X, lambda M: np.trace(M, axis1=1, axis2=2).real[:, None, None])],
             np.ones((1, 1)))
    sol = m.solve()
    assert abs(sol.primal_value - np.linalg.eigvalsh(C)[0]) < 1e-6
    # the optimal X is (close to) the ground-state projector
    X_opt = sol.primal_blocks[X]
    assert abs(np.trace(X_opt).real - 1) < 1e-6


def test_presolve_drops_dependent_rows():
    # same constraint twice; solver must not choke on the singular system
    p = sdp.SDPProblem(
        blocks=[2],
        C=[np.eye(2)],
        A=[np.eye(2).ravel(), 2 * np.eye(2).ravel(),
           np.diag([1.0, 0.0]).ravel()],
        b=[1.0, 2.0, 0.25])
    sol = sdp.solve(p)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7


def test_presolve_detects_inconsistency():
    p = sdp.SDPProblem(
        blocks=[2],
        C=[np.eye(2)],
        A=[np.eye(2).ravel(), 2 * np.eye(2).ravel()],
        b=[1.0, 3.0])
    sol = sdp.solve(p)
    assert sol.status == "infeasible"


def test_presolve_blocked_rank_reveal(rng):
    """120 rows (80 independent, 40 random combinations of them) exceed
    LAPACK's pivoted-Cholesky block size, so ?pstrf takes its blocked path."""
    n = 13
    A = rng.standard_normal((80, n, n))
    A = (A + A.transpose(0, 2, 1)) / (2 * n)
    rows = np.concatenate([A, np.einsum("ka,aij->kij",
                                        rng.standard_normal((40, 80)), A)])
    order = rng.permutation(120)
    G = rng.standard_normal((n, n))
    X0 = (G @ G.T / n + np.eye(n)) / n  # strictly feasible point
    C = np.eye(n) + np.diag(rng.uniform(0, 1, n))

    def problem(R, b):
        return sdp.SDPProblem(blocks=[n], C=[C], A=R.reshape(len(R), -1),
                              b=b)

    b = np.einsum("kij,ji->k", rows, X0)
    full = problem(rows[order], b[order])
    keep, inconsistent = sdp._presolve(full.A, full.b)
    assert len(keep) == 80 and not inconsistent
    sol, ref = sdp.solve(full), sdp.solve(problem(rows[:80], b[:80]))
    assert sol.status == ref.status == "optimal"
    assert abs(sol.primal_value - ref.primal_value) <= 1e-6
    b_bad = b.copy()
    b_bad[100] += 1e-3
    assert sdp.solve(problem(rows[order], b_bad[order])).status == "infeasible"


def test_unbounded_dual_reports_infeasible():
    # x1 + x2 = -1 with x >= 0 (diagonal blocks) is infeasible
    p = sdp.SDPProblem(
        blocks=[1, 1],
        C=[np.array([[1.0]]), np.array([[1.0]])],
        A=[[1.0, 1.0]],
        b=[-1.0])
    sol = sdp.solve(p)
    assert sol.status in ("infeasible", "numerical_limit")


def test_tolerance_validation():
    with pytest.raises(ValueError):
        sdp.solve(scalar_lp(), tol=1e-2)


def test_block_budget_enforced():
    p = sdp.SDPProblem(blocks=[600], C=[np.eye(600)],
                       A=[np.eye(600).ravel()], b=[1.0])
    with pytest.raises(ValueError):
        sdp.solve(p)


@pytest.mark.parametrize("C, A, b", [
    ([np.ones((1, 1)), np.eye(2)], np.zeros((1, 4)), [1.0]),  # width 4 != 5
    ([np.ones((1, 1)), np.eye(2)], np.zeros((2, 5)), [1.0]),  # 2 rows, 1 b
    ([np.eye(2), np.eye(2)], np.zeros((1, 5)), [1.0]),  # 2x2 C for n = 1
    ([np.ones((1, 1))], np.zeros((1, 5)), [1.0]),  # one C for two blocks
])
def test_problem_shape_mismatch_raises(C, A, b):
    with pytest.raises(ValueError):
        sdp.SDPProblem([1, 2], C, A, b)


@pytest.mark.parametrize("C, A", [
    ([np.eye(2)], [np.eye(2).ravel() * 1j]),
    ([np.array([[1.0, 1j], [-1j, 2.0]])], [np.eye(2).ravel()]),
], ids=["complex A", "complex C"])
def test_problem_rejects_complex_data(C, A):
    with pytest.raises(ValueError, match="real data"):
        sdp.SDPProblem([2], C, A, [1.0])


def test_hermitian_basis_orthonormal():
    for n in (2, 3):
        B = sdp.hermitian_basis(n)
        assert len(B) == n * n
        G = np.array([[np.trace(X.conj().T @ Y).real for Y in B] for X in B])
        assert np.abs(G - np.eye(n * n)).max() < 1e-12


def test_model_operator_equality(rng):
    """Operator-valued equality expanded over the Hermitian basis."""
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    G = (A + A.conj().T) / 2
    G = G + 2 * np.eye(2)  # make it PSD so X = G is feasible
    m = sdp.Model()
    X = m.var(2)
    m.set_objective({X: np.eye(2, dtype=complex)})
    m.add_eq([(X, lambda M: M)], G)
    sol = m.solve()
    assert sol.status == "optimal"
    assert np.abs(sol.primal_blocks[X] - G).max() < 1e-6


def test_dual_multipliers_complex_and_presolved(rng):
    # min Tr CX s.t. Tr X = 1 has the multiplier lambda_min(C)
    lam = (3 - np.sqrt(5)) / 2
    C = np.array([[1.0, 1.0], [1.0, 2.0]])
    sol = sdp.solve(sdp.SDPProblem([2], [C], [np.eye(2).ravel()], [1.0]))
    assert sol.dual_multipliers[0] == pytest.approx(lam, abs=1e-7)
    # a Model's multipliers are those of its compiled real program, whose
    # right-hand sides are doubled and objective halved: lambda_min(C) / 2
    m = sdp.Model()
    X = m.var(2)
    m.set_objective({X: np.array([[1.0, 1j], [-1j, 2.0]])})
    m.add_eq([(X, lambda M: np.trace(M, axis1=1, axis2=2)[:, None, None])],
             np.ones((1, 1)))
    assert m.solve().dual_multipliers[0] == pytest.approx(lam / 2, abs=1e-7)
    # a duplicated row is dropped by the presolve but keeps its slot
    A = rng.standard_normal((3, 3))
    C = (A + A.T) / 2
    rows = [np.eye(3), 2 * np.eye(3), np.diag([1.0, 0.0, 0.0])]
    p = sdp.SDPProblem([3], [C], [R.ravel() for R in rows], [1.0, 2.0, 0.25])
    sol = sdp.solve(p)
    y = sol.dual_multipliers
    assert sol.status == "optimal" and len(y) == len(p.A)
    assert np.count_nonzero(y) == 2
    Z = C - sum(yi * R for yi, R in zip(y, rows))
    assert np.linalg.eigvalsh(Z)[0] >= -1e-7
    assert float(p.b @ y) == pytest.approx(sol.primal_value, abs=1e-6)


def test_solve_factors_each_block_once_per_iteration(monkeypatch):
    # every iteration but the last, which stops at the convergence test,
    # factors each X and each Z block once, with one batched call per size
    # class on its X and Z stacks together; Z^{-1} and the step-length
    # searches reuse those factors, one eigvalsh call per size class searching
    # the primal and dual steps together, and a lifted block would add calls
    calls = {"cholesky": [], "eigvalsh": []}

    def counting(name):
        fn = getattr(np.linalg, name)

        def counted(a):
            calls[name].append(a.shape)
            return fn(a)
        return counted
    TB = lambda X: linalg.partial_transpose(X, (2, 2), [1])
    m = sdp.Model()
    C, D, t = m.var(4), m.var(4), m.var(1)
    m.set_objective({C: np.eye(4, dtype=complex), D: np.eye(4, dtype=complex),
                     t: np.ones((1, 1), dtype=complex)})
    m.add_psd([(C, TB), (D, lambda X: -TB(X))], qcore.max_ent_state(2))
    p = m.compile()
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    sol = sdp.solve(p)
    assert sol.status == "optimal" and p.blocks == [8, 8, 2, 8]  # 2n for n
    assert sol.primal_value == pytest.approx(2.0, abs=1e-7)
    factoring, classes = sol.iterations - 1, len(set(p.blocks))
    # matrices factored: the leading stack sizes of all calls
    assert sum(int(np.prod(s[:-2])) for s in calls["cholesky"]) == \
        2 * len(p.blocks) * factoring
    assert len(calls["cholesky"]) == classes * factoring
    # predictor and corrector
    assert len(calls["eigvalsh"]) == 2 * classes * factoring


def test_model_compiles_constraints_once():
    """set_objective alone keeps the compiled constraint side, shared with
    the solver's memo; adding a variable or constraint rebuilds it, and a
    problem built by hand starts from an empty memo."""
    TB = lambda X: linalg.partial_transpose(X, (2, 2), [1])
    m = sdp.Model()
    S = m.var(4)
    m.add_eq([(S, lambda X: np.trace(X, axis1=1, axis2=2)[:, None, None])],
             np.ones((1, 1)))
    m.add_psd([(S, TB)], np.zeros((4, 4)))
    m.set_objective({S: np.diag([1.0, 2.0, 3.0, 4.0])})
    p1 = m.compile()
    sol1 = sdp.solve(p1)
    m.set_objective({S: -qcore.max_ent_state(2)})
    p2 = m.compile()
    assert p2.A is p1.A and p2.b is p1.b and p2._memo is p1._memo
    assert not np.array_equal(p2.C[0], p1.C[0])
    sol2 = sdp.solve(p2)
    assert sol1.primal_value == pytest.approx(1.0, abs=1e-7)
    assert sol2.primal_value == pytest.approx(-0.5, abs=1e-7)
    q = sdp.SDPProblem(p2.blocks, p2.C, p2.A, p2.b)
    assert q._memo == {}
    sol = sdp.solve(q)
    assert q._memo is not p2._memo and set(q._memo) == set(p2._memo)
    assert (sol.primal_value, sol.iterations) == \
        (sol2.primal_value, sol2.iterations)
    assert np.array_equal(sol.dual_multipliers, sol2.dual_multipliers)
    m.add_eq([(S, lambda X: X[:, :1, :1])], np.full((1, 1), 0.5))
    p3 = m.compile()
    assert len(p3.A) == len(p2.A) + 1 and p3.A.shape[1] == p2.A.shape[1]
    m.add_psd([(S, lambda X: X[:, :1, :1])], np.full((1, 1), 0.25))
    p4 = m.compile()
    # a Hermitian n x n block has 4 n^2 columns in the real embedding
    assert len(p4.A) == len(p3.A) + 1 and p4.A.shape[1] == p3.A.shape[1] + 4
    m.var(2)
    p5 = m.compile()
    assert len(p5.A) == len(p4.A) and p5.A.shape[1] == p4.A.shape[1] + 16
    assert p5.A is not p4.A and p5._memo == {}


@pytest.mark.parametrize("cplx", [False, True])
def test_interleaved_block_sizes_closed_form(rng, cplx):
    """min sum_b <C_b, X_b> s.t. Tr X_b = 1, X_b >= 0 is solved at X_b the
    projector onto C_b's lowest eigenvector, with value sum_b lambda_min(C_b).
    The sizes interleave, so the solver's stacks per size class must map
    back to block order. Complex data goes through Model, whose real blocks
    of dimension 2n must fold back to the variables in order."""
    sizes = [3, 1, 3, 2, 1]
    offsets = np.cumsum([0] + [n * n for n in sizes])
    A = np.zeros((len(sizes), offsets[-1]))
    C, lowest = [], []
    for bi, n in enumerate(sizes):
        A[bi, offsets[bi]:offsets[bi + 1]] = np.eye(n).ravel()
        G = rng.standard_normal((n, n))
        if cplx:
            G = G + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(G)[0]
        w = np.arange(n) + rng.uniform(-1.0, 1.0)  # eigenvalue gaps of 1
        C.append(Q @ np.diag(w) @ Q.conj().T)
        lowest.append((w[0], Q[:, 0]))
    if cplx:
        tr = lambda M: np.trace(M, axis1=1, axis2=2)[:, None, None]
        m = sdp.Model()
        xs = [m.var(n) for n in sizes]
        m.set_objective(dict(zip(xs, C)))
        for x in xs:
            m.add_eq([(x, tr)], np.ones((1, 1)))
        sol = m.solve()
    else:
        sol = sdp.solve(sdp.SDPProblem(sizes, C, A, np.ones(len(sizes))))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - sum(w for w, _ in lowest)) <= 1e-7
    assert [X.shape for X in sol.primal_blocks] == [(n, n) for n in sizes]
    for X, (_, u) in zip(sol.primal_blocks, lowest):
        assert np.abs(X - np.outer(u, u.conj())).max() <= 1e-6


def _z2_model(iso):
    """min <C, X> s.t. Tr X = 1, K X K^dag <= B, with C, K and B invariant
    under the Z2 generated by U = diag(1, -1, 1, -1). At this seed the
    inequality is active at the optimum."""
    rng = np.random.default_rng(1234)
    U = np.diag([1.0, -1.0, 1.0, -1.0])

    def invariant(M):
        return (M + U @ M @ U) / 2
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    C = invariant(G + G.conj().T)
    K = invariant(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    B = K @ K.conj().T / 2 + 0.05 * np.eye(4)
    m = sdp.Model()
    X = m.var(4, iso=iso)
    m.set_objective({X: C})
    m.add_eq([(X, lambda M: np.trace(M, axis1=1, axis2=2).real[:, None, None])],
             np.ones((1, 1)))
    s = m.add_psd([(X, lambda M: -K @ M @ K.conj().T)], -B, iso=iso)
    return m, X, s, (U, K, B)


def test_compile_calls_each_map_once_per_term_and_block():
    # one call per block of the variable, on the stack of its lifted basis
    calls = []

    def counted(X):
        calls.append(X.shape)
        return X
    m = sdp.Model()
    X = m.var(4, iso=[np.eye(4)[:, [0, 2]], np.eye(4)[:, [1, 3]]])
    m.add_psd([(X, counted)], np.zeros((4, 4)))
    m.compile()
    assert calls == [(4, 4, 4), (4, 4, 4)]


def test_model_iso_matches_full():
    full = _z2_model(None)[0]
    m, X, s, (U, K, B) = _z2_model([np.eye(4)[:, [0, 2]],
                                    np.eye(4)[:, [1, 3]]])
    p = m.compile()
    assert p.blocks == [4, 4, 4, 4] and len(p.b) == 9  # 2n for n = 2
    ref, sol = full.solve(), m.solve()
    assert abs(sol.primal_value - ref.primal_value) <= 1e-8
    Xs, S = sol.primal_blocks[X], sol.primal_blocks[s]
    assert Xs.shape == S.shape == (4, 4)
    assert np.abs(U @ Xs @ U - Xs).max() <= 1e-12
    assert np.linalg.eigvalsh(Xs)[0] >= -1e-8
    assert abs(np.trace(Xs).real - 1) <= 1e-8
    assert np.linalg.eigvalsh(B - K @ Xs @ K.conj().T)[0] >= -1e-8
    assert np.abs(S - (B - K @ Xs @ K.conj().T)).max() <= 1e-7


def test_raw_solve_has_no_multipliers():
    # only Model.solve folds dual_multipliers into Hermitian multipliers
    sol = sdp.solve(scalar_lp())
    assert sol.status == "optimal"
    assert sol.multipliers is None


def test_model_multipliers_trace_constrained_min():
    # min Tr CX s.t. Tr X = 1: the Hermitian multiplier is lambda_min(C),
    # twice the compiled real program's
    lam = (3 - np.sqrt(5)) / 2
    m = sdp.Model()
    X = m.var(2)
    m.set_objective({X: np.array([[1.0, 1j], [-1j, 2.0]])})
    m.add_eq([(X, lambda M: np.trace(M, axis1=1, axis2=2)[:, None, None])],
             np.ones((1, 1)))
    W, = m.solve().multipliers
    assert W.shape == (1, 1)
    assert abs(W[0, 0] - lam) <= 1e-7


def test_model_multipliers_iso_matches_full():
    full = _z2_model(None)[0]
    m, _, s, (_, _, B) = _z2_model([np.eye(4)[:, [0, 2]],
                                    np.eye(4)[:, [1, 3]]])
    ref, sol = full.solve(), m.solve()
    W = sol.multipliers[1]
    assert W.shape == (4, 4)
    assert np.abs(W - ref.multipliers[1]).max() <= 1e-6
    assert np.linalg.eigvalsh(W)[0] >= -1e-8
    # complementary slackness against the inequality's slack
    assert abs(np.trace(W @ sol.primal_blocks[s])) <= 1e-7
    # strong duality: sum_e Re Tr(G_e W_e) is the dual value
    for x in (ref, sol):
        G = [np.ones((1, 1)), -B]
        dual = sum(np.trace(Ge @ We).real for Ge, We in zip(G, x.multipliers))
        assert abs(dual - x.dual_value) <= 1e-9


def test_bidirectional_reduced_program_sizes(monkeypatch):
    # one solve, of the dual only: 68 rows for a covariant channel's
    # Klein-reduced program, every Hermitian block at most 4x4 (so every
    # real block at most 8x8), and 272 rows in full
    sizes = []
    solve = sdp.solve

    def recorded(p, **kw):
        sizes.append((len(p.b), p.blocks))
        return solve(p, **kw)
    monkeypatch.setattr(sdp, "solve", recorded)
    rains.rmax_bidirectional(qcore.partial_swap(0.3))
    assert [rows for rows, _ in sizes] == [68]
    assert max(sizes[0][1]) <= 8
    rains._rmax_bidirectional_full(qcore.partial_swap(0.3))
    assert [rows for rows, _ in sizes] == [68, 272]


def _stub(status, gap):
    def solve(p, tol=sdp.DEFAULT_TOL, max_iter=sdp.MAX_ITER):
        return sdp.SDPSolution(1.0, 1.0 - gap, [np.eye(n) for n in p.blocks],
                               np.zeros(len(p.A)), gap, status, 1)
    return solve


def _scalar_model():
    m = sdp.Model()
    t = m.var(1)
    m.set_objective({t: np.ones((1, 1))})
    m.add_eq([(t, lambda X: X)], np.ones((1, 1)))
    return m


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("status, gap_scale, accepted", [
    ("optimal", 0.0, True),
    ("numerical_limit", 0.5, True),
    ("numerical_limit", 2.0, False),
    ("infeasible", np.inf, False),
])
def test_model_solve_acceptance_rule(monkeypatch, tol, status, gap_scale,
                                     accepted):
    bound = max(100 * tol, 1e-7)
    monkeypatch.setattr(sdp, "solve", _stub(status, gap_scale * bound))
    if accepted:
        assert _scalar_model().solve(tol=tol, label="stub").status == status
    else:
        with pytest.raises(ArithmeticError,
                           match="stub SDP failed: %s" % status):
            _scalar_model().solve(tol=tol, label="stub")


_RHO = qcore.max_ent_state(2)
_CALLERS = {  # name: (call, label of its first SDP)
    "rmax_state": (lambda: rains.rmax_state(_RHO, (2, 2)), "max-Rains state"),
    "rmax_channel": (lambda: rains.rmax_channel(qcore.depolarizing(2, 0.3)),
                     "channel Rains"),
    "rmax_bidirectional":
        (lambda: rains.rmax_bidirectional(qcore.partial_swap(0.3)),
         "bidirectional dual"),
    "emax_ppt": (lambda: rains.emax_ppt(_RHO, (2, 2)), "emax_ppt"),
    "ppt_prime_lmo": (lambda: rains.ppt_prime_lmo(np.eye(4), (2, 2)),
                      "PPT' linear oracle"),
    "hypothesis_testing":
        (lambda: im.hypothesis_testing(_RHO, np.eye(4) / 4, 0.1),
         "hypothesis-testing"),
    "diamond_norm": (lambda: dynamics.nonunitarity(qcore.depolarizing(2, 0.3)),
                     "diamond norm"),
}


@pytest.mark.parametrize("name", list(_CALLERS))
def test_callers_reject_infeasible_solve(monkeypatch, name):
    call, label = _CALLERS[name]
    monkeypatch.setattr(sdp, "solve", _stub("infeasible", np.inf))
    with pytest.raises(ArithmeticError,
                       match="%s SDP failed: infeasible" % label):
        call()


def test_only_sdp_reads_solve_status():
    # the acceptance rule lives in sdp.Model.solve; any other module that
    # reads a solve's status is a second rule
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "qbound")
                   .glob("*.py"))
    assert any(path.name == "sdp.py" for path in paths)
    readers = []
    for path in paths:
        if path.name == "sdp.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += ["%s:%d" % (path.name, node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "status"]
    assert readers == []
