import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound import linalg, qcore


def random_herm(d, rng):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (A + A.conj().T) / 2


def test_eigh_reconstruction(rng):
    for d in (2, 3, 5, 8):
        H = random_herm(d, rng)
        w, V = linalg.eigh(H)
        assert np.abs(V @ np.diag(w) @ V.conj().T - H).max() <= 1e-10
        assert np.abs(V.conj().T @ V - np.eye(d)).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_floored_eigh(rng):
    # rank 2 of 4: the kernel's eigenvalues are raised to exactly FLOOR
    # times the largest, and the rest of eigh's output is kept
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    S = v @ v.conj().T
    w0, V0 = np.linalg.eigh(S)
    w, V = linalg.floored_eigh(S)
    assert np.array_equal(w[:2], np.full(2, linalg.FLOOR * w0.max()))
    assert np.array_equal(w[2:], w0[2:]) and np.array_equal(V, V0)
    # full rank: eigh's output bit for bit
    S = S + np.eye(4)
    w0, V0 = np.linalg.eigh(S)
    w, V = linalg.floored_eigh(S)
    assert np.array_equal(w, w0) and np.array_equal(V, V0)


def test_matrix_fn_support_cutoff():
    # rank-1 projector: log is 0 on the support, kernel untouched
    P = np.diag([1.0, 0.0]).astype(complex)
    L = linalg.matrix_fn_on_support(P, np.log)
    assert np.abs(L).max() < 1e-14

    H = np.diag([1.0, 1e-15]).astype(complex)
    S = linalg.matrix_fn_on_support(H, np.sqrt)
    assert abs(S[1, 1]) == 0.0  # below the relative cutoff


def test_matrix_fn_rejects_undefined():
    H = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        linalg.matrix_fn_on_support(H, np.log)


def _central_difference(A, f, H, h=1e-6):
    """Central difference of A -> f(A) along H, f applied to eigenvalues."""
    def F(M):
        w, V = np.linalg.eigh(M)
        return (V * f(w)) @ V.conj().T
    return (F(A + h * H) - F(A - h * H)) / (2 * h)


def test_frechet_derivative_matches_central_differences(rng):
    from conftest import haar_unitary
    e = -0.25
    fns = [(np.log, np.reciprocal), (lambda x: x ** e, lambda x: e * x ** (e - 1))]
    # the second spectrum repeats an eigenvalue, so the tie branch runs
    for spectrum in ([0.1, 0.4, 0.7, 1.3], [0.3, 0.3, 0.9, 1.6]):
        U = haar_unitary(4, rng)
        A = (U * np.array(spectrum)) @ U.conj().T
        w, V = np.linalg.eigh(A)
        H, K = random_herm(4, rng), random_herm(4, rng)
        for f, df in fns:
            D = linalg.frechet_derivative(w, V, f, df, H)
            ref = _central_difference(A, f, H)
            assert np.abs(D - ref).max() <= 1e-7 * np.abs(ref).max()
            assert np.abs(D - D.conj().T).max() == 0.0
            # self-adjoint: the same call is the gradient of Tr{K f(A)}
            DK = linalg.frechet_derivative(w, V, f, df, K)
            assert abs(np.trace(K @ D) - np.trace(DK @ H)) <= 1e-12 * np.abs(D).max()


def test_partial_trace_product(rng):
    A = random_herm(2, rng)
    B = random_herm(3, rng)
    M = np.kron(A, B)
    ptA = linalg.partial_trace(M, (2, 3), [0])
    ptB = linalg.partial_trace(M, (2, 3), [1])
    assert np.allclose(ptA, A * np.trace(B), atol=1e-12)
    assert np.allclose(ptB, B * np.trace(A), atol=1e-12)


def test_partial_trace_three_parties(rng):
    mats = [random_herm(d, rng) for d in (2, 2, 3)]
    M = linalg.kron(*mats)
    r = linalg.partial_trace(M, (2, 2, 3), [0, 2])
    expect = np.kron(mats[0], mats[2]) * np.trace(mats[1])
    assert np.allclose(r, expect, atol=1e-12)


def test_partial_transpose_involution(rng):
    M = random_herm(6, rng)
    T = linalg.partial_transpose(M, (2, 3), [1])
    assert np.allclose(linalg.partial_transpose(T, (2, 3), [1]), M)
    # transposing every subsystem is the full transpose
    full = linalg.partial_transpose(M, (2, 3), [0, 1])
    assert np.allclose(full, M.T)


def test_ppt_bell_state():
    phi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            phi[i * 2 + i, j * 2 + j] = 0.5
    w = np.linalg.eigvalsh(linalg.partial_transpose(phi, (2, 2), [1]))
    assert abs(w.min() + 0.5) < 1e-12


def test_permute_systems_roundtrip(rng):
    M = random_herm(12, rng)
    P = linalg.permute_systems(M, (2, 3, 2), [2, 0, 1])
    back = linalg.permute_systems(P, (2, 2, 3), [1, 2, 0])
    assert np.allclose(back, M)


def test_permute_systems_on_kron(rng):
    A, B = random_herm(2, rng), random_herm(3, rng)
    M = np.kron(A, B)
    swapped = linalg.permute_systems(M, (2, 3), [1, 0])
    assert np.allclose(swapped, np.kron(B, A), atol=1e-12)


@pytest.mark.parametrize("fn, dims, arg", [
    (linalg.partial_trace, (2, 3), [0]),
    (linalg.partial_trace, (3, 3), [1]),
    (linalg.partial_trace, (2, 2, 3), [0, 2]),
    (linalg.partial_trace, (3, 2, 2), []),
    (linalg.partial_transpose, (2, 3), [1]),
    (linalg.partial_transpose, (3, 3), [0]),
    (linalg.partial_transpose, (2, 2, 2, 2), [2, 3]),
    (linalg.permute_systems, (2, 3), [1, 0]),
    (linalg.permute_systems, (2, 3, 2), [2, 0, 1]),
    (linalg.permute_systems, (2, 2, 2, 2), [0, 2, 3, 1]),
])
def test_tensor_functions_act_on_stacks(rng, fn, dims, arg):
    # a stack, with one or two leading axes, gives the per-matrix results
    # bit for bit
    d = int(np.prod(dims))
    S = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    out = fn(S, dims, arg)
    assert np.array_equal(out, np.array([fn(M, dims, arg) for M in S]))
    assert np.array_equal(fn(S.reshape(5, 1, d, d), dims, arg), out[:, None])


def test_spectral_functions_reject_stacks(rng):
    S = np.array([random_herm(3, rng) for _ in range(2)])
    with pytest.raises(ValueError):
        linalg.eigh(S)
    with pytest.raises(ValueError):
        linalg.matrix_fn_on_support(S, np.exp)


def test_check_hermitian_on_stack(rng):
    # one scale over the whole stack; each symmetrized member is the one
    # the single-matrix call returns
    S = np.array([random_herm(3, rng) for _ in range(4)])
    S = S + 1e-13 * rng.standard_normal(S.shape)
    out = linalg.check_hermitian(S)
    assert out.shape == S.shape
    for M, H in zip(S, out):
        assert np.array_equal(linalg.check_hermitian(M), H)
    scale = max(1.0, np.abs(S).max())
    S[2, 0, 1] += 10 * linalg.HERM_TOL * scale
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.check_hermitian(S)


def test_as_matrix(rng):
    rho = qcore.random_density(3, rng)
    assert linalg.as_matrix(rho) is rho.matrix
    M = linalg.as_matrix([[1.0, 2.0], [2.0, 0.0]])
    assert M.dtype == complex
    assert np.array_equal(M, [[1, 2], [2, 0]])


def test_schatten_norms(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = np.linalg.svd(M, compute_uv=False)
    assert abs(linalg.schatten_norm(M, 1) - s.sum()) < 1e-10
    assert abs(linalg.schatten_norm(M, 2) - np.sqrt((s ** 2).sum())) < 1e-10
    assert abs(linalg.schatten_norm(M, np.inf) - s[0]) < 1e-10


def test_schatten_rectangular():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert abs(linalg.schatten_norm(V, np.inf) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = G @ G.conj().T
    r = linalg.partial_trace(M, (2, 3), [0])
    assert abs(np.trace(r) - np.trace(M)) < 1e-9 * max(1, abs(np.trace(M)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_norm_dominates_frobenius(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert linalg.schatten_norm(M, 1) >= linalg.schatten_norm(M, 2) - 1e-10
    assert linalg.schatten_norm(M, 2) >= linalg.schatten_norm(M, np.inf) - 1e-10
