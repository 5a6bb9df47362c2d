"""Dense complex Hermitian linear algebra kernel.

Eigendecompositions, matrix functions restricted to the support and
their Frechet derivatives, tensor-product bookkeeping (kron / partial
trace / partial transpose) and Schatten norms. Everything works on plain
numpy arrays (as_matrix); subsystem 0 is the most significant tensor index
throughout. check_hermitian, partial_trace, partial_transpose and
permute_systems also take a (..., d, d) stack of matrices and return the
stack of results; eigh and matrix_fn_on_support, with a per-matrix support
cut, take one square matrix only.
"""
import numpy as np

SUPPORT_CUT = 1e-12  # relative to the largest eigenvalue magnitude
HERM_TOL = 1e-10
TIE_CUT = 1e-8  # about sqrt(machine eps): relative gap below which eigenvalues tie
FLOOR = 1e-12  # relative eigenvalue floor of floored_eigh


def as_matrix(M):
    """The complex array of an array-like, or of the .matrix that a
    qcore.DensityOperator carries (that object itself, not a copy)."""
    return np.asarray(getattr(M, "matrix", M), dtype=complex)


def _as_matrix(M):
    M = as_matrix(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them, got "
                         "shape %s" % (M.shape,))
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def check_hermitian(H, tol=HERM_TOL):
    """Symmetrize H, a square matrix or a (..., d, d) stack, after checking
    it is Hermitian within tol times max(1, max |H_ij|) over the stack."""
    H = _as_matrix(H)
    Hh = H.swapaxes(-1, -2).conj()
    if np.abs(H - Hh).max() > tol * max(1.0, np.abs(H).max()):
        raise ValueError("matrix is not Hermitian within tolerance")
    return (H + Hh) / 2


def eigh(H):
    """
    Eigendecomposition of a Hermitian matrix.

    :param H: Hermitian matrix (symmetrized internally, checked to 1e-10).
    :return: (eigenvalues ascending, unitary matrix of column eigenvectors).
    """
    H = check_hermitian(H)
    if H.ndim != 2:
        raise ValueError("expected one square matrix, got shape %s" % (H.shape,))
    vals, vecs = np.linalg.eigh(H)
    return vals, vecs


def floored_eigh(sigma):
    """np.linalg.eigh of a positive semidefinite sigma with its eigenvalues
    raised by floored: the one floor that the first-order methods put under
    sigma, which keeps log sigma and negative powers of sigma finite on its
    kernel."""
    w, V = np.linalg.eigh(sigma)
    return floored(w), V


def floored(w):
    """The eigenvalues w raised to FLOOR times the largest."""
    return np.maximum(w, FLOOR * max(w.max(), 1e-300))


def matrix_fn_on_support(H, f):
    """
    Apply a scalar function to a Hermitian matrix on its support.

    Eigenvalues with |lam| <= SUPPORT_CUT * max|lam| are mapped to zero,
    so f never sees (numerically) kernel directions. Used for log, sqrt,
    inverse powers on near-singular states.

    :param H: Hermitian matrix.
    :param f: real scalar function applied to the retained eigenvalues.
    :return: f(H) restricted to the support of H.
    """
    return fn_on_support(*eigh(H), f)


def fn_on_support(vals, vecs, f):
    """
    matrix_fn_on_support from an eigendecomposition of H already at hand,
    as returned by eigh.
    """
    cut = SUPPORT_CUT * max(np.abs(vals).max(), np.finfo(float).tiny)
    with np.errstate(invalid='ignore', divide='ignore'):
        fvals = np.array([f(v) if abs(v) > cut else 0.0 for v in vals])
    if not np.all(np.isfinite(fvals)):
        raise ValueError("function undefined at a retained eigenvalue")
    return (vecs * fvals) @ vecs.conj().T


def frechet_derivative(w, V, f, df, H):
    """
    Frechet derivative of A -> f(A) at A = V diag(w) V^dag in the Hermitian
    direction H, by the Daleckii-Krein formula V (Gamma o V^dag H V) V^dag.

    Gamma holds the first divided differences (f(w_i) - f(w_j)) / (w_i - w_j);
    where w_i and w_j agree to TIE_CUT relative, df at their midpoint
    replaces the difference quotient, which cancellation would spoil. The
    map is self-adjoint, so with H = K it is also the gradient of
    A -> Tr{K f(A)} for Hermitian K.

    :param w: eigenvalues of A (real, inside the domain of f).
    :param V: unitary matrix of column eigenvectors of A.
    :param f: vectorized scalar function.
    :param df: its vectorized derivative.
    :param H: Hermitian direction.
    :return: the Hermitian matrix D f(A)[H].
    """
    w = np.asarray(w, dtype=float)
    fw = f(w)
    dw = w[:, None] - w[None, :]
    tie = np.abs(dw) <= TIE_CUT * np.maximum(np.abs(w[:, None]), np.abs(w[None, :]))
    Gamma = np.where(tie, df((w[:, None] + w[None, :]) / 2),
                     (fw[:, None] - fw[None, :]) / np.where(tie, 1.0, dw))
    G = V @ (Gamma * (V.conj().T @ H @ V)) @ V.conj().T
    return (G + G.conj().T) / 2


def kron(*mats):
    out = np.asarray(mats[0], dtype=complex)
    for M in mats[1:]:
        out = np.kron(out, M)
    return out


def _check_shape(M, dims):
    M = _as_matrix(M)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    if int(np.prod(dims)) != M.shape[-1]:
        raise ValueError("subsystem dims %s inconsistent with matrix dim %d"
                         % (dims, M.shape[-1]))
    return M, dims


def partial_trace(M, dims, keep):
    """
    Trace out all subsystems not listed in keep.

    :param M: matrix on the tensor product of subsystems `dims`
        (subsystem 0 most significant), or a (..., d, d) stack of them.
    :param dims: ordered subsystem dimensions.
    :param keep: iterable of subsystem indices to retain (original order).
    :return: reduced matrix on the kept subsystems (a stack for a stack).
    """
    M, dims = _check_shape(M, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError("keep index out of range")
    k = M.ndim - 2
    T = M.reshape(M.shape[:-2] + dims + dims)
    # trace out the complement, highest index first so positions stay valid
    nrow = n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        T = np.trace(T, axis1=k + ax, axis2=k + ax + nrow)
        nrow -= 1
    d_keep = int(np.prod([dims[j] for j in keep])) if keep else 1
    return T.reshape(M.shape[:-2] + (d_keep, d_keep))


def partial_transpose(M, dims, transpose):
    """
    Transpose the listed subsystems in place, leave the rest alone.

    :param M: matrix on the tensor product of subsystems `dims`, or a
        (..., d, d) stack of them.
    :param dims: ordered subsystem dimensions.
    :param transpose: iterable of subsystem indices to transpose.
    :return: the partially transposed matrix (or stack), same shape as M.
    """
    M, dims = _check_shape(M, dims)
    n = len(dims)
    tset = set(int(t) for t in transpose)
    if any(t < 0 or t >= n for t in tset):
        raise IndexError("transpose index out of range")
    k = M.ndim - 2
    perm = list(range(k + 2 * n))
    for t in tset:
        perm[k + t], perm[k + t + n] = perm[k + t + n], perm[k + t]
    T = M.reshape(M.shape[:-2] + dims + dims)
    return T.transpose(perm).reshape(M.shape)


def permute_systems(M, dims, perm):
    """
    Reorder tensor factors of M so that new subsystem k is old subsystem
    perm[k].

    :param M: matrix on the tensor product of subsystems `dims`, or a
        (..., d, d) stack of them.
    :param dims: current ordered subsystem dimensions.
    :param perm: permutation given as the list of old indices in new order.
    :return: the permuted matrix (or stack), same shape as M.
    """
    M, dims = _check_shape(M, dims)
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    k = M.ndim - 2
    axes = list(range(k)) + [k + p for p in perm] + [k + n + p for p in perm]
    T = M.reshape(M.shape[:-2] + dims + dims)
    return T.transpose(axes).reshape(M.shape)


def schatten_norm(M, p):
    """Schatten p-norm for p in {1, 2, inf} via singular values."""
    M = as_matrix(M)
    if M.ndim != 2 or not np.all(np.isfinite(M)):
        raise ValueError("expected a finite matrix")
    if p == 2:
        return float(np.linalg.norm(M, 'fro'))
    s = np.linalg.svd(M, compute_uv=False)
    if p == 1:
        return float(s.sum())
    if p == np.inf or p == 'inf':
        return float(s[0]) if len(s) else 0.0
    raise ValueError("p must be 1, 2 or inf")
