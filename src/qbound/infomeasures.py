"""Scalar information quantities.

Entropies, relative entropies and their Renyi / max / hypothesis-testing
relatives, mutual informations, the relative entropy variance, fidelity
and trace distance, and the continuity / normalization inequality
reports. Only entropy and relative_entropy take base 'bits' or 'nats'; the
rest are in bits. Support violations return math.inf, not a large float.
"""
import math

import numpy as np

from . import linalg, sdp
from .linalg import as_matrix

INF = math.inf


def _logfn(base):
    if base == 'bits':
        return np.log2
    if base == 'nats':
        return np.log
    raise ValueError("base must be 'bits' or 'nats'")


def entropy(rho, base='bits'):
    """
    von Neumann entropy, with 0 log 0 = 0.

    :param rho: density operator (matrix or DensityOperator).
    :param base: 'bits' or 'nats'.
    """
    log = _logfn(base)
    w = np.linalg.eigvalsh(as_matrix(rho))
    w = w[w > linalg.SUPPORT_CUT * max(w.max(), 1e-300)]
    return float(-np.sum(w * log(w)))


def _sigma_fn(sigma, f, rho=None):
    """
    linalg.matrix_fn_on_support(sigma, f), from the one eigendecomposition
    that also checks the support of rho: None when rho has weight above
    1e-10 outside the support of sigma.
    """
    w, V = linalg.eigh(as_matrix(sigma))
    if rho is not None:
        r = np.real(np.sum(V.conj() * (rho @ V), axis=0))
        cut = linalg.SUPPORT_CUT * max(abs(w).max(), 1e-300)
        if r[w <= cut].sum() > 1e-10:
            return None
    return linalg.fn_on_support(w, V, f)


def _relative_entropies(states, sigma, neg_entropies, base):
    """
    D(rho_x||sigma) for a (m, d, d) stack of states, from one
    eigendecomposition of sigma and the states' -S(rho_x) = Tr rho_x log
    rho_x. For states and sigma diagonal in one basis, states may be the
    (m, d) diagonals and sigma the (d,) diagonal, which are their weights
    and eigenvalues, so no eigendecomposition is made. An entry is inf
    when its state has weight above 1e-10 outside the support of sigma.
    """
    if sigma.ndim == 1:
        ws, r = sigma, states
    else:
        ws, Vs = np.linalg.eigh(sigma)
        # weights of each rho_x on the eigenvectors of sigma
        r = np.real(np.sum(Vs.conj() * (states @ Vs), axis=-2))
    sup = ws > linalg.SUPPORT_CUT * max(abs(ws).max(), 1e-300)
    # Tr rho_x log sigma on the support of sigma, from contiguous rows so
    # that each sums pairwise as a single state's does
    lr = np.ascontiguousarray(r[:, sup]) * _logfn(base)(ws[sup])
    divs = neg_entropies - np.sum(lr, axis=1)
    return np.where(r[:, ~sup].sum(axis=1) > 1e-10, INF, divs)


def relative_entropy(rho, sigma, base='bits'):
    """D(rho||sigma) = Tr{rho [log rho - log sigma]}; inf on support violation."""
    R = as_matrix(rho)
    return float(_relative_entropies(R[None], as_matrix(sigma),
                                     -entropy(R, base), base)[0])


def dmax(rho, sigma):
    """Max-relative entropy log2 min{lambda: rho <= 2^lambda sigma} in bits."""
    R = as_matrix(rho)
    Sinv = _sigma_fn(sigma, lambda x: x ** -0.5, R)
    if Sinv is None:
        return INF
    lam = np.linalg.eigvalsh(Sinv @ R @ Sinv)[-1]
    return float(np.log2(max(lam, 1e-300)))


def sandwiched_renyi(rho, sigma, alpha):
    """Sandwiched Renyi relative entropy (bits).

    For 0 < |alpha - 1| <= 1e-7 it is the alpha -> 1 limit D(rho||sigma),
    off by the alpha-slope times |alpha - 1| (3e-8 on a random qutrit
    pair); nearer 1 the direct formula's rounding, divided by alpha - 1,
    costs more than that.
    """
    from scipy.special import logsumexp
    if alpha <= 0 or alpha == 1:
        if abs(alpha - 1) < 1e-12:
            return relative_entropy(rho, sigma)
        raise ValueError("alpha must be positive and different from 1")
    if abs(alpha - 1) <= 1e-7:
        return relative_entropy(rho, sigma)
    R = as_matrix(rho)
    e = (1 - alpha) / (2 * alpha)
    Se = _sigma_fn(sigma, lambda x: x ** e, R if alpha > 1 else None)
    if Se is None:
        return INF
    w = np.linalg.eigvalsh(Se @ R @ Se)
    w = w[w > linalg.SUPPORT_CUT * max(abs(w).max(), 1e-300)]
    # Tr M^alpha through logs to survive large alpha
    logtr = logsumexp(alpha * np.log(w))
    return float(logtr / ((alpha - 1) * np.log(2)))


def sandwiched_objective(sigma, probs, states, alpha, eig=None):
    """
    Floored sandwiched objective log2(sum_x p_x Tr{Q_x^alpha}) / (alpha-1)
    for alpha > 1, Q_x = sigma^e rho_x sigma^e with e = (1-alpha)/(2 alpha),
    and its gradient in sigma, for the first-order minimizations over sigma.

    With one state it is D_alpha(rho||sigma); over a cq ensemble it is the
    divergence between the joint state and p (x) sigma. sigma enters only
    through its floored eigenpairs: eig = (w, V) when the caller already
    holds them, floored by linalg.floored, else linalg.floored_eigh(sigma).
    The Q_x with p_x > 0 are eigendecomposed in one batched call, and their
    eigenvalues below 1e-16 times each one's largest count as zero. The
    gradient is alpha D(sigma^e)[sum_x p_x (rho_x sigma^e Q_x^(alpha-1)
    + h.c.)] / ((alpha-1) ln 2 sum_x p_x Tr{Q_x^alpha}), with D the Frechet
    derivative of x -> x^e (linalg.frechet_derivative).

    :return: (value in bits, Hermitian gradient).
    """
    e = (1 - alpha) / (2 * alpha)
    ws, Vs = linalg.floored_eigh(sigma) if eig is None else eig
    Se = (Vs * ws ** e) @ Vs.conj().T
    probs = np.asarray(probs, dtype=float)
    on = probs > 0
    p = probs[on]
    R = np.array([as_matrix(s) for s, k in zip(states, on) if k])
    q, U = np.linalg.eigh(Se @ R @ Se)
    # the zeroed eigenvalues drop out of both sums, as alpha > 1
    q = np.where(q > 1e-16 * np.maximum(abs(q).max(axis=1, keepdims=True),
                                        1e-300), q, 0.0)
    tot = np.sum(p * np.sum(q ** alpha, axis=1))
    M = R @ Se @ (U * q[:, None, :] ** (alpha - 1)) @ U.conj().swapaxes(1, 2)
    K = np.sum(p[:, None, None] * (M + M.conj().swapaxes(1, 2)), axis=0)
    dSe = linalg.frechet_derivative(ws, Vs, lambda x: x ** e,
                                    lambda x: e * x ** (e - 1), K)
    return (float(np.log2(tot) / (alpha - 1)),
            alpha * dSe / ((alpha - 1) * np.log(2) * tot))


def hypothesis_testing(rho, sigma, eps):
    """
    eps-hypothesis-testing divergence, solved as an SDP to tolerance 1e-8.

    -log2 min Tr{Lambda sigma} over 0 <= Lambda <= 1, Tr{Lambda rho} >= 1-eps.
    Returns inf when the optimal overlap with sigma is below 1e-7 = 10 tol.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    R, S = as_matrix(rho), as_matrix(sigma)
    d = R.shape[0]
    TrR = lambda X: np.trace(X @ R, axis1=1, axis2=2).real[:, None, None]
    m = sdp.Model()
    lam = m.var(d)
    m.set_objective({lam: S})
    m.add_psd([(lam, lambda X: -X)], -np.eye(d, dtype=complex))   # Lambda <= 1
    m.add_psd([(lam, TrR)], (1 - eps) * np.ones((1, 1)))
    sol = m.solve(tol=1e-8, label="hypothesis-testing")
    v = sol.primal_value
    if v < 1e-7:
        return INF
    return float(-np.log2(v))


def conditional_entropy(rho, dims, cond):
    """S(rest | cond) for the subsystem split dims."""
    R = as_matrix(rho)
    cond = sorted(set(cond))
    Rc = linalg.partial_trace(R, dims, cond)
    return entropy(R) - entropy(Rc)


def mutual_information(rho, dims):
    """I(A;B) for a bipartite split dims = (dA, dB)."""
    R = as_matrix(rho)
    if len(dims) != 2:
        raise ValueError("expected a bipartite split")
    SA = entropy(linalg.partial_trace(R, dims, [0]))
    SB = entropy(linalg.partial_trace(R, dims, [1]))
    return SA + SB - entropy(R)


def conditional_mutual_information(rho, dims):
    """I(A;B|C) for a tripartite split dims = (dA, dB, dC)."""
    R = as_matrix(rho)
    if len(dims) != 3:
        raise ValueError("expected a tripartite split")
    SAC = entropy(linalg.partial_trace(R, dims, [0, 2]))
    SBC = entropy(linalg.partial_trace(R, dims, [1, 2]))
    SC = entropy(linalg.partial_trace(R, dims, [2]))
    return SAC + SBC - entropy(R) - SC


def coherent_information(rho, dims):
    """I(A>B) = S(B) - S(AB) for dims = (dA, dB)."""
    R = as_matrix(rho)
    SB = entropy(linalg.partial_trace(R, dims, [1]))
    return SB - entropy(R)


def simplex_vector(probs):
    """probs as a float array, checked to be a probability vector: no entry
    below -1e-12 and a sum within 1e-12 of 1."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < -1e-12 or abs(probs.sum() - 1) > 1e-12:
        raise ValueError("probabilities must form a simplex vector")
    return probs


def cq_state(probs, states):
    """Classical-quantum state sum_x p(x) |x><x| (x) rho_x."""
    probs = simplex_vector(probs)
    n = len(probs)
    d = as_matrix(states[0]).shape[0]
    out = np.zeros((n * d, n * d), dtype=complex)
    for x, (p, st) in enumerate(zip(probs, states)):
        out[x * d:(x + 1) * d, x * d:(x + 1) * d] = p * as_matrix(st)
    return out


def holevo(probs, states):
    """Holevo quantity S(avg) - sum p S(rho_x), equal to the mutual
    information I(X;B) of cq_state(probs, states)."""
    probs = simplex_vector(probs)
    avg = sum(p * as_matrix(st) for p, st in zip(probs, states))
    return entropy(avg) - float(sum(p * entropy(st)
                                    for p, st in zip(probs, states) if p > 0))


def rel_entropy_variance(rho, sigma):
    """V(rho||sigma) = Tr{rho (log2 rho - log2 sigma - D)^2} in bits^2."""
    R = as_matrix(rho)
    LS = _sigma_fn(sigma, np.log2, R)
    if LS is None:
        raise ValueError("support of rho not contained in support of sigma")
    L = linalg.matrix_fn_on_support(R, np.log2) - LS
    D = float(np.real(np.trace(R @ L)))
    V = float(np.real(np.trace(R @ L @ L))) - D * D
    return max(V, 0.0)


def fidelity(rho, sigma):
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2."""
    R, S = as_matrix(rho), as_matrix(sigma)
    sr = linalg.matrix_fn_on_support(R, np.sqrt)
    ss = linalg.matrix_fn_on_support(S, np.sqrt)
    return float(min(linalg.schatten_norm(sr @ ss, 1) ** 2, 1.0 + 1e-9))


def trace_distance(rho, sigma):
    """T = ||rho - sigma||_1 / 2."""
    return 0.5 * linalg.schatten_norm(as_matrix(rho) - as_matrix(sigma), 1)


def metric_checks(rho, sigma):
    """The Fuchs-van de Graaf inequalities 1 - sqrt(F) <= T <= sqrt(1 - F)
    and Pinsker's inequality D >= (2T)^2 / (2 ln 2), with slacks."""
    F = fidelity(rho, sigma)
    T = trace_distance(rho, sigma)
    D = relative_entropy(rho, sigma)
    pinsker = (D - (2 * T) ** 2 / (2 * np.log(2))) if D != INF else INF
    return {
        "fidelity": F,
        "trace_distance": T,
        "relative_entropy": D,
        "fvg_lower_slack": T - (1 - np.sqrt(F)),
        "fvg_upper_slack": np.sqrt(max(1 - F, 0.0)) - T,
        "pinsker_slack": pinsker,
    }


def binary_entropy(eps):
    """h2(eps) = -eps log2 eps - (1-eps) log2(1-eps)."""
    if not 0 <= eps <= 1:
        raise ValueError("argument outside [0, 1]")
    out = 0.0
    for p in (eps, 1 - eps):
        if p > 0:
            out -= p * np.log2(p)
    return float(out)


def g_fn(y):
    """g(y) = (y+1) log2(y+1) - y log2 y, the entropy of a thermal state
    of mean photon number y."""
    if y < 0:
        raise ValueError("negative argument")
    if y == 0:
        return 0.0
    return float((y + 1) * np.log2(y + 1) - y * np.log2(y))


# ---------------------------------------------------------------------------
# continuity / approximate-normalization reports
# ---------------------------------------------------------------------------

def afw_check(rho, sigma, dims):
    """Uniform continuity of conditional entropy for a bipartite split
    (Alicki-Fannes-Winter).

    |S(A|B)_rho - S(A|B)_sigma| <= 2 eps log2 dA + g(eps), eps the trace
    distance. Returns the two sides and the slack.
    """
    R, S = as_matrix(rho), as_matrix(sigma)
    dA = dims[0]
    eps = trace_distance(R, S)
    lhs = abs(conditional_entropy(R, dims, [1]) - conditional_entropy(S, dims, [1]))
    rhs = 2 * eps * np.log2(dA) + g_fn(eps)
    return {"eps": eps, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def eeprop_check(psi, dims, eps):
    """Near-maximal entanglement entropy forces proximity to |Phi>.

    Premise: S(A) >= (1-eps) log2 |A| for the pure state psi. Claim: a
    unitary on B brings psi within distance (2 eps ln|A|)^(1/4) of |Phi>.
    The optimal local unitary comes from Schmidt-basis alignment, with
    maximal fidelity (sum_i sqrt(lambda_i) / sqrt(d))^2.
    """
    dA, dB = dims
    psi = np.asarray(psi, dtype=complex)
    rhoA = linalg.partial_trace(np.outer(psi, psi.conj()), dims, [0])
    SA = entropy(rhoA)
    if SA < (1 - eps) * np.log2(dA):
        return {"applicable": False, "entropy_A": SA}
    # psi = sum_k s_k |u_k>|v_k>: W |v_k> = conj(|u_k>) makes (1 (x) W) psi
    # = sum_k s_k |u_k> conj(|u_k>), the largest overlap with |Phi>
    U, s, Vh = np.linalg.svd(psi.reshape(dA, dB))
    W = U.conj() @ Vh.conj()
    F = float((np.sum(s) / np.sqrt(dA)) ** 2)
    dist = float(np.sqrt(max(1 - F, 0.0)))   # pure states saturate FvG
    bound = (2 * eps * np.log(dA)) ** 0.25
    return {"applicable": True, "entropy_A": SA, "fidelity": F,
            "distance": dist, "bound": bound, "slack": bound - dist,
            "unitary_B": W}
