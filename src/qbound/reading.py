"""Memory cells and reading rates.

Cells are finite collections of channels indexed by classical symbols;
reading capacities, second-order and strong-converse refinements,
private and secure reading parameters, and the fixed zero-error
certificate all live here. Capacities and rates are in bits.
"""
import math

import numpy as np

from . import linalg
from .infomeasures import (_relative_entropies, cq_state, entropy, holevo,
                           mutual_information, coherent_information,
                           conditional_mutual_information, relative_entropy,
                           rel_entropy_variance, sandwiched_objective,
                           simplex_vector)
from .linalg import as_matrix
from .qcore import (GroupRep, IsometricExtension, apply_local,
                    choi_of, covariance_check, depolarizing,
                    erasure_wiretap_isometry, gadc, isometric_extension, ket,
                    max_ent_vector, hw_group, zero_error_pair)


class MemoryCell:
    """
    Finite alphabet of channels with common dimensions, optionally
    carrying one isometric (wiretap) extension per symbol.
    """

    def __init__(self, channels, wiretap=None):
        channels = list(channels)
        if not channels:
            raise ValueError("cell needs at least one symbol")
        din, dout = channels[0].in_dim, channels[0].out_dim
        for ch in channels:
            if (ch.in_dim, ch.out_dim) != (din, dout):
                raise ValueError("cell channels must share dimensions")
        if wiretap is not None:
            wiretap = list(wiretap)
            if len(wiretap) != len(channels):
                raise ValueError("one wiretap extension per symbol")
            for V, ch in zip(wiretap, channels):
                Ja = choi_of(V.channel()).matrix
                Jb = choi_of(ch).matrix
                if np.abs(Ja - Jb).max() > 1e-10:
                    raise ValueError("wiretap extension does not trace "
                                     "out to the cell channel")
        self.channels = channels
        self.wiretap = wiretap
        self.in_dim = din
        self.out_dim = dout

    def __len__(self):
        return len(self.channels)

    def probe_outputs(self, psi):
        """
        Joint (L, B) outputs for a pure probe vector on (L, input), and
        the matching environment states when wiretaps are present.
        """
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        dL = psi.size // self.in_dim
        joints, envs = [], []
        for i, ch in enumerate(self.channels):
            if self.wiretap is not None:
                joint, env = _iso_outputs(self.wiretap[i], psi)
            else:
                R = np.outer(psi, psi.conj())
                joint, env = apply_local(ch, R, dL, 1), None
            joints.append(joint)
            envs.append(env)
        return joints, envs


def with_wiretaps(channels):
    """Cell with canonical isometric extensions attached."""
    ws = [isometric_extension(ch) for ch in channels]
    return MemoryCell(channels, wiretap=ws)


def covariant_cell_capacity(base_channel, group):
    """
    Reading capacity of the cell generated by conjugating base_channel
    with a unitary one-design: the mutual information of the normalized
    Choi state, in bits.
    """
    if not group.is_one_design():
        raise ValueError("group is not a unitary one-design")
    if not covariance_check(base_channel, group, _trivial_out_group(base_channel, group)):
        raise ValueError("channel is not covariant for the given group")
    J = choi_of(base_channel).matrix / base_channel.in_dim
    return mutual_information(J, (base_channel.in_dim, base_channel.out_dim))


def _trivial_out_group(ch, group):
    """Output representation matching the input one when dims allow."""
    if ch.out_dim == ch.in_dim:
        return group
    # pad each unitary with an identity block on the extra output levels
    mats = []
    for U in group.unitaries:
        M = np.eye(ch.out_dim, dtype=complex)
        M[:ch.in_dim, :ch.in_dim] = U
        mats.append(M)
    return GroupRep(mats, check_closure=False)


def blahut_arimoto(states, max_iter=20000):
    """
    Capacity of the classical-quantum channel x -> rho_x.

    Iterates are monotone nondecreasing; stops once successive Holevo
    values differ by less than 1e-10 and the KKT residual
    max_x D(rho_x || rho_bar) - I is at most 1e-8. The states'
    entropies are computed once; each iteration then makes one
    eigendecomposition, of rho_bar, and gets every D(rho_x || rho_bar)
    from it. When every state is diagonal as given (thermal states in the
    number basis), so is rho_bar, and the iteration runs on the diagonals
    with no eigendecomposition. When a weight p_x falls so low that rho_bar
    loses the support of rho_x (a divergence becomes inf), the last
    iterate with finite divergences is returned; as the capacity is at
    most its Holevo value plus its KKT residual, it counts as converged
    when that residual is at most 1e-8.

    :return: dict with capacity (bits), optimal p, iterations,
        kkt_residual and converged (False when max_iter ran out first).
    """
    states = np.array([as_matrix(s) for s in states])
    m = len(states)
    if m == 0:
        raise ValueError("need at least one state")
    neg_ent = -np.array([entropy(s) for s in states])
    diagonals = np.diagonal(states, axis1=1, axis2=2)
    if np.array_equal(states, diagonals[:, None] * np.eye(states.shape[-1])):
        states = diagonals.real
    p = np.full(m, 1.0 / m)
    prev = -np.inf
    out = None
    for it in range(1, max_iter + 1):
        avg = sum(pi * s for pi, s in zip(p, states))
        divs = _relative_entropies(states, avg, neg_ent, 'bits')
        if not np.isfinite(divs).all():
            if out is None:
                raise ArithmeticError("Blahut-Arimoto: infinite divergence "
                                      "at the uniform prior")
            out["converged"] = out["kkt_residual"] <= 1e-8
            break
        cap = float(np.dot(p, divs))
        resid = float(divs.max() - cap)
        out = {"capacity": cap, "p": p, "iterations": it,
               "kkt_residual": resid,
               "converged": abs(cap - prev) < 1e-10 and resid <= 1e-8}
        if out["converged"]:
            break
        prev = cap
        w = p * np.exp2(divs - divs.max())
        p = w / w.sum()
    return out


def _converged_blahut_arimoto(states):
    """blahut_arimoto(states); ArithmeticError when it did not converge."""
    ba = blahut_arimoto(states)
    if not ba["converged"]:
        raise ArithmeticError("Blahut-Arimoto did not converge: KKT residual "
                              "%.3g" % ba["kkt_residual"])
    return ba


def fock_cutoff(N):
    """Smallest m with (N/(N+1))^(m+1) < 1e-12."""
    if N <= 0:
        return 0
    r = N / (N + 1.0)
    m = int(math.ceil(math.log(1e-12) / math.log(r))) - 1
    m = max(m, 0)
    while r ** (m + 1) >= 1e-12:
        m += 1
        if m > 10 ** 7:
            raise OverflowError("Fock cutoff too large")
    return m


def thermal_state(N, cutoff):
    """Truncated thermal state, diagonal in the number basis."""
    n = np.arange(cutoff + 1)
    if N <= 0:
        p = np.zeros(cutoff + 1)
        p[0] = 1.0
    else:
        p = (N / (N + 1.0)) ** n / (N + 1.0)
    return np.diag(p).astype(complex)


def thermal_cell_capacity(Ns, probs=None):
    """
    Capacity of a cell of thermal ancilla states with the given mean
    photon numbers. With probs fixed, the Holevo quantity; otherwise
    Blahut-Arimoto over the prior.

    :raises ArithmeticError: when Blahut-Arimoto does not converge.
    """
    Ns = [float(N) for N in Ns]
    if any(N < 0 for N in Ns):
        raise ValueError("mean photon numbers must be nonnegative")
    cut = max(fock_cutoff(N) for N in Ns)
    states = [thermal_state(N, cut) for N in Ns]
    if probs is not None:
        return float(holevo(probs, states))
    return _converged_blahut_arimoto(states)["capacity"]


def second_order_bound(states, n, eps, probs=None):
    """
    I + sqrt(V/n) * Phi^{-1}(eps) per use, with I and V evaluated at
    the Blahut-Arimoto optimizer when no prior is supplied. The
    optimizer-set spread of V is approximated by this single point.

    :raises ArithmeticError: when Blahut-Arimoto does not converge.
    """
    from scipy.special import ndtri
    if n < 1 or not 0 < eps < 1:
        raise ValueError("require n >= 1 and eps in (0,1)")
    states = [as_matrix(s) for s in states]
    if probs is None:
        probs = _converged_blahut_arimoto(states)["p"]
    probs = np.asarray(probs, dtype=float)
    rho_xb = cq_state(probs, states)
    avg = sum(p * s for p, s in zip(probs, states))
    prod = cq_state(probs, [avg] * len(states))
    I = float(holevo(probs, states))
    V = rel_entropy_variance(rho_xb, prod)
    return float(I + math.sqrt(V / n) * ndtri(eps))


def renyi_mutual_information(probs, states, alpha):
    """
    Sandwiched Renyi mutual information of a cq ensemble: minimum over
    sigma of the sandwiched divergence between the joint and
    p (x) sigma, by exponentiated-gradient descent on sigma, converged
    once the stationarity residual is at most 1e-7; at most 5000
    iterations. The descent starts at sigma_0 = (sum_x p_x rho_x^alpha)^(1/alpha)
    / Tr, the optimum whenever the states commute (Sibson's identity), so a
    commuting ensemble stops at iteration 1. Each candidate
    exp(log sigma - eta G) / Tr is made from one eigendecomposition
    (_expm_density), whose eigenpairs, floored by linalg.floored, give both
    its objective and the next log sigma, so no sigma is eigendecomposed
    again. A candidate is accepted when its value is at most the current
    one + 1e-15, or when it lies within the current value's rounding band,
    64 eps max(1, |(alpha-1) val|) / (alpha-1), and its residual is smaller
    than the current one, so rounding cannot stall the descent short of the
    residual test.

    :return: dict with value (bits), sigma, stationarity residual.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    probs = np.asarray(probs, dtype=float)
    states = [as_matrix(s) for s in states]
    sigma, eig = _sibson_start(probs, states, alpha)
    val, G = sandwiched_objective(sigma, probs, states, alpha, eig)
    res = _stationarity_residual(sigma, G)
    eta = 1.0
    for it in range(1, 5001):
        if res <= 1e-7:
            break
        stepped = False
        ws, Vs = eig
        L = (Vs * np.log(ws)) @ Vs.conj().T
        band = 64 * np.finfo(float).eps * max(1.0, abs((alpha - 1) * val)) \
            / (alpha - 1)
        for _ in range(60):
            cand, ceig = _expm_density(L - eta * G)
            cval, cG = sandwiched_objective(cand, probs, states, alpha, ceig)
            decrease = cval <= val + 1e-15
            if decrease or cval <= val + band:
                cres = _stationarity_residual(cand, cG)
                if decrease or cres < res:
                    sigma, eig, val, G, res = cand, ceig, cval, cG, cres
                    eta = min(eta * 1.25, 1e3)
                    stepped = True
                    break
            eta *= 0.5
        if not stepped:
            break
    return {"value": val, "sigma": sigma, "residual": res,
            "iterations": it, "converged": res <= 1e-7}


def _sibson_start(probs, states, alpha):
    """(sum_{p_x > 0} p_x rho_x^alpha)^(1/alpha) / Tr and its eigenpairs, the
    eigenvalues floored by linalg.floored; its support is the union of the
    states' supports."""
    on = probs > 0
    r, U = np.linalg.eigh(np.array([s for s, k in zip(states, on) if k]))
    r = np.maximum(r, 0.0) ** alpha * probs[on, None]
    w, V = np.linalg.eigh(np.sum((U * r[:, None, :]) @ U.conj().swapaxes(1, 2),
                                 axis=0))
    w = np.maximum(w, 0.0) ** (1 / alpha)
    w /= w.sum()
    return (V * w) @ V.conj().T, (linalg.floored(w), V)


def _stationarity_residual(sigma, G):
    """Tr(sigma G) - lambda_min(G): zero exactly at the minimizer."""
    return float(np.real(np.trace(sigma @ G)) - np.linalg.eigvalsh(G).min())


def _expm_density(H):
    """The density operator exp(H) / Tr exp(H), and its eigenpairs from the
    one eigendecomposition of H, the eigenvalues floored by linalg.floored."""
    ws, Vs = np.linalg.eigh((H + H.conj().T) / 2)
    ws = np.exp(ws - ws.max())
    E = (Vs * ws) @ Vs.conj().T
    tr = np.real(np.trace(E))
    return E / tr, (linalg.floored(ws / tr), Vs)


def strong_converse_exponent(probs, states, R, alpha, n=1):
    """
    Strong-converse success-probability bound
    2^{-n (1 - 1/alpha)(R - I_alpha)} for reading at rate R.
    """
    mi = renyi_mutual_information(probs, states, alpha)
    if not mi["converged"]:
        raise ArithmeticError("Renyi minimization residual %.3g" % mi["residual"])
    expo = (1 - 1.0 / alpha) * (R - mi["value"])
    return float(2.0 ** (-n * expo))


def weak_converse_objectives(cell, probs, input_state, input_dims):
    """
    Single-letter converse objectives for reading with a probe on
    (R, B'): nonadaptive I(XR;B) and adaptive I(X;B|R) - I(X;B'|R).

    input_state may be one state (symbol-independent probe) or one per
    symbol.
    """
    probs = np.asarray(probs, dtype=float)
    dR, dBp = input_dims
    m = len(cell)
    if isinstance(input_state, (list, tuple)):
        inputs = [as_matrix(s) for s in input_state]
    else:
        inputs = [as_matrix(input_state)] * m
    outs = [apply_local(ch, phi, dR, 1)
            for ch, phi in zip(cell.channels, inputs)]
    dB = cell.out_dim
    tau = cq_state(probs, outs)               # (X, R, B)
    nonadaptive = mutual_information(tau, (m * dR, dB))
    # I(X;B|R) on (X, B, R) ordering for the three-way splitter
    tau3 = linalg.permute_systems(tau, (m, dR, dB), [0, 2, 1])
    rho3 = linalg.permute_systems(cq_state(probs, inputs), (m, dR, dBp),
                                  [0, 2, 1])
    adaptive = (conditional_mutual_information(tau3, (m, dB, dR))
                - conditional_mutual_information(rho3, (m, dBp, dR)))
    return {"nonadaptive": float(nonadaptive), "adaptive": float(adaptive)}


def private_reading_rate_n1(cell, probs, psi):
    """
    Single-letter private reading rate I(X;LB) - I(X;E) for a wiretap
    cell and a pure probe vector on (L, input). The mutual information of
    a cq state is the Holevo quantity of its ensemble, so the rate is the
    difference of two Holevo quantities of the (LB, E) marginals of
    _iso_outputs, and no cq state is built.

    :raises ValueError: for a cell without wiretaps, or probs that are not
        a probability vector.
    """
    if cell.wiretap is None:
        raise ValueError("cell carries no wiretap extensions")
    joints, envs = cell.probe_outputs(psi)
    return float(holevo(probs, joints) - holevo(probs, envs))


def coherent_info_rate(cell, probs, psi):
    """
    Entanglement-generation rate I(X > LB) when the symbol register is
    kept in superposition: the environment of the wiretap extensions is
    traced out of the coherently encoded pure state omega, as W W^dag with
    W the (d_X d_L d_B, d_E) matrix of omega (see _iso_outputs).

    :raises ValueError: for a cell without wiretaps, or probs that are not
        a probability vector.
    """
    if cell.wiretap is None:
        raise ValueError("cell carries no wiretap extensions")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    probs = simplex_vector(probs)
    m = len(cell)
    omega = np.concatenate([math.sqrt(p) * _branch(V, psi)
                            for p, V in zip(probs, cell.wiretap)])
    W = omega.reshape(-1, cell.wiretap[0].env_dim)
    return float(coherent_information(W @ W.conj().T, (m, len(W) // m)))


def hw_probe_cell(d=2, q=0.5):
    """
    Erasure wiretap cell: Heisenberg-Weyl encodings followed by the
    erasure wiretap isometry.
    """
    W = erasure_wiretap_isometry(d, q)
    isos = []
    chans = []
    for U in hw_group(d).unitaries:
        M = W.matrix @ U
        iso = IsometricExtension(M, W.out_dim, W.env_dim)
        isos.append(iso)
        chans.append(iso.channel())
    return MemoryCell(chans, wiretap=isos)


def zero_error_certificate():
    """
    Fixed certificate that the two-channel cell admitting adaptive
    zero-error reading cannot be read without error non-adaptively:
    builds the positive definite operator P and checks the
    coefficient identity sum_{jk} a_{jk} (A^y_j)^dag A^x_k = P for
    x != y (and the identity for x = y) to 1e-10.
    """
    ch1, ch2 = zero_error_pair()
    A = [ch1.kraus, ch2.kraus]
    k00, k01, k11 = ket(0, 4), ket(1, 4), ket(3, 4)
    minus = (ket(0, 2) - ket(1, 2)) / math.sqrt(2)
    k1m = np.kron(ket(1, 2), minus)
    P = (np.outer(k00, k00.conj()) + np.outer(k01, k01.conj())
         + np.outer(k11, k11.conj()) + np.outer(k1m, k1m.conj()))
    min_eig = float(np.linalg.eigvalsh(P).min())

    alpha = np.zeros((5, 5))
    alpha[0, 0] = alpha[1, 1] = math.sqrt(2)
    alpha[2, 4] = alpha[3, 2] = 1.0
    alpha[3, 3] = -2 * math.sqrt(2)

    resid_cross = 0.0
    for x in (0, 1):
        for y in (0, 1):
            S = np.zeros((4, 4), dtype=complex)
            for j in range(5):
                for k in range(5):
                    if x == y:
                        a = 1.0 if j == k else 0.0
                    elif x < y:
                        a = alpha[j, k]
                    else:
                        # reversed pair uses the transposed table
                        a = alpha[k, j]
                    if a:
                        S += a * A[y][j].conj().T @ A[x][k]
            target = np.eye(4) if x == y else P
            resid_cross = max(resid_cross, float(np.abs(S - target).max()))
    return {"min_eig": min_eig,
            "expected_min_eig": 1 - 1 / math.sqrt(2),
            "identity_residual": resid_cross,
            "ok": (min_eig > 0 and resid_cross <= 1e-10)}


def _branch(iso, psi):
    """(1_L (x) V) psi for an extension V and a probe vector psi on
    (L, V's input): V applied to each row of psi as a (d_L, d_in) matrix."""
    return (psi.reshape(-1, iso.in_dim) @ iso.matrix.T).ravel()


def _iso_outputs(iso, psi):
    """
    (LB, E) marginals of the pure state (1_L (x) V) psi (see _branch).

    The branch as a (d_L d_B, d_E) matrix W gives Tr_E = W W^dag and
    Tr_LB = W^T conj(W), with no outer product of the branch and no
    partial trace.
    """
    W = _branch(iso, psi).reshape(-1, iso.env_dim)
    return W @ W.conj().T, W.T @ W.conj()


def secure_reading_deltas(kind, q, N, eta0, eta1, d=2, theta=0.5):
    """
    Per-site security parameters for hiding sparse codewords among
    blanks: relative entropies between the mixed per-site output
    omega = q omega_1 + (1-q) omega_0 and the blank output omega_0, on
    the reading port (D_I) and the environment port (D_C), with a
    maximally entangled probe per site.

    kind 'depolarizing': cells keep the input with probability eta_x;
    includes the closed-form eigenvalue cross-check. kind 'gadc':
    amplitude damping with mixing angle theta.

    D_I = D_C holds for depolarizing (Heisenberg-Weyl-covariant) cells
    and for GADC at theta = 1/2. It fails for GADC in general: at
    theta = 0.2, q = 0.3, eta0/eta1 = 0.9/0.1, D_I = 0.323 and
    D_C = 0.244.

    :return: dict with D_I, D_C, N*D_I, N*D_C (bits).
    """
    if not 0 <= q <= 1 or N < 1:
        raise ValueError("require q in [0,1] and N >= 1")
    if kind == "depolarizing":
        chans = [depolarizing(d, 1 - eta0), depolarizing(d, 1 - eta1)]
        dd = d
    elif kind == "gadc":
        chans = [gadc(eta0, theta), gadc(eta1, theta)]
        dd = 2
    else:
        raise ValueError("unknown kind %r" % kind)
    isos = [isometric_extension(ch) for ch in chans]
    lb, env = zip(*[_iso_outputs(V, max_ent_vector(dd)) for V in isos])
    w0, w1 = lb
    e0, e1 = env
    w = q * w1 + (1 - q) * w0
    e = q * e1 + (1 - q) * e0
    D_I = relative_entropy(w, w0)
    D_C = relative_entropy(e, e0)
    # every state here is normalized, so D >= 0 (Klein's inequality); a
    # negative value is rounding and is reported as 0
    out = {"D_I": max(D_I, 0.0), "D_C": max(D_C, 0.0)}
    out["N_D_I"], out["N_D_C"] = N * out["D_I"], N * out["D_C"]
    if kind == "depolarizing":
        l1_0 = eta0 + (1 - eta0) / d ** 2
        l2_0 = (1 - eta0) / d ** 2
        em = q * eta1 + (1 - q) * eta0
        l1 = em + (1 - em) / d ** 2
        l2 = (1 - em) / d ** 2
        closed = (_rel_ent_term(l1, l1_0)
                  + (d ** 2 - 1) * _rel_ent_term(l2, l2_0)) \
            if q > 0 else 0.0
        out["D_I_closed"] = closed
        # both inf on a support violation: the check passes
        if closed != D_I and abs(closed - D_I) > 1e-10:
            raise AssertionError("closed-form eigenvalue path deviates: "
                                 "%.3g" % abs(closed - D_I))
    return out


def _rel_ent_term(l, l0):
    """l log2(l / l0) with relative_entropy's support rule: 0 for l = 0,
    inf for l > 0 over l0 = 0."""
    if l == 0:
        return 0.0
    return math.inf if l0 == 0 else l * math.log2(l / l0)
