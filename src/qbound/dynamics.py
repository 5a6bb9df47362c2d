"""Open-system dynamics: entropy rates, Markovianity witnesses and
diamond-norm based nonunitarity.

Time-local generators with possibly time-dependent rates, an adaptive
embedded Dormand-Prince 5(4) integrator for one state or a (k, d, d)
stack of states (it raises ArithmeticError rather than accept a step
that fails its error test), the entropy-production lower bound in
projector and commutator forms, witness integrals over a Bloch grid, the
trace-distance (BLP) measure, entropy-change bound chains, the diamond
norm as an SDP, and the analytic amplitude-damping families used as
cross-checks.

Entropies and entropy rates in this module are in nats.
"""
import math

import numpy as np

from . import infomeasures, linalg, sdp
from .linalg import as_matrix
from .qcore import KrausChannel, choi_of, identity_channel


def _const(x):
    return x if callable(x) else (lambda t, _x=x: _x)


def _commutator_part(H):
    """-i[H, .] on row-major vec: -i (H (x) 1 - 1 (x) H^T)."""
    eye = np.eye(len(H))
    return -1j * (np.kron(H, eye) - np.kron(eye, H.T))


def _dissipator_part(A):
    """A . A^dag - {A^dag A, .}/2 on row-major vec:
    A (x) conj(A) - (A^dag A (x) 1 + 1 (x) (A^dag A)^T) / 2."""
    AdA, eye = A.conj().T @ A, np.eye(len(A))
    return np.kron(A, A.conj()) - 0.5 * (np.kron(AdA, eye)
                                         + np.kron(eye, AdA.T))


class LindbladGenerator:
    """
    Time-local generator: commutator with H(t) plus dissipators with
    rates gamma_i(t) and jump operators A_i(t). Scalars/arrays are
    promoted to constants.

    The generator acts as its d^2 x d^2 Liouville matrix on row-major
    vec (Havel, J. Math. Phys. 44, 534 (2003)),
    L(t) = L_H(t) + sum_i gamma_i(t) D_i(t), with
    L_H = -i (H (x) 1 - 1 (x) H^T) and
    D_i = A_i (x) conj(A_i) - (A_i^dag A_i (x) 1 + 1 (x) (A_i^dag A_i)^T) / 2.
    The part of a constant operator is formed once, and a term whose
    rate and operator are both constant is summed into one fixed matrix
    at construction; a callable operator's part is formed at each call's
    t. Each apply is one (k, d^2) x (d^2, d^2) product, which costs
    k d^4: for d > 8 it is slower than the d x d products it replaces.
    """

    def __init__(self, hamiltonian, jumps=()):
        H = (hamiltonian if callable(hamiltonian)
             else np.asarray(hamiltonian, dtype=complex))
        jumps = [(g, A if callable(A) else np.asarray(A, dtype=complex))
                 for g, A in jumps]
        self._H = _const(H)
        self._jumps = [(_const(g), _const(A)) for g, A in jumps]
        # L(t) = fixed + sum of rate(t) * part(t) over the varying terms
        self._fixed, self._varying = 0, []
        for g, op, form in [(1.0, H, _commutator_part)] + [
                (g, A, _dissipator_part) for g, A in jumps]:
            if callable(op):
                self._varying.append(
                    (_const(g), lambda t, op=op, form=form: form(
                        np.asarray(op(t), dtype=complex))))
            elif callable(g):
                self._varying.append((g, _const(form(op))))
            else:
                self._fixed = self._fixed + float(g) * form(op)

    def hamiltonian(self, t):
        return np.asarray(self._H(t), dtype=complex)

    def jump_terms(self, t):
        return [(float(g(t)), np.asarray(A(t), dtype=complex))
                for g, A in self._jumps]

    def liouvillian(self, t):
        """The d^2 x d^2 matrix of L(t) on row-major vec(rho)."""
        L = self._fixed
        for g, part in self._varying:
            L = L + float(g(t)) * part(t)
        return L

    def apply(self, t, rho):
        """Schroedinger-picture action on a (d, d) matrix or a (k, d, d)
        stack; the input need not be Hermitian."""
        L, rho = self.liouvillian(t), np.asarray(rho)
        return (rho.reshape(-1, len(L)) @ L.T).reshape(rho.shape)

    def adjoint_apply(self, t, X):
        """Heisenberg-picture action: the Hilbert-Schmidt adjoint of apply,
        Tr{Y^dag L(rho)} = Tr{L^dag(Y)^dag rho}."""
        L, X = self.liouvillian(t), np.asarray(X)
        return (X.reshape(-1, len(L)) @ L.conj()).reshape(X.shape)


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, Table II.5.2). The last row of _DP_A holds the
# fifth-order weights, so the seventh stage is the derivative at the new
# state (first same as last); _DP_E is fifth- minus fourth-order weights.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = tuple(np.array(a) for a in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40))
H_MIN = 1e-12  # step size below which evolve gives up


def _dp_step(gen, t, rho, h, k1):
    """
    One Dormand-Prince step: (new state, its derivative, error estimate).

    The seven stages are the rows of one (7, rho.size) array, so each
    stage's argument and the error estimate are one product of a tableau
    row with its leading rows.
    """
    shape, y = rho.shape, rho.ravel()
    K = np.empty((7, y.size), dtype=complex)
    K[0] = k1.ravel()
    for i, (c, a) in enumerate(zip(_DP_C, _DP_A[:5]), start=1):
        K[i] = gen.apply(t + c * h,
                         (y + h * (a @ K[:i])).reshape(shape)).ravel()
    new = (y + h * (_DP_A[5] @ K[:6])).reshape(shape)
    new = (new + new.swapaxes(-1, -2).conj()) / 2
    K[6] = gen.apply(t + h, new).ravel()
    err = h * np.abs(_DP_E @ K).max()
    return new, K[6].reshape(shape), err


def evolve(gen, rho0, t_grid, local_err=1e-9):
    """
    Integrate rho' = L_t(rho) through the requested time grid.

    Embedded Dormand-Prince 5(4) steps with first-same-as-last stages (six
    generator applies per step, each one product with the generator's
    Liouville matrix), advancing the fifth-order solution. A step is
    accepted only when its error estimate, the largest entry of the
    fifth- minus fourth-order difference, is at most local_err; the step
    size then adapts by the usual (local_err / err)^(1/5) rule.

    :param rho0: one (d, d) state or a (k, d, d) stack of states, evolved
        together under one step size controlled on the largest error in
        the stack.
    :param t_grid: nondecreasing finite times, at least one; the first is
        the time of rho0.
    :param local_err: error bound per step, >= 0.
    :return: list of arrays shaped like rho0, one per grid time.
    :raises ValueError: for an empty t_grid, a decreasing one or one with
        a time that is not finite, or a local_err that is negative or NaN.
    :raises ArithmeticError: when the step size falls below H_MIN before
        a step passes the error test.
    """
    if not local_err >= 0:
        raise ValueError("local_err must be >= 0, got %r" % (local_err,))
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must hold at least one time")
    if not all(map(math.isfinite, t_grid)):
        raise ValueError("t_grid must hold finite times")
    rho = np.array(as_matrix(rho0), dtype=complex)
    t = t_grid[0]
    out = [rho.copy()]
    k1 = gen.apply(t, rho)
    h = 0.0
    for t_next in t_grid[1:]:
        if t_next < t:
            raise ValueError("time grid must be nondecreasing")
        h = h or t_next - t
        while t < t_next:
            step = min(h, t_next - t)
            new, k7, err = _dp_step(gen, t, rho, step, k1)
            fac = 5.0 if err == 0 else 0.9 * (local_err / err) ** 0.2
            if err <= local_err:
                t = t_next if step == t_next - t else t + step
                rho, k1 = new, k7
                h = step * min(5.0, max(1.0, fac))
            else:
                h = step * max(0.2, fac)
                if h < H_MIN:
                    raise ArithmeticError(
                        "evolve: step size underflow at t=%.17g" % t)
        out.append(rho.copy())
    return out


def entropy_rate(rho, rhodot):
    """-Tr{rhodot log rho} in nats, log restricted to the support."""
    R = as_matrix(rho)
    L = linalg.matrix_fn_on_support(R, math.log)
    return float(-np.real(np.trace(np.asarray(rhodot) @ L)))


PROJECTOR_CUT = 1e-10  # support projector cut, relative to the top eigenvalue


def support_projector(rho):
    R = as_matrix(rho)
    w, V = linalg.eigh(R)
    keep = w > PROJECTOR_CUT * max(w.max(), np.finfo(float).tiny)
    Vk = V[:, keep]
    return Vk @ Vk.conj().T


def markov_lower_bound(gen, t, rho, method="projector"):
    """
    Lower bound on the entropy rate under divisible dynamics.

    projector form: -Tr{Pi_t L_t^dag(rho_t)} with Pi_t the support
    projector. commutator form (full-rank states): the same number as
    sum_i gamma_i <[A_i^dag, A_i]>.
    """
    R = as_matrix(rho)
    if method == "projector":
        Pi = support_projector(R)
        return float(-np.real(np.trace(Pi @ gen.adjoint_apply(t, R))))
    if method == "commutator":
        val = 0.0
        for g, A in gen.jump_terms(t):
            comm = A.conj().T @ A - A @ A.conj().T
            val += g * float(np.real(np.trace(R @ comm)))
        return val
    raise ValueError("method must be projector or commutator")


def witness_f(gen, t, rho):
    """
    Entropy rate minus its divisibility lower bound; negative values
    witness departure from (completely) divisible dynamics.

    One eigendecomposition of rho gives all three parts: the support
    projector of support_projector, the log on the support of
    entropy_rate and the projector form of markov_lower_bound. The value
    is +inf where L_t(rho) moves weight into the kernel (the rank grows).

    :param rho: one (d, d) state or a (k, d, d) stack.
    :return: a float, or an array of k values for a stack.
    """
    R = linalg.check_hermitian(rho)
    rhodot = gen.apply(t, R)
    w, V = np.linalg.eigh(R)
    tiny = np.finfo(float).tiny
    keep = w > PROJECTOR_CUT * np.maximum(w.max(-1, keepdims=True), tiny)
    on = np.abs(w) > linalg.SUPPORT_CUT * np.maximum(
        np.abs(w).max(-1, keepdims=True), tiny)
    with np.errstate(invalid='ignore', divide='ignore'):
        log_w = np.where(on, np.log(w), 0.0)  # nan at negative eigenvalues

    def diag(X):  # diagonal of V^dag X V
        return np.real((V.conj() * (X @ V)).sum(-2))

    d_dot = diag(rhodot)
    kern_gain = np.where(keep, 0.0, d_dot).sum(-1)
    rate = -(log_w * d_dot).sum(-1)
    bound = -np.where(keep, diag(gen.adjoint_apply(t, R)), 0.0).sum(-1)
    # rank is increasing: the entropy rate diverges to +inf and the
    # support-restricted formula would undershoot it
    f = np.where(kern_gain > 1e-12, math.inf, rate - bound)
    if np.isnan(f).any():
        raise ValueError("function undefined at a retained eigenvalue")
    return float(f) if f.ndim == 0 else f


def bloch_grid():
    """Pure qubit states on a 6 x 12 (polar x azimuthal) grid and the poles."""
    states = []
    for i in range(1, 7):
        th = math.pi * i / 7
        for j in range(12):
            ph = 2 * math.pi * j / 12
            v = np.array([math.cos(th / 2),
                          math.sin(th / 2) * np.exp(1j * ph)])
            states.append(np.outer(v, v.conj()))
    states.append(np.diag([1.0, 0.0]).astype(complex))
    states.append(np.diag([0.0, 1.0]).astype(complex))
    return states


def nonmarkov_measure(gen, t_max, n_steps=200, states=None):
    """
    Lower bound on a non-Markovianity measure: the integral of the
    negative part of the witness along the trajectory, maximized over a
    grid of initial states (Bloch grid for qubits by default). All states
    evolve together as one stack.
    """
    d = gen.hamiltonian(0.0).shape[0]
    if states is None:
        if d != 2:
            raise ValueError("default state grid only covers qubits")
        states = bloch_grid()
    ts = np.linspace(0.0, t_max, n_steps + 1)
    traj = evolve(gen, np.array([as_matrix(r) for r in states]), ts)
    fs = np.array([witness_f(gen, t, r) for t, r in zip(ts, traj)])
    vals = np.trapezoid(np.maximum(0.0, -fs), ts, axis=0)
    i = int(np.argmax(vals))
    if vals[i] > 0:
        return {"measure": float(vals[i]), "state": states[i]}
    return {"measure": 0.0, "state": None}


def blp_measure(ts, distances):
    """
    Integral of the positive part of the trace-distance derivative,
    from sampled distances (central differences, trapezoid rule).
    """
    ts = np.asarray(ts, dtype=float)
    D = np.asarray(distances, dtype=float)
    dD = np.gradient(D, ts)
    return float(np.trapezoid(np.maximum(0.0, dD), ts))


def blp_for_family(channel_at, rho_a, rho_b, ts):
    """BLP integrand for a one-parameter channel family channel_at(t)."""
    Ra, Rb = as_matrix(rho_a), as_matrix(rho_b)
    Ds = []
    for t in ts:
        ch = channel_at(t)
        Ds.append(0.5 * linalg.schatten_norm(ch.apply(Ra) - ch.apply(Rb), 1))
    return blp_measure(ts, Ds)


class GADCFamily:
    """
    One-parameter amplitude-damping family with an oscillating mixing
    weight: p_t = cos^2(w t), eta_t = exp(-t). Carries the analytic
    population gap W_t, entropy rate and witness for the maximally
    mixed probe, alongside the Kraus family for numerical cross-checks.
    """

    def __init__(self, omega):
        self.omega = float(omega)

    def p(self, t):
        return math.cos(self.omega * t) ** 2

    def eta(self, t):
        return math.exp(-t)

    def kraus(self, t):
        p, eta = self.p(t), self.eta(t)
        se, sq = math.sqrt(eta), math.sqrt(1 - eta)
        K = [math.sqrt(p) * np.diag([1.0, se]),
             math.sqrt(p) * np.array([[0.0, sq], [0.0, 0.0]]),
             math.sqrt(1 - p) * np.diag([se, 1.0]),
             math.sqrt(1 - p) * np.array([[0.0, 0.0], [sq, 0.0]])]
        return KrausChannel([k.astype(complex) for k in K])

    def channel_at(self, t):
        return self.kraus(t)

    def W(self, t):
        return math.cos(2 * self.omega * t) * (1 - math.exp(-t))

    def Wdot(self, t):
        return (-2 * self.omega * math.sin(2 * self.omega * t)
                * (1 - math.exp(-t))
                + math.cos(2 * self.omega * t) * math.exp(-t))

    def state(self, t):
        W = self.W(t)
        return np.diag([(1 + W) / 2, (1 - W) / 2]).astype(complex)

    def entropy_rate(self, t):
        W = self.W(t)
        if abs(W) >= 1:
            return -math.copysign(math.inf, self.Wdot(t) * W)
        return 0.5 * self.Wdot(t) * math.log((1 - W) / (1 + W))

    def f(self, t):
        return self.entropy_rate(t) + self.W(t)


def gadc_family(omega):
    return GADCFamily(omega)


def damping_trajectory(t):
    """Analytic relaxation example: populations (1-e^-t, e^-t)."""
    x = math.exp(-t)
    rho = np.diag([1 - x, x]).astype(complex)
    if x in (0.0, 1.0):
        return rho, 0.0
    return rho, -x * math.log((1 - x) / x)


def oscillatory_trajectory(t):
    """Analytic oscillating example: populations (cos^2 pi t, sin^2 pi t)."""
    c2, s2 = math.cos(math.pi * t) ** 2, math.sin(math.pi * t) ** 2
    rho = np.diag([c2, s2]).astype(complex)
    if c2 < 1e-300 or s2 < 1e-300:
        return rho, 0.0
    ds = math.pi * math.sin(2 * math.pi * t) * (math.log(c2) - math.log(s2))
    return rho, ds


# ---------------------------------------------------------------------------
# entropy-change bounds and diamond-norm based nonunitarity
# ---------------------------------------------------------------------------

def entropy_change_bounds(ch, rho):
    """
    Chain of bounds (nats) on Delta S = S(M(rho)) - S(rho) for a channel
    M with sub-unital adjoint composition:

    D(rho || M^dag M(rho)) <= Delta S
        <= Tr{[rho - M^dag M(rho)] log rho}
        <= ||rho - M^dag M(rho)||_1 ||log rho||_inf.
    """
    R = as_matrix(rho)
    MR = ch.apply(R)
    back = ch.adjoint_apply(MR)
    delta = infomeasures.entropy(MR, base='nats') - infomeasures.entropy(R, base='nats')
    lower = infomeasures.relative_entropy(R, back, base='nats')
    LR = linalg.matrix_fn_on_support(R, math.log)
    mid = float(np.real(np.trace((R - back) @ LR)))
    upper = linalg.schatten_norm(R - back, 1) * linalg.schatten_norm(LR, np.inf)
    return {"lower": lower, "delta_S": delta, "middle": mid, "upper": upper}


def diamond_norm(J, in_dim, tol=1e-8):
    """
    Diamond norm of a Hermiticity-preserving map given its Choi
    operator (input copy first), as twice the value of

    max Re Tr{J W} s.t. 0 <= W <= rho (x) 1_out, Tr{rho} = 1.
    """
    J = np.asarray(J, dtype=complex)
    J = (J + J.conj().T) / 2
    n = J.shape[0]
    dout = n // in_dim
    Tr = lambda R: np.trace(R, axis1=1, axis2=2).real[:, None, None]
    m = sdp.Model()
    W = m.var(n)
    r = m.var(in_dim)
    m.set_objective({W: -J})
    m.add_psd([(r, lambda R: np.kron(R, np.eye(dout, dtype=complex))),
               (W, lambda X: -X)], np.zeros((n, n), dtype=complex))
    m.add_eq([(r, Tr)], np.ones((1, 1)))
    sol = m.solve(tol=tol, label="diamond norm")
    return float(2 * max(0.0, -sol.primal_value))


def diamond_distance(ch_a, ch_b, tol=1e-8):
    Ja = choi_of(ch_a).matrix
    Jb = choi_of(ch_b).matrix
    return diamond_norm(Ja - Jb, ch_a.in_dim, tol=tol)


def backaction_channel(ch):
    """M^dag after M: Kraus products K_j^dag K_i."""
    K = [Kj.conj().T @ Ki for Kj in ch.kraus for Ki in ch.kraus]
    return KrausChannel(K, check=False)


def nonunitarity(ch, tol=1e-8):
    """
    Diamond-norm distance of M^dag after M from the identity. Zero
    exactly for unitary (isometric) channels.
    """
    return diamond_distance(identity_channel(ch.in_dim),
                            backaction_channel(ch), tol=tol)


def depolarizing_nonunitarity(d, q):
    """Closed form for the depolarizing channel: 2q(2-q)(1-1/d^2)."""
    return 2 * q * (2 - q) * (1 - 1.0 / d ** 2)


def unitarity_gap_check(ch, U):
    """
    If M is diamond-close (distance delta) to a unitary channel then its
    nonunitarity is at most sqrt(2 delta) + delta; both SDPs to tol 1e-8.
    """
    uch = KrausChannel([np.asarray(U, dtype=complex)])
    delta = diamond_distance(ch, uch)
    lhs = nonunitarity(ch)
    bound = math.sqrt(2 * delta) + delta
    return {"delta": delta, "nonunitarity": lhs, "bound": bound,
            "holds": lhs <= bound + 1e-7}


def gaussian_rate_limit(kind, N=None):
    """
    Sign of the long-time entropy-rate limit for single-mode bosonic
    semigroups, from the gain/loss rate pair (gamma_plus, gamma_minus).

    amplifier: (N+1, N) -> +1; lossy: (N, N+1) -> -1;
    additive (unital): equal rates -> 0.
    """
    if kind == "amplifier":
        gp, gm = float(N) + 1, float(N)
    elif kind == "lossy":
        gp, gm = float(N), float(N) + 1
    elif kind == "additive":
        gp = gm = 1.0
    else:
        raise ValueError("unknown kind %r" % kind)
    diff = gp - gm
    return {"gamma_plus": gp, "gamma_minus": gm,
            "sign": int(np.sign(diff))}
