"""PPT-relaxed entanglement measures and converse-bound arithmetic.

Max-Rains quantities for states, point-to-point channels and
bidirectional channels (one solve of the dual program, whose Lagrange
multipliers are the primal witness; its builder is reduced by sdp.Model
to the Klein-symmetry blocks through its iso option when the channel's
Klein residual is at most 1e-12), the PPT relaxation of the max-relative
entropy of entanglement, Rains and sandwiched Rains relative entropies by
away-step Frank-Wolfe over the PPT' spectrahedron, private-state privacy
tests, and strong/weak-converse rate combinators.

All values are in bits. PPT'(A:B) = {sigma >= 0, ||T_B sigma||_1 <= 1}.
"""
import functools

import numpy as np

from . import linalg, sdp
from .infomeasures import (binary_entropy, relative_entropy,
                           sandwiched_objective)
from .linalg import as_matrix
from .qcore import (BipartiteChannel, DensityOperator, KrausChannel,
                    apply_local, choi_of, hw_group,
                    isotypic_blocks, max_ent_state)


@functools.lru_cache(maxsize=None)
def _program(build, *key):
    """The sdp.Model that build(*key) returns, compiled, and its variable
    indices: one per builder and structure key (the dimensions, and for the
    bidirectional dual whether it is Klein-reduced), shared by every call
    and every thread. Callers must not change it; each solves
    model.with_data(...) with its own objective or right-hand sides, a
    copy that shares the compiled constraint side."""
    m, v = build(*key)
    m.compile()
    return m, v


def _rmax_state_program(dims):
    """rmax_state's program; rho is the right-hand side of constraint 0."""
    n = int(np.prod(dims))
    TB = lambda X: linalg.partial_transpose(X, dims, [1])
    m = sdp.Model()
    C = m.var(n)
    D = m.var(n)
    m.set_objective({C: np.eye(n, dtype=complex), D: np.eye(n, dtype=complex)})
    m.add_psd([(C, TB), (D, lambda X: -TB(X))], np.zeros((n, n)))
    return m, (C, D)


def rmax_state(rho, dims, tol=1e-8):
    """
    Max-Rains relative entropy of a bipartite state, log2 of an SDP.

    minimize Tr{C+D} s.t. C, D >= 0, T_B(C-D) >= rho.

    :param rho: bipartite state.
    :param dims: (dA, dB).
    :return: (value, {"C": C, "D": D}) with feasible witnesses.
    """
    m, (C, D) = _program(_rmax_state_program, tuple(map(int, dims)))
    sol = m.with_data(rhs={0: as_matrix(rho)}).solve(
        tol=tol, label="max-Rains state")
    W = max(sol.primal_value, 1e-300)
    return float(np.log2(W)), {"C": sol.primal_blocks[C], "D": sol.primal_blocks[D],
                               "W": W, "gap": sol.gap}


def _inf_norm_program(dims, keep_idx, transpose_idx, reduced):
    """_inf_norm_rains_sdp's program; J is the right-hand side of
    constraint 0."""
    iso = _KLEIN_ISO if reduced else (None, None)
    n = int(np.prod(dims))
    dk = int(np.prod([dims[k] for k in keep_idx]))
    T = lambda X: linalg.partial_transpose(X, dims, transpose_idx)
    PT = lambda X: linalg.partial_trace(X, dims, keep_idx)
    m = sdp.Model()
    t = m.var(1)
    V = m.var(n, iso=iso[0])
    Y = m.var(n, iso=iso[0])
    m.set_objective({t: np.ones((1, 1), dtype=complex)})
    m.add_psd([(V, T), (Y, lambda X: -T(X))], np.zeros((n, n)), iso=iso[0])
    m.add_psd([(t, lambda X: X * np.eye(dk, dtype=complex)),
               (V, lambda X: -PT(X)), (Y, lambda X: -PT(X))],
              np.zeros((dk, dk), dtype=complex), iso=iso[1])
    return m, (V, Y)


def _inf_norm_rains_sdp(J, dims, keep_idx, transpose_idx, tol, label,
                        reduced=False):
    """min ||Tr_{traced}{V+Y}||_inf s.t. V,Y >= 0, T(V-Y) >= J; reduced
    builds it with the sdp.Model isometries _KLEIN_ISO of the full space
    and of the kept one (see _bidirectional_sdps).

    :return: (value, {"V", "Y", "gap"}, (W1, W2)), W1 and W2 the Lagrange
        multipliers of T(V-Y) >= J and of t 1 >= Tr_{traced}{V+Y}.
    """
    m, (V, Y) = _program(_inf_norm_program, tuple(map(int, dims)),
                         tuple(sorted(keep_idx)), tuple(transpose_idx),
                         reduced)
    sol = m.with_data(rhs={0: J}).solve(tol=tol, label=label)
    return (sol.primal_value, {"V": sol.primal_blocks[V],
                               "Y": sol.primal_blocks[Y], "gap": sol.gap},
            sol.multipliers)


def rmax_channel(ch, tol=1e-8):
    """
    Max-Rains information of a point-to-point channel, log2 Gamma.

    Gamma solves min ||Tr_B{V+Y}||_inf s.t. V, Y >= 0, T_B(V-Y) >= J.
    """
    J = choi_of(ch).matrix
    dims = (ch.in_dim, ch.out_dim)
    gamma, wit, _ = _inf_norm_rains_sdp(J, dims, keep_idx=[0],
                                        transpose_idx=[1], tol=tol,
                                        label="channel Rains")
    return float(np.log2(max(gamma, 1e-300))), wit


def bidirectional_choi(N):
    """Choi operator of a bidirectional channel, ordered L_A, A, B, L_B."""
    J = choi_of(N.channel).matrix
    la, lb = N.in_split
    a, b = N.out_split
    J = linalg.permute_systems(J, (la, lb, a, b), [0, 2, 3, 1])
    return J, (la, a, b, lb)


def _bidir_kron(R, L, dims):
    """R on (L_A, L_B) (x) L on (A, B), ordered (L_A, A, B, L_B)."""
    la, a, b, lb = dims
    return linalg.permute_systems(np.kron(R, L), (la, lb, a, b), [0, 2, 3, 1])


# I, X, Z and XZ = -iY are real, so the Klein group {P (x) P} of a
# two-qubit channel acts on its Choi operator as P (x) P (x) P (x) P on
# (L_A, A, B, L_B). In the magic basis, whose columns are Bell states with
# phases, every k1 (x) k2 with k1, k2 in SU(2) is real orthogonal with
# determinant 1, and XX, YY, ZZ are diagonal (Kraus-Cirac, PRA 63, 062309
# (2001)).
_PAULIS = hw_group(2).unitaries
_KLEIN = [linalg.kron(P, P, P, P) for P in _PAULIS]
# its isotypic blocks on (L_A, A, B, L_B): four 4-dimensional ones; and
# those of {P (x) P} on (L_A, L_B): the Bell states
_KLEIN_ISO = (isotypic_blocks(_KLEIN),
              isotypic_blocks([np.kron(P, P) for P in _PAULIS]))
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0],
                   [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)
_EIG_MIX = 0.5772156649  # weight of Im S in the eigenbasis of S = U_B^T U_B


def _kak_canonical(U):
    """
    Two-qubit KAK decomposition U = L_out Uc L_in, with Uc = M diag(D) M^dag
    diagonal in the Bell basis and L_out, L_in in SU(2) (x) SU(2).

    In the magic basis M, U_B = M^dag U M = O1 diag(D) O2 with O1, O2 in
    SO(4). The real orthogonal O = O2^T diagonalizes the complex symmetric
    unitary S = U_B^T U_B (Re S and Im S commute), D^2 is its spectrum, and
    O1 = U_B O diag(D)^-1. The signs of det O and of one entry of D are
    fixed so that O and O1 are rotations, which makes L_in and L_out local.

    :return: (Uc, L_out, L_in), or None when O1 comes out not real
        orthogonal.
    """
    Ub = _MAGIC.conj().T @ U @ _MAGIC
    S = Ub.T @ Ub
    _, O = np.linalg.eigh(S.real + _EIG_MIX * S.imag)
    if np.linalg.det(O) < 0:
        O[:, 0] = -O[:, 0]
    D = np.sqrt(np.diag(O.T @ S @ O))
    O1 = Ub @ O / D
    if np.linalg.det(O1).real < 0:
        D[0], O1[:, 0] = -D[0], -O1[:, 0]
    if not (np.abs(O1.imag).max() <= 1e-9
            and np.abs(O1 @ O1.conj().T - np.eye(4)).max() <= 1e-9):
        return None
    local = lambda R: _MAGIC @ R @ _MAGIC.conj().T
    return local(np.diag(D)), local(O1.real), local(O.T)


def _klein_residual(J):
    """max over the Klein group of |W J W^dag - J|, W = P (x) P (x) P (x) P."""
    return max(np.abs(W @ J @ W.conj().T - J).max() for W in _KLEIN)


def rmax_bidirectional(N, tol=1e-9):
    """
    Bidirectional max-Rains information, via one solve of the dual SDP.

    Dual:   min ||Tr_AB{V+Y}||_inf, V,Y >= 0, T_{B L_B}(V-Y) >= J.
    Primal: max Tr{J X}, X, rho >= 0, Tr{rho} = 1,
            -rho (x) 1_AB <= T_{B L_B}(X) <= rho (x) 1_AB.
    Each program is the Lagrange dual of the other: the primal witness
    (X, rho) is read from the dual solve's multipliers of its two operator
    inequalities, scaled to Tr{rho} = 1 (Vandenberghe-Boyd, SIAM Rev. 38
    (1996)).

    Two-qubit to two-qubit channels are solved in the symmetry-adapted
    basis of the Klein group {P (x) P} when their Choi operator commutes
    with it to 1e-12: the same program, built with the group's
    isotypic blocks as sdp.Model isometries, so four 4x4 blocks per 16x16
    operator instead of one.
    A unitary channel is first replaced by its KAK canonical form, which
    is Klein-covariant and has the same value, and the witnesses are
    rotated back by its local factors. Every other channel, and a unitary
    whose decomposition fails its check, is solved by the full SDP. The
    dispatch is automatic; the values agree to the solver tolerance.

    :return: dict with primal/dual Gamma values, their gap, the log2 of
        the averaged common value, the dual witness {"V", "Y", "gap"} and
        the primal witness X, rho, all in the channel's own frame.
    """
    if N.in_split != (2, 2) or N.out_split != (2, 2):
        return _rmax_bidirectional_full(N, tol)
    frame = None
    Nc = N
    if len(N.channel.kraus) == 1 and N.channel.trace_preserving:
        kak = _kak_canonical(N.channel.kraus[0])
        if kak is not None:
            Uc, L_out, L_in = kak
            Nc = BipartiteChannel(KrausChannel([Uc]), (2, 2), (2, 2))
            frame = L_out, L_in
    J, dims = bidirectional_choi(Nc)
    if _klein_residual(J) > 1e-12:
        return _rmax_bidirectional_full(N, tol)
    out = _bidirectional_sdps(J, dims, tol, reduced=True)
    if frame is not None:
        # J = W Jc W^dag with W = L_in^T (x) L_out. X turns with W, and V, Y
        # with W~ = (Y on B and L_B) W (Y on B and L_B)^dag, because
        # T_{B L_B}(W~ M W~^dag) = W T_{B L_B}(M) W^dag (Y k Y^dag = conj(k)
        # on SU(2)); rho turns with the (L_A, L_B) factor of W~.
        L_out, L_in = frame
        Y2 = np.kron(np.eye(2), _PAULIS[3])  # XZ = -iY on the second qubit
        flip = lambda L: Y2 @ L @ Y2.conj().T
        turn = lambda U, M: U @ M @ U.conj().T
        W = _bidir_kron(L_in.T, L_out, dims)
        Wt = _bidir_kron(flip(L_in.T), flip(L_out), dims)
        wit = out["witness"]
        out.update(X=turn(W, out["X"]), rho=turn(flip(L_in.T), out["rho"]),
                   witness={"V": turn(Wt, wit["V"]), "Y": turn(Wt, wit["Y"]),
                            "gap": wit["gap"]})
    return out


def _rmax_bidirectional_full(N, tol=1e-9):
    """rmax_bidirectional by the dual SDP on the full Choi space (the
    reference that the symmetry-reduced path is tested against)."""
    J, dims = bidirectional_choi(N)
    return _bidirectional_sdps(J, dims, tol)


def _bidirectional_sdps(J, dims, tol, reduced=False):
    """
    Both bidirectional SDPs of the Choi operator J on (L_A, A, B, L_B),
    from one solve of the dual. With T = T_{B L_B}, the dual's Lagrangian
    is t + Tr{X (J - T(V-Y))} + Tr{rho (Tr_AB{V+Y} - t 1)} for multipliers
    X, rho >= 0. Stationarity in V and Y gives
    -rho (x) 1_AB <= T(X) <= rho (x) 1_AB, and in t gives Tr{rho} <= 1,
    with equality at the optimum. Those constraints are homogeneous in
    (X, rho), so both are divided by Tr{rho} to make it 1 exactly.

    reduced builds it with _KLEIN_ISO = (Q, q), sdp.Model isometries of
    the full space and of (L_A, L_B): every variable lives in the blocks of
    its space, and so does every operator inequality. This is exact when J
    commutes with a group whose isotypic blocks these are, and T_{B L_B},
    Tr_AB and rho -> rho (x) 1_AB carry the group's action on one space to
    its action on the other, as for the Klein group: an optimal point may
    then be averaged over the group.
    """
    dual, wit, (X, rho) = _inf_norm_rains_sdp(
        J, dims, keep_idx=[0, 3], transpose_idx=[2, 3], tol=tol,
        label="bidirectional dual", reduced=reduced)
    scale = np.trace(rho).real
    X, rho = X / scale, rho / scale
    primal = float(np.vdot(J, X).real)
    return {"value": float(np.log2(max((primal + dual) / 2, 1e-300))),
            "gamma_primal": primal, "gamma_dual": dual,
            "gap": abs(primal - dual), "witness": wit, "X": X, "rho": rho}


def _emax_ppt_program(dims):
    """emax_ppt's program; rho is the right-hand side of constraint 0."""
    n = int(np.prod(dims))
    TB = lambda X: linalg.partial_transpose(X, dims, [1])
    m = sdp.Model()
    S = m.var(n)
    m.set_objective({S: np.eye(n, dtype=complex)})
    m.add_psd([(S, lambda X: X)], np.zeros((n, n)))
    m.add_psd([(S, TB)], np.zeros((n, n), dtype=complex))
    return m, S


def emax_ppt(rho, dims):
    """
    PPT relaxation of the max-relative entropy of entanglement.

    minimize log2 Tr{sigma''} s.t. sigma'' >= rho, sigma'' >= 0,
    T_B sigma'' >= 0 (SDP tolerance 1e-8). Lower-bounds the SEP-based one.
    """
    m, _ = _program(_emax_ppt_program, tuple(map(int, dims)))
    sol = m.with_data(rhs={0: as_matrix(rho)}).solve(
        tol=1e-8, label="emax_ppt")
    return float(np.log2(max(sol.primal_value, 1e-300)))


def _ppt_prime_program(dims):
    """The PPT' linear oracle's program for dims, and the index of its
    variable sigma: sigma = T_B(C - D) with C, D >= 0 and Tr(C + D) = 1, an
    equality. Its feasible sigma are all of PPT': for T_B sigma = P - N, P
    and N its positive and negative parts, C = P + e 1 and D = N + e 1 with
    e = (1 - Tr(P + N)) / 2n >= 0 meet the equality. G is the objective of
    sigma."""
    n = int(np.prod(dims))
    TB = lambda X: linalg.partial_transpose(X, dims, [1])
    Tr = lambda X: np.trace(X, axis1=1, axis2=2).real[:, None, None]
    m = sdp.Model()
    S = m.var(n)
    C = m.var(n)
    D = m.var(n)
    m.add_eq([(S, lambda X: X), (C, lambda X: -TB(X)), (D, TB)],
             np.zeros((n, n), dtype=complex))
    m.add_eq([(C, Tr), (D, Tr)], np.ones((1, 1)))
    return m, S


def ppt_prime_lmo(G, dims):
    """argmin Tr{G sigma} over the PPT' spectrahedron. It solves the
    equality form Tr(C + D) = 1 of _ppt_prime_program and returns the zero
    matrix when the solve's optimum is >= 0. This is exact: sigma = 0 is
    in PPT' with Tr{G sigma} = 0, so it is a minimizer whenever the
    optimum is not negative."""
    m, S = _program(_ppt_prime_program, tuple(map(int, dims)))
    sol = m.with_data(objective={S: G}).solve(tol=1e-9,
                                              label="PPT' linear oracle")
    if sol.primal_value >= 0:
        return np.zeros_like(sol.primal_blocks[S])
    return sol.primal_blocks[S]


def _rel_ent_gradient(R, sigma):
    """Gradient of sigma -> -Tr{R log2 sigma} (Daleckii-Krein), at sigma
    floored by linalg.floored_eigh."""
    ws, Vs = linalg.floored_eigh(sigma)
    return -linalg.frechet_derivative(ws, Vs, np.log, np.reciprocal, R) / np.log(2)


def _line_minimum(grad, sigma, d, cap, G):
    """argmin over [0, cap] of a convex f(sigma + t d) whose slope
    phi'(t) = Re<grad(sigma + t d), d> is negative at 0: cap when
    phi'(cap) <= 0, else the root of phi' by brentq to xtol 1e-14. G is
    grad(sigma); brentq reads phi'(0) from it and phi'(cap) from the test
    above, so each gradient it evaluates is at an interior point."""
    from scipy.optimize import brentq
    slope = lambda t: float(np.real(np.vdot(grad(sigma + t * d), d)))
    known = {0.0: float(np.real(np.vdot(G, d))), cap: slope(cap)}
    if known[cap] <= 0:
        return cap
    return brentq(lambda t: known[t] if t in known else slope(t), 0.0, cap,
                  xtol=1e-14)


def _frank_wolfe(grad, sigma0, dims, gap_tol=1e-5, max_iter=500):
    """
    Away-step Frank-Wolfe (Lacoste-Julien & Jaggi, NeurIPS 2015) over PPT'.

    sigma is kept as a convex combination of active atoms, sigma0 and the
    LMO outputs. Each iteration steps toward the LMO output s, or away from
    the active atom a with the largest <G, a> when that direction is
    steeper; an atom whose weight falls to 1e-14 or below is dropped. The
    stop rule is the Frank-Wolfe gap <G, sigma - s> <= gap_tol, and each
    iteration makes one LMO call.

    The step is the exact line minimum on [0, cap] (_line_minimum), whose
    slope at 0 is negative: -gap < -gap_tol toward s, and -<G, a - sigma>
    < -gap away from a. A step to cap is exact, so an away step drops a.

    :return: (sigma, gap, iterations, converged).
    """
    atoms, weights = [sigma0], np.ones(1)
    sigma = sigma0.copy()
    gap = np.inf
    for it in range(1, max_iter + 1):
        G = grad(sigma)
        s = ppt_prime_lmo(G, dims)
        gap = float(np.real(np.trace(G @ (sigma - s))))
        if gap <= gap_tol:
            return sigma, gap, it, True
        away = [float(np.real(np.trace(G @ (a - sigma)))) for a in atoms]
        k = int(np.argmax(away))
        toward = len(atoms) == 1 or gap >= away[k]
        if toward:
            d, cap = s - sigma, 1.0
        else:
            d, cap = sigma - atoms[k], weights[k] / (1 - weights[k])
        t = _line_minimum(grad, sigma, d, cap, G)
        sigma = sigma + t * d
        if toward:
            atoms.append(s)
            weights = np.append((1 - t) * weights, t)
        else:
            weights = (1 + t) * weights
            weights[k] -= t
        keep = weights > 1e-14
        atoms = [a for a, kept in zip(atoms, keep) if kept]
        weights = weights[keep]
    return sigma, gap, max_iter, False


def _ppt_prime_minimum(R, dims, grad):
    """min over PPT' of a divergence of the state R whose gradient in sigma
    is grad, as the 4-tuple of _frank_wolfe.

    When ||T_B R||_1 = c <= 1 + 1e-12, that is when R is PPT up to rounding,
    sigma = R/c is in PPT' and is the minimizer: the divergence is
    >= -log2 Tr sigma >= 0 on PPT' (Rains, IEEE TIT 47 (2001)) and is
    log2 c at R/c, so R/c is returned with no Frank-Wolfe iteration and the
    gap max(log2 c, 0), the width of [0, log2 c]. Otherwise Frank-Wolfe
    starts at I/n. The threshold sits just above rounding (under 1e-15 on
    product states), not at gap_tol: an NPT state of negativity 1e-6
    started at R/||T_B R||_1 stops at a value 2e4 times too large."""
    c = linalg.schatten_norm(linalg.partial_transpose(R, dims, [1]), 1)
    if c <= 1 + 1e-12:
        return R / c, max(float(np.log2(c)), 0.0), 0, True
    n = R.shape[0]
    return _frank_wolfe(grad, np.eye(n, dtype=complex) / n, dims)


def rains_relative_entropy(rho, dims):
    """
    Rains relative entropy min D(rho||sigma) over PPT', by away-step
    Frank-Wolfe (one PPT' linear-oracle SDP per iteration) from I/n.

    A PPT state (||T_B rho||_1 <= 1 + 1e-12) takes no iteration and no
    SDP: its minimizer is rho/||T_B rho||_1, with value 0 up to rounding
    (_ppt_prime_minimum).

    :return: dict with value (infomeasures.relative_entropy of the final
        iterate, an upper bound on the true minimum), the final iterate,
        the Frank-Wolfe duality-gap estimate (on a PPT state the width of
        the certified interval [0, value]), the iteration count and a
        convergence flag.
    """
    R = as_matrix(rho)
    sigma, gap, its, ok = _ppt_prime_minimum(
        R, dims, lambda s: _rel_ent_gradient(R, s))
    return {"value": relative_entropy(R, sigma), "sigma": sigma, "gap": gap,
            "iterations": its, "converged": ok}


def sandwiched_rains(rho, dims, alpha):
    """
    Sandwiched Rains relative entropy over PPT' (alpha > 1), Frank-Wolfe
    with an analytic gradient.

    It is minimized as rains_relative_entropy is: a PPT state takes no
    iteration, because the sandwiched divergence is >= -log2 Tr sigma >= 0
    on PPT' as well. The value is the objective whose gradient Frank-Wolfe
    follows, not infomeasures.sandwiched_renyi, which is D(rho||sigma) for
    |alpha - 1| <= 1e-7.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    R = as_matrix(rho)
    obj = lambda s: sandwiched_objective(s, [1.0], [R], alpha)
    sigma, gap, its, ok = _ppt_prime_minimum(R, dims, lambda s: obj(s)[1])
    return {"value": obj(sigma)[0], "sigma": sigma, "gap": gap,
            "iterations": its, "converged": ok}


def amortization_spotcheck(N, rho, dims):
    """
    Check the amortization inequality for one state and channel.

    R_max(L_A A ; B L_B) of the output is at most the input max-Rains
    plus the bidirectional max-Rains of the channel. The state SDPs are
    solved to tolerance 1e-8, the channel's to rmax_bidirectional's 1e-9.

    :param rho: state on (L_A, A', B', L_B).
    :param dims: those four dimensions.
    """
    R = as_matrix(rho)
    la, ain, bin_, lb = dims
    a, b = N.out_split
    out = apply_local(N.channel, R, la, lb)
    r_in, _ = rmax_state(R, (la * ain, bin_ * lb))
    r_out, _ = rmax_state(out, (la * a, b * lb))
    r_ch = rmax_bidirectional(N)["value"]
    slack = r_in + r_ch - r_out
    return {"input": r_in, "output": r_out, "channel": r_ch,
            "slack": slack, "holds": slack >= -1e-6}


# ---------------------------------------------------------------------------
# private states and privacy tests
# ---------------------------------------------------------------------------

def _twist_unitary(K, twists, ds):
    """U^t = sum_ij |ij><ij| (x) U^{ij} on (K_A, K_B, S_A S_B)."""
    n = K * K * ds
    U = np.zeros((n, n), dtype=complex)
    for i in range(K):
        for j in range(K):
            Uij = np.asarray(twists.get((i, j), np.eye(ds)), dtype=complex)
            if np.abs(Uij.conj().T @ Uij - np.eye(ds)).max() > 1e-10:
                raise ValueError("twist (%d,%d) is not unitary" % (i, j))
            blk = (i * K + j) * ds
            U[blk:blk + ds, blk:blk + ds] = Uij
    return U


def make_private_state(K, theta, twists=None):
    """
    Twisted state gamma = U^t (Phi_K (x) theta) (U^t)^dag.

    Systems ordered (K_A, K_B, shields). theta is the shield state; the
    twists map (i, j) -> unitary on the shields.
    """
    th = as_matrix(theta)
    ds = th.shape[0]
    U = _twist_unitary(K, twists or {}, ds)
    gamma = U @ np.kron(max_ent_state(K), th) @ U.conj().T
    return DensityOperator(gamma, (K, K, ds))


def privacy_test_operator(K, shield_dim, twists=None):
    """Projector Pi = U^t (Phi_K (x) 1_S) (U^t)^dag."""
    U = _twist_unitary(K, twists or {}, shield_dim)
    phi_id = np.kron(max_ent_state(K), np.eye(shield_dim, dtype=complex))
    return U @ phi_id @ U.conj().T


def converse_rate_bounds(kind, quantity, n, eps, alpha=None):
    """
    Rate-bound arithmetic on a previously computed information quantity.

    kind 'strong':        R <= quantity + log2(1/(1-eps)) / n
    kind 'strong_renyi':  R <= quantity + alpha/(n(alpha-1)) log2(1/(1-eps))
    kind 'weak':          (1-eps) R <= quantity + h2(eps)/n
    """
    if n < 1 or not 0 < eps < 1:
        raise ValueError("require n >= 1 and eps in (0,1)")
    if kind == "strong":
        return float(quantity + np.log2(1.0 / (1 - eps)) / n)
    if kind == "strong_renyi":
        if alpha is None or alpha <= 1:
            raise ValueError("alpha > 1 required")
        return float(quantity + alpha / (n * (alpha - 1)) * np.log2(1.0 / (1 - eps)))
    if kind == "weak":
        return float((quantity + binary_entropy(eps) / n) / (1 - eps))
    raise ValueError("unknown kind %r" % kind)
