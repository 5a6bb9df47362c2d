"""States, channels and the named channel zoo.

Channels come in three interchangeable representations (Kraus, Choi,
isometric extension). Subsystem 0 is always the most significant tensor
factor; Choi operators live on R (x) out with the reference system R
first; controlled channels keep the control in subsystem 0.
"""
import numpy as np

from . import linalg

TOL = 1e-10


def ket(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def maximally_mixed(d):
    return np.eye(d, dtype=complex) / d


def max_ent_vector(d, normalized=True):
    """|Phi> = (1/sqrt d) sum_i |ii> (or the unnormalized |Upsilon>)."""
    if d < 1:
        raise ValueError("max_ent_vector needs d >= 1")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    return v / np.sqrt(d) if normalized else v


def max_ent_state(d):
    v = max_ent_vector(d)
    return np.outer(v, v.conj())


class DensityOperator:
    """
    Positive unit-trace Hermitian operator with subsystem dims.

    :param matrix: Hermitian PSD matrix (within -1e-10).
    :param dims: subsystem dimensions, product must match the matrix.
    :param subnormalized: allow trace <= 1 instead of trace == 1.
    """

    def __init__(self, matrix, dims=None, subnormalized=False):
        M = linalg.check_hermitian(matrix)
        if dims is None:
            dims = (M.shape[0],)
        dims = tuple(int(d) for d in dims)
        if M.shape != (int(np.prod(dims)),) * 2:
            raise ValueError("dims inconsistent with matrix")
        w = np.linalg.eigvalsh(M)
        if w[0] < -TOL * max(1.0, w[-1]):
            raise ValueError("matrix is not PSD within tolerance")
        tr = float(np.trace(M).real)
        if subnormalized:
            if tr > 1 + TOL:
                raise ValueError("trace exceeds 1")
        elif abs(tr - 1) > 1e-8:
            raise ValueError("trace differs from 1: %g" % tr)
        self.matrix = M
        self.dims = dims
        self.subnormalized = subnormalized


def random_density(d, rng, rank=None, dims=None):
    """Haar-ish random state: normalized GG^dag with G complex Gaussian."""
    rank = rank or d
    G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    M = G @ G.conj().T
    return DensityOperator(M / np.trace(M).real, dims)


class KrausChannel:
    """Channel given by Kraus operators out_dim x in_dim."""

    def __init__(self, kraus, check=True):
        kraus = [np.asarray(K, dtype=complex) for K in kraus]
        if not kraus:
            raise ValueError("empty Kraus list")
        out_dim, in_dim = kraus[0].shape
        if any(K.shape != (out_dim, in_dim) for K in kraus):
            raise ValueError("inhomogeneous Kraus shapes")
        self.kraus = kraus
        self.in_dim = in_dim
        self.out_dim = out_dim
        S = sum(K.conj().T @ K for K in kraus)
        self.trace_preserving = np.abs(S - np.eye(in_dim)).max() <= 1e-8
        if check and not self.trace_preserving:
            w = np.linalg.eigvalsh(S)
            if w[-1] > 1 + 1e-8:
                raise ValueError("Kraus operators exceed trace preservation")

    def apply(self, rho):
        R = linalg.as_matrix(rho)
        out = sum(K @ R @ K.conj().T for K in self.kraus)
        return out

    def adjoint_apply(self, X):
        X = np.asarray(X)
        return sum(K.conj().T @ X @ K for K in self.kraus)


class ChoiOperator:
    """Choi matrix on R (x) out, J = sum_ij |i><j| (x) N(|i><j|)."""

    def __init__(self, matrix, in_dim):
        M = linalg.check_hermitian(matrix, tol=1e-8)
        in_dim = int(in_dim)
        if M.ndim != 2 or M.shape[0] % in_dim:
            raise ValueError("expected one Choi matrix, dimension in_dim * k")
        self.matrix = M
        self.in_dim = in_dim
        self.out_dim = M.shape[0] // in_dim

    def output_of(self, rho):
        """Apply the channel through the Choi operator."""
        R = linalg.as_matrix(rho)
        d, do = self.in_dim, self.out_dim
        T = self.matrix.reshape(d, do, d, do)
        return np.einsum('iajb,ij->ab', T, R)


class IsometricExtension:
    """Isometry U: in -> out (x) env with U^dag U = 1."""

    def __init__(self, matrix, out_dim, env_dim):
        U = np.asarray(matrix, dtype=complex)
        out_dim, env_dim = int(out_dim), int(env_dim)
        if U.shape[0] != out_dim * env_dim:
            raise ValueError("isometry row dimension mismatch")
        if np.abs(U.conj().T @ U - np.eye(U.shape[1])).max() > 1e-8:
            raise ValueError("not an isometry within tolerance")
        self.matrix = U
        self.in_dim = U.shape[1]
        self.out_dim = out_dim
        self.env_dim = env_dim

    def channel(self):
        """Trace out the environment."""
        K = [self.matrix.reshape(self.out_dim, self.env_dim, self.in_dim)[:, e, :]
             for e in range(self.env_dim)]
        return KrausChannel(K)

    def complementary_channel(self):
        """Trace out the output."""
        K = [self.matrix.reshape(self.out_dim, self.env_dim, self.in_dim)[b, :, :]
             for b in range(self.out_dim)]
        return KrausChannel(K)


class BipartiteChannel:
    """Two-input two-output channel: A'B' -> AB."""

    def __init__(self, channel, in_split, out_split):
        self.channel = channel
        self.in_dim, self.out_dim = channel.in_dim, channel.out_dim
        self.in_split = tuple(int(d) for d in in_split)
        self.out_split = tuple(int(d) for d in out_split)
        if int(np.prod(self.in_split)) != channel.in_dim:
            raise ValueError("input split mismatch")
        if int(np.prod(self.out_split)) != channel.out_dim:
            raise ValueError("output split mismatch")

    def apply(self, rho):
        return self.channel.apply(rho)


class GroupRep:
    """Finite collection of unitaries closed under multiplication up to phase."""

    def __init__(self, unitaries, check_closure=True):
        U = [np.asarray(u, dtype=complex) for u in unitaries]
        d = U[0].shape[0]
        for u in U:
            if u.shape != (d, d) or np.abs(u.conj().T @ u - np.eye(d)).max() > TOL:
                raise ValueError("element is not unitary within tolerance")
        if check_closure:
            for a in U:
                for b in U:
                    p = a @ b
                    # match against some element up to a global phase
                    if not any(abs(abs(np.trace(u.conj().T @ p)) - d) < 1e-8
                               for u in U):
                        raise ValueError("set not closed under multiplication")
        self.unitaries = U
        self.dim = d

    def __len__(self):
        return len(self.unitaries)

    def is_one_design(self):
        d = self.dim
        avg = sum(np.kron(u, u.conj()) for u in self.unitaries) / len(self)
        # twirl of any rho is the maximally mixed state iff the averaged
        # transfer matrix equals |vec 1><vec 1| / d
        v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
        target = np.outer(v, v.conj())
        return np.abs(avg - target).max() <= 1e-9


def choi_of(ch):
    """J = sum_ij |i><j| (x) N(|i><j|), from one call of N on the (d, d, d, d)
    stack of matrix units |i><j|."""
    d = ch.in_dim
    imgs = ch.apply(np.eye(d * d, dtype=complex).reshape(d, d, d, d))
    n = d * imgs.shape[-1]
    return ChoiOperator(imgs.transpose(0, 2, 1, 3).reshape(n, n), d)


def channel_of(J):
    """Kraus representation from the eigendecomposition of a Choi matrix."""
    vals, vecs = linalg.eigh(J.matrix)
    if vals[0] < -1e-8 * max(1.0, vals[-1]):
        raise ValueError("Choi operator is not PSD")
    d, do = J.in_dim, J.out_dim
    kraus = []
    for lam, v in zip(vals, vecs.T):
        if lam <= 1e-12 * max(1.0, vals[-1]):
            continue
        K = np.sqrt(lam) * v.reshape(d, do).T
        kraus.append(K)
    if not kraus:
        kraus = [np.zeros((do, d), dtype=complex)]
    return KrausChannel(kraus, check=False)


def isometric_extension(ch):
    """Canonical U = sum_j K_j (x) |j>_E."""
    env = len(ch.kraus)
    U = np.zeros((ch.out_dim * env, ch.in_dim), dtype=complex)
    for j, K in enumerate(ch.kraus):
        for b in range(ch.out_dim):
            U[b * env + j, :] = K[b, :]
    return IsometricExtension(U, ch.out_dim, env)


def apply_local(ch, rho, left, right):
    """(id_left (x) N (x) id_right)(rho): the channel on the middle factor
    of a state on (left, N's input, right)."""
    R = linalg.as_matrix(rho)
    Ks = [np.kron(np.kron(np.eye(left), K), np.eye(right)) for K in ch.kraus]
    return sum(Kf @ R @ Kf.conj().T for Kf in Ks)


# ---------------------------------------------------------------------------
# channel zoo
# ---------------------------------------------------------------------------

def identity_channel(d):
    if d < 1:
        raise ValueError("identity channel needs d >= 1")
    return KrausChannel([np.eye(d, dtype=complex)])


def depolarizing(d, q):
    """rho -> (1-q) rho + q pi, via Heisenberg-Weyl Kraus operators."""
    if d < 2:
        raise ValueError("depolarizing needs d >= 2")
    if not 0 <= q <= d * d / (d * d - 1.0):
        raise ValueError("q out of range")
    kraus = []
    p_id = 1 - q + q / d**2
    if p_id < -1e-12:
        raise ValueError("q out of range for a CP map")
    kraus.append(np.sqrt(max(p_id, 0.0)) * np.eye(d, dtype=complex))
    for w in range(1, d * d):
        kraus.append(np.sqrt(q) / d * hw_operator(d, w % d, w // d))
    return KrausChannel(kraus)


def erasure(d, q):
    """rho -> (1-q) rho + q |e><e|, output dim d+1, flag last."""
    if d < 1:
        raise ValueError("erasure needs d >= 1")
    if not 0 <= q <= 1:
        raise ValueError("q out of range")
    emb = np.zeros((d + 1, d), dtype=complex)
    emb[:d, :] = np.eye(d)
    kraus = [np.sqrt(1 - q) * emb]
    for i in range(d):
        K = np.zeros((d + 1, d), dtype=complex)
        K[d, i] = np.sqrt(q)
        kraus.append(K)
    return KrausChannel(kraus)


def erasure_wiretap_isometry(d, q):
    """U|psi> = sqrt(1-q)|psi>_B|e>_E + sqrt(q)|e>_B|psi>_E."""
    if d < 1:
        raise ValueError("erasure wiretap needs d >= 1")
    if not 0 <= q <= 1:
        raise ValueError("q out of range")
    do = d + 1
    U = np.zeros((do * do, d), dtype=complex)
    for i in range(d):
        U[i * do + d, i] = np.sqrt(1 - q)   # |i>_B |e>_E
        U[d * do + i, i] = np.sqrt(q)       # |e>_B |i>_E
    return IsometricExtension(U, do, do)


def gadc(eta, theta):
    """Generalized amplitude damping, transmissivity eta, mixing theta."""
    if not (0 <= eta <= 1 and 0 <= theta <= 1):
        raise ValueError("parameter out of range")
    st, ct = np.sqrt(theta), np.sqrt(1 - theta)
    k1 = st * np.diag([1.0, np.sqrt(eta)])
    k2 = st * np.array([[0, np.sqrt(1 - eta)], [0, 0]])
    k3 = ct * np.diag([np.sqrt(eta), 1.0])
    k4 = ct * np.array([[0, 0], [np.sqrt(1 - eta), 0]])
    return KrausChannel([k1, k2, k3, k4])


def dephasing(phi):
    """With probability 1/2, rotate |1> by e^{i phi}."""
    Z = np.diag([1.0, np.exp(1j * phi)])
    return KrausChannel([np.sqrt(0.5) * np.eye(2, dtype=complex),
                         np.sqrt(0.5) * Z])


def swap_operator(d=2):
    S = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            S[i * d + j, j * d + i] = 1.0
    return S


def partial_swap(p):
    """Two-qubit unitary sqrt(p) 1 + i sqrt(1-p) S as a bipartite channel."""
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    U = np.sqrt(p) * np.eye(4, dtype=complex) + 1j * np.sqrt(1 - p) * swap_operator(2)
    return BipartiteChannel(KrausChannel([U]), (2, 2), (2, 2))


def swap_then_collective_dephasing(p, phi):
    """Swap both qubits, then collectively dephase with probability 1-p."""
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    S = swap_operator(2)
    Z = np.diag([1.0, np.exp(1j * phi)])
    ZZ = np.kron(Z, Z)
    ch = KrausChannel([np.sqrt(p) * S, np.sqrt(1 - p) * ZZ @ S])
    return BipartiteChannel(ch, (2, 2), (2, 2))


def cnot():
    U = np.eye(4, dtype=complex)
    U[[2, 3]] = U[[3, 2]]
    return BipartiteChannel(KrausChannel([U]), (2, 2), (2, 2))


def hw_operator(d, k, l):
    """sigma(k,l) = X(k) Z(l): X(k)|j> = |k+j mod d>, Z(l)|j> = w^{lj}|j>."""
    M = np.zeros((d, d), dtype=complex)
    w = np.exp(2j * np.pi / d)
    for j in range(d):
        M[(k + j) % d, j] = w ** (l * j)
    return M


def hw_group(d):
    """The d^2 shift/phase unitaries, indexed w = k + d*l."""
    return GroupRep([hw_operator(d, w % d, w // d) for w in range(d * d)],
                    check_closure=False)


def zero_error_pair():
    """Two two-qubit -> qubit channels with five Kraus operators each."""
    z, o = ket(0, 2), ket(1, 2)
    pl = (z + o) / np.sqrt(2)
    mi = (z - o) / np.sqrt(2)
    b00, b01, b10, b11 = (np.kron(z, z), np.kron(z, o),
                          np.kron(o, z), np.kron(o, o))
    b1p, b1m = np.kron(o, pl), np.kron(o, mi)
    s = 1 / np.sqrt(2)
    A1 = [np.outer(z, b00), np.outer(z, b01), np.outer(z, b10),
          s * np.outer(z, b11), s * np.outer(o, b11)]
    A2 = [np.outer(pl, b00), np.outer(pl, b01), np.outer(o, b1p),
          s * np.outer(z, b1m), s * np.outer(o, b1m)]
    return KrausChannel(A1), KrausChannel(A2)


# ---------------------------------------------------------------------------
# covariance machinery
# ---------------------------------------------------------------------------

def covariance_check(ch, in_rep, out_rep, return_residual=False):
    """True iff N(U_g rho U_g^dag) = V_g N(rho) V_g^dag for every g.

    Checked at the Choi level: conj(U_g) (x) V_g must commute with J to 1e-9.
    """
    if in_rep.dim != ch.in_dim or out_rep.dim != ch.out_dim:
        raise ValueError("representation dims do not match the channel")
    if len(in_rep) != len(out_rep):
        raise ValueError("representations must share the index set")
    J = choi_of(ch).matrix
    res = 0.0
    for U, V in zip(in_rep.unitaries, out_rep.unitaries):
        W = np.kron(U.conj(), V)
        res = max(res, np.abs(W @ J @ W.conj().T - J).max())
    if return_residual:
        return res <= 1e-9, res
    return res <= 1e-9


def isotypic_blocks(unitaries):
    """Isometries Q_k onto the isotypic subspaces of a finite abelian group.

    The group elements commute, so a generic Hermitian combination of
    them has one eigenvalue per character, and its eigenspaces are the
    isotypic subspaces (Murota-Kanno-Kojima-Kojima, Japan J. Indust. Appl.
    Math. 27 (2010)). The combination has fixed-seed random real weights,
    and eigenvalues within 1e-8 (relative) of their neighbour share a
    block. Every group-invariant operator A satisfies
    A = sum_k Q_k (Q_k^dag A Q_k) Q_k^dag.

    :param unitaries: the group's unitaries (mutually commuting).
    :return: list of (d, d_k) isometries, ordered by eigenvalue.
    """
    w = np.random.default_rng(0).standard_normal((len(unitaries), 2))
    H = sum(a * (U + U.conj().T) + 1j * b * (U - U.conj().T)
            for (a, b), U in zip(w, unitaries))
    vals, vecs = np.linalg.eigh(H)
    cuts = np.flatnonzero(np.diff(vals) > 1e-8 * max(1.0, np.abs(vals).max()))
    return np.split(vecs, cuts + 1, axis=1)


def environment_unitaries(ch, in_rep, out_rep):
    """Unitaries W_g with U U_g = (V_g (x) W_g) U for the canonical U.

    Solves V_g^dag K_j U_g = sum_k w_jk K_k by Hilbert-Schmidt
    projections, then projects w onto the unitary group via polar
    decomposition. Raises if the intertwiner fails to be unitarizable.
    """
    ok, res = covariance_check(ch, in_rep, out_rep, return_residual=True)
    if not ok:
        raise ValueError("channel is not covariant (residual %.2e)" % res)
    K = ch.kraus
    n = len(K)
    G = np.array([[np.trace(Ka.conj().T @ Kb) for Kb in K] for Ka in K])
    iso = isometric_extension(ch)
    out = []
    for U, V in zip(in_rep.unitaries, out_rep.unitaries):
        B = [V.conj().T @ Kj @ U for Kj in K]
        c = np.array([[np.trace(Kl.conj().T @ Bj) for Kl in K] for Bj in B])
        W = np.linalg.solve(G.T, c.T).T  # rows w_j solve sum_k G_lk w_jk = c_jl
        P, s, Qh = np.linalg.svd(W)
        if np.abs(s - 1).max() > 1e-6:
            raise ValueError("intertwiner not unitarizable (singular values "
                             "deviate by %.2e)" % np.abs(s - 1).max())
        Wg = P @ Qh
        lhs = iso.matrix @ U
        rhs = np.kron(V, Wg) @ iso.matrix
        if linalg.schatten_norm(lhs - rhs, np.inf) > 1e-8:
            raise ValueError("environment intertwining residual too large")
        out.append(Wg)
    return out


def teleport_simulate(ch, rho_in, in_rep=None, out_rep=None):
    """Simulate a covariant channel by teleportation over its Choi state.

    Measures the input together with the reference half of the resource
    state in the twisted maximally entangled basis of the input
    representation, applies the matching output correction, and averages
    over outcomes.
    """
    if isinstance(ch, BipartiteChannel):
        base = ch.channel
    else:
        base = ch
    d = base.in_dim
    if in_rep is None:
        if isinstance(ch, BipartiteChannel):
            dA, dB = ch.in_split
            ha, hb = hw_group(dA), hw_group(dB)
            in_rep = GroupRep([np.kron(a, b) for a in ha.unitaries
                               for b in hb.unitaries], check_closure=False)
        else:
            in_rep = hw_group(d)
    if out_rep is None:
        out_rep = _induced_output_rep(base, in_rep)
    if not in_rep.is_one_design():
        raise ValueError("input representation is not a one-design")
    ok, res = covariance_check(base, in_rep, out_rep, return_residual=True)
    if not ok:
        raise ValueError("channel not covariant under the given reps "
                         "(residual %.2e)" % res)

    R = linalg.as_matrix(rho_in)
    J = choi_of(base).matrix
    omega = J / d  # normalized Choi resource on R (x) out
    do = base.out_dim
    ups = max_ent_vector(d, normalized=False)
    out = np.zeros((do, do), dtype=complex)
    for U, V in zip(in_rep.unitaries, out_rep.unitaries):
        # measurement vector |Phi_U> = (1 (x) U)|Ups>/sqrt d on  in (x) R
        phi = (np.kron(np.eye(d), U) @ ups) / np.sqrt(d)
        proj = np.outer(phi, phi.conj())
        # systems ordered (in, R, out): rho (x) omega with omega on R (x) out
        full = np.kron(R, omega)
        Pfull = np.kron(proj, np.eye(do))
        post = linalg.partial_trace(Pfull @ full @ Pfull.conj().T,
                                    (d, d, do), [2])
        # correction: conj(U) matches some group element on the input side
        corr = _conj_correction(U, in_rep, out_rep)
        out += corr.conj().T @ post @ corr
    if isinstance(rho_in, DensityOperator):
        return DensityOperator(out, subnormalized=not base.trace_preserving)
    return out


def _induced_output_rep(ch, in_rep):
    """Output unitaries V_g = K U_g K^dag for unitary channels only."""
    if len(ch.kraus) == 1:
        K = ch.kraus[0]
        return GroupRep([K @ U @ K.conj().T for U in in_rep.unitaries],
                        check_closure=False)
    raise ValueError("output representation required for noisy channels")


def _conj_correction(U, in_rep, out_rep):
    """Output correction for measurement twist U: the V paired with the
    group element matching conj(U) up to phase."""
    d = in_rep.dim
    Uc = U.conj()
    best, overlap = None, -1.0
    for Ug, Vg in zip(in_rep.unitaries, out_rep.unitaries):
        t = abs(np.trace(Ug.conj().T @ Uc)) / d
        if t > overlap:
            overlap, best = t, Vg
    if overlap < 1 - 1e-8:
        raise ValueError("conjugate twist not represented in the group")
    return best


def bidirectional_from_cell(channels):
    """Controlled channel sum_x |x><x| (x) M^x with the control first.

    :param channels: list of KrausChannel with common dims, one per symbol.
    :return: BipartiteChannel on (X (x) B') -> (X (x) B).
    """
    if not channels:
        raise ValueError("empty cell")
    din = channels[0].in_dim
    dout = channels[0].out_dim
    if any(c.in_dim != din or c.out_dim != dout for c in channels):
        raise ValueError("inhomogeneous cell")
    nx = len(channels)
    nk = max(len(c.kraus) for c in channels)
    kraus = []
    for j in range(nk):
        K = np.zeros((nx * dout, nx * din), dtype=complex)
        for x, c in enumerate(channels):
            if j < len(c.kraus):
                K[x * dout:(x + 1) * dout, x * din:(x + 1) * din] = c.kraus[j]
        kraus.append(K)
    return BipartiteChannel(KrausChannel(kraus), (nx, din), (nx, dout))
