"""Small dense block-diagonal semidefinite programming.

Equality-form programs  min <C,X>  s.t.  <A_i,X> = b_i,  X >= 0 (block
diagonal) are solved with a primal-dual Mehrotra predictor-corrector
interior-point method. The constraints are one (m, sum_b n_b^2) matrix A:
row i is A_i with its blocks flattened row-major and concatenated in block
order; Model.compile writes it and the presolve reads it as it is. The
solver takes real data only: Model.compile writes Hermitian data in the
real symmetric embedding H -> [[Re H, -Im H], [Im H, Re H]] of each block.

The constraint side is prepared once per problem: the first solve
presolves A and copies each size class's columns, and keeps both in a memo
that later solves read. Model.compile builds A and b once until a variable
or constraint is added, so the problems it compiles for different
objectives share A, b and that memo. A problem's A and b must therefore
not be mutated after construction.

The iterates keep the blocks of one size as one (k, n, n) stack: each
iteration factors every X and Z block once, by one batched Cholesky and
inverse per size class on the class's X and Z stacks together, and Z^{-1}
and the step-length search reuse those factors; one batched eigvalsh per
size class gives the primal and the dual step together. Sums across blocks
are added in block order. A matrix is shifted only after its Cholesky
fails: a stack is then factored block by block, an X or Z block lifted by
a multiple of the identity, and the Schur complement M solved by least
squares on M + 1e-10 I.

Each iteration scores its iterate by the merit max(relative gap, primal
residual, dual residual). When the best merit has not improved for
STALL_WINDOW iterations the solve stops; a solve that ends as
numerical_limit (stall, vanishing step or max_iter) returns the best
iterate it met, with the objectives and gap of that iterate.

A thin modeling layer (Model) turns operator equalities and one-sided
operator inequalities over Hermitian matrix variables into the scalar
equality form, adding PSD slack blocks for inequalities. Each linear map
acts on a stack: given a (k, n, n) stack of inputs it returns the
(k, d, d) stack of their images, and compile calls it once per (term,
block), on that block's Hermitian basis lifted to full size. A variable is
one PSD block, or, declared with isometries iso = [Q_k], the sum
sum_k Q_k V_k Q_k^dag of one PSD block per Q_k; an inequality given iso
is imposed on each block Q_j^dag (.) Q_j. compile writes each block of
dimension n as a real block of dimension 2n; Model.solve folds each back
and returns primal_blocks indexed by variable, lifted to full size, and
multipliers indexed by constraint: each constraint's Hermitian Lagrange
multiplier at full size (None on a raw solve() result).

Acceptance contract: solve() is the raw solver; it reports its status
and raises nothing for a failed solve. Model.solve() is the one place
that decides whether a solve counts. It returns the solution when the
status is optimal, or numerical_limit with gap <= max(100 tol, 1e-7),
and raises ArithmeticError("<label> SDP failed: <status> (gap <g>)")
otherwise. Callers read values, never the status.
"""
import functools

import numpy as np
from scipy.linalg import cho_solve, lapack

DEFAULT_TOL = 1e-8
MAX_ITER = 200
BOUNDARY_FRAC = 0.98
STALL_WINDOW = 5


class SDPProblem:
    """Block-diagonal equality-form SDP (minimize).

    blocks: list of block dimensions n_b.
    C: list of per-block real symmetric objective matrices.
    A: (m, sum_b n_b^2) real constraint matrix. Row i is constraint i: its
       blocks flattened row-major and concatenated in block order.
    b: right-hand sides.
    Complex A or C raises ValueError; Model.compile embeds Hermitian data.

    The constraint side (blocks, A, b) is prepared on the first solve and
    the result memoized with the problem, shared by every problem
    Model.compile returns for the same constraints; A and b must not be
    mutated after construction.
    """

    def __init__(self, blocks, C, A, b):
        self.blocks = [int(n) for n in blocks]
        self.C = [np.asarray(Cb) for Cb in C]
        self.A = np.asarray(A)
        if np.iscomplexobj(self.A) or any(map(np.iscomplexobj, self.C)):
            raise ValueError("SDPProblem takes real data")
        self.A = self.A.astype(float, copy=False)
        self.b = np.asarray(b, dtype=float)
        if len(self.C) != len(self.blocks) or any(
                Cb.shape != (n, n) for Cb, n in zip(self.C, self.blocks)):
            raise ValueError("objective block shape mismatch")
        if self.A.shape != (len(self.b), sum(n * n for n in self.blocks)):
            raise ValueError("constraint matrix shape mismatch")
        self._memo = {}  # "prepared" -> _prepare's result


class SDPSolution:
    """One solve's result. multipliers is None from the raw solve(); from
    Model.solve it holds each constraint's full-size Hermitian multiplier,
    folded from dual_multipliers (see Model)."""

    def __init__(self, primal_value, dual_value, primal_blocks,
                 dual_multipliers, gap, status, iterations=0):
        self.primal_value = primal_value
        self.dual_value = dual_value
        self.primal_blocks = primal_blocks
        self.dual_multipliers = dual_multipliers
        self.multipliers = None
        self.gap = gap
        self.status = status
        self.iterations = iterations

    def __repr__(self):
        return ("SDPSolution(status=%s, primal=%.10g, dual=%.10g, gap=%.3g)"
                % (self.status, self.primal_value, self.dual_value, self.gap))


def _fold_multipliers(outs, dims, y):
    """W = 2 sum_j Q_j (sum_l y_l H_l) Q_j^dag of each constraint, its
    output blocks' isometries Q_j in outs and dimensions in dims: the real
    program's multipliers y are half the Hermitian ones."""
    W, r0 = [], 0
    for out, ds in zip(outs, dims):
        Wc = 0
        for Q, d in zip(out, ds):
            Wc = Wc + _lift(Q, (2 * y[r0:r0 + d * d] @ hermitian_basis(d)
                                .reshape(d * d, -1)).reshape(d, d))
            r0 += d * d
        W.append(Wc)
    return W


def _size_classes(dims):
    """[(n, indices of blocks of size n, their columns)], n as first met."""
    offsets = np.cumsum([0] + [n * n for n in dims])
    idx = {n: np.flatnonzero(np.equal(dims, n)) for n in dict.fromkeys(dims)}
    return [(n, i, (offsets[i][:, None] + np.arange(n * n)).ravel())
            for n, i in idx.items()]


def _prepare(p):
    """The constraint side of p, derived once and memoized in p._memo:
    (keep, inconsistent, layout), the presolve's kept rows and verdict, and
    for a consistent program that keeps a row the (sizes, F, flat, pos,
    eyes, normA) that solve iterates with, else None. Threads that both find
    the memo empty derive equal values and use the one stored first."""
    prep = p._memo.get("prepared")
    if prep is not None:
        return prep
    keep, inconsistent = _presolve(p.A, p.b)
    layout = None
    if not inconsistent and len(keep):
        m, blocks = len(keep), p.blocks
        # block b is entry j of size class c's (k, n, n) stack, (c, j) = pos[b]
        classes = _size_classes(blocks)
        F = [p.A[np.ix_(keep, cols)] for _, _, cols in classes]  # by class
        sizes = [n for n, _, _ in classes]
        pos = [(sizes.index(n), blocks[:i].count(n))
               for i, n in enumerate(blocks)]
        flat = [F[c].reshape(m, -1, n * n)[:, j]
                for (c, j), n in zip(pos, blocks)]
        eyes = [np.broadcast_to(np.eye(n), (len(i), n, n))
                for n, i, _ in classes]
        normA = max(1.0, max(np.linalg.norm(Fb, axis=1).max() for Fb in flat))
        layout = (sizes, F, flat, pos, eyes, normA)
    return p._memo.setdefault("prepared", (keep, inconsistent, layout))


def _presolve(A, b):
    """Drop linearly dependent constraint rows; detect inconsistency.

    LAPACK's pivoted Cholesky (?pstrf) reveals the rank of the Gram matrix
    A A^T of the rows, scaled to unit diagonal so that pivoting keeps the
    rows farthest from the span of those already kept, not the longest. A
    pivot at or below m * eps is rounding, so the rows left are dependent;
    they must agree with the kept ones on their right-hand sides.
    """
    m = len(b)
    G = A @ A.T
    d = np.sqrt(G.diagonal())
    d[d == 0] = 1.0
    G /= np.outer(d, d)
    factor, piv, rank, info = lapack.dpstrf(G, tol=m * np.finfo(float).eps)
    if info < 0:
        raise ValueError("dpstrf: illegal argument %d" % -info)
    keep, dropped = piv[:rank] - 1, piv[rank:] - 1
    inconsistent = False
    if len(dropped):
        coef = cho_solve((factor[:rank, :rank], False), b[keep] / d[keep])
        pred = d[dropped] * (G[np.ix_(dropped, keep)] @ coef)
        inconsistent = bool(np.any(np.abs(pred - b[dropped])
                                   > 1e-7 * max(1.0, np.abs(b).max())))
    return np.sort(keep), inconsistent


def solve(p, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """
    Solve a block-diagonal SDP to the requested tolerance.

    :param p: SDPProblem (real data).
    :param tol: duality-gap / residual tolerance in [1e-12, 1e-4].
    :return: SDPSolution with status optimal | infeasible | numerical_limit.
        A numerical_limit solution is the best iterate met (see the
        module docstring); iterations counts every iteration run.
        dual_multipliers holds one multiplier per row of p.A, zero on rows
        the presolve dropped.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol out of range")
    blocks = p.blocks
    if sum(blocks) > 512:
        raise ValueError("total block dimension too large")
    keep, inconsistent, layout = _prepare(p)
    y_all = np.zeros(len(p.A))
    if inconsistent:
        return SDPSolution(np.inf, -np.inf, None, y_all, np.inf, "infeasible")
    b = p.b[keep]
    m, ntot = len(b), sum(blocks)
    if m == 0:
        # unconstrained: X = 0 is optimal for C >= 0, else unbounded; our
        # programs never hit this, return the trivial point
        return SDPSolution(0.0, 0.0, [np.zeros((n, n)) for n in blocks],
                           y_all, 0.0, "optimal")
    sizes, F, flat, pos, eyes, normA = layout
    C = [np.stack([p.C[bi] for bi in i]) for _, i, _ in _size_classes(blocks)]

    normC = max(1.0, max(np.linalg.norm(Cb) for Cc in C for Cb in Cc))
    normb = max(1.0, np.abs(b).max())
    scale = max(10.0, np.sqrt(ntot), ntot * normb / normA)
    X = [scale * I for I in eyes]
    Z = [max(10.0, np.sqrt(ntot), normC, normA) * I for I in eyes]
    y = np.zeros(m)

    def op_A(V):
        # <A_i, V> = sum_jk (A_i)_jk V_kj per block, added in block order
        return sum(Fb @ V[c][j].T.ravel() for Fb, (c, j) in zip(flat, pos))

    def op_At(v):
        return [(v @ Fc).reshape(-1, n, n) for Fc, n in zip(F, sizes)]

    def inner(U, V):  # per-block sums, added in block order
        s = [np.sum(u * v, axis=(1, 2)).tolist() for u, v in zip(U, V)]
        return sum(s[c][j] for c, j in pos)

    def inv_factor(V):
        # inverse Cholesky factors of a stack, or block by block if one fails;
        # a block that is not positive definite is lifted by a multiple of I
        try:
            L = np.linalg.cholesky(V)
        except np.linalg.LinAlgError:
            if V.ndim == 3:
                return np.stack([inv_factor(Vb) for Vb in V])
            w0 = np.linalg.eigvalsh(V)[0]
            lift = max(1e-12 * max(np.trace(V).real, 1.0), -2.0 * w0, 1e-14)
            L = np.linalg.cholesky(V + lift * np.eye(len(V)))
        return np.linalg.inv(L)

    def max_steps(L, dX, dZ):
        # the largest a_p and a_d with X + a_p dX >= 0 and Z + a_d dZ >= 0,
        # from the inverse factors L of each size class's X and Z together
        wp = wd = 0.0
        for Lc, dXc, dZc in zip(L, dX, dZ):
            w = np.linalg.eigvalsh(Lc @ np.concatenate([dXc, dZc])
                                   @ Lc.transpose(0, 2, 1))[:, 0]
            wp, wd = min(wp, w[:len(dXc)].min()), min(wd, w[len(dXc):].min())
        return tuple(-1.0 / w if w < 0 else np.inf for w in (wp, wd))

    status = "numerical_limit"
    best = (np.inf, 0, X, y)
    it = 0
    for it in range(1, max_iter + 1):
        rp = b - op_A(X)
        AtY = op_At(y)
        Rd = [Cb - Ab - Zb for Cb, Ab, Zb in zip(C, AtY, Z)]
        gap = inner(X, Z)
        mu = gap / ntot
        pobj = inner(C, X)
        dobj = float(b @ y)
        relgap = gap / (1.0 + abs(pobj))
        rp_n = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        rd_n = max(np.linalg.norm(R) for Rb in Rd for R in Rb) / normC
        merit = max(relgap, rp_n, rd_n)
        if merit < best[0]:
            best = (merit, it, X, y)
        if relgap <= tol and rp_n <= tol and rd_n <= tol:
            status = "optimal"
            break
        if abs(dobj) > 1e10 * normb and rd_n <= 1e-6:
            status = "infeasible"
            break
        if it - best[1] >= STALL_WINDOW:
            break

        # per size class, the inverse factors of its X stack, then its Z stack
        L = [inv_factor(np.concatenate([Xc, Zc])) for Xc, Zc in zip(X, Z)]
        Zi = [Li.transpose(0, 2, 1) @ Li
              for Li in (Lc[len(Xc):] for Lc, Xc in zip(L, X))]

        # Schur complement M_ij = Tr(A_i X A_j Z^{-1}), added in block order
        M = np.zeros((m, m))
        for Fb, n, (c, j) in zip(flat, blocks, pos):
            Vb = Zi[c][j][None] @ Fb.reshape(m, n, n) @ X[c][j][None]
            M += np.transpose(Vb, (0, 2, 1)).reshape(m, -1) @ Fb.T
        M = (M + M.T) / 2
        factor, info = lapack.dpotrf(M)
        if info < 0:
            raise ValueError("dpotrf: illegal argument %d" % -info)
        if info == 0:
            solve_M = lambda rhs: lapack.dpotrs(factor, rhs)[0]
        else:
            # minimum-norm least squares on M + 1e-10 I from one SVD, with
            # lstsq's default cutoff: singular values <= m eps s_max dropped
            U, s, Vt = np.linalg.svd(M + 1e-10 * np.eye(m))
            kept = s > m * np.finfo(float).eps * s[0]
            U, s, Vt = U[:, kept], s[kept], Vt[kept]
            solve_M = lambda rhs: Vt.T @ ((U.T @ rhs) / s)

        def direction(Rc):
            # the step for complementarity residual Rc (per size class)
            T = [(Rcb - Xb @ Rdb) @ Zib
                 for Rcb, Xb, Rdb, Zib in zip(Rc, X, Rd, Zi)]
            dy = solve_M(rp - op_A(T))
            dZ = [Rb - Ab for Rb, Ab in zip(Rd, op_At(dy))]
            dX = [(Rcb - Xb @ dZb) @ Zib
                  for Rcb, Xb, dZb, Zib in zip(Rc, X, dZ, Zi)]
            return [(d + d.transpose(0, 2, 1)) / 2 for d in dX], dy, dZ

        # predictor: Rc = -X Z
        Rc0 = [-Xb @ Zb for Xb, Zb in zip(X, Z)]
        dXa, dya, dZa = direction(Rc0)
        ap, ad = (min(1.0, a) for a in max_steps(L, dXa, dZa))
        mu_aff = inner([Xb + ap * d for Xb, d in zip(X, dXa)],
                       [Zb + ad * d for Zb, d in zip(Z, dZa)]) / ntot
        sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)

        # corrector: Rc = sigma mu I - X Z - dXa dZa
        dX, dy, dZ = direction([R + sigma * mu * I - da @ dz
                                for R, I, da, dz in zip(Rc0, eyes, dXa, dZa)])
        ap, ad = (min(1.0, BOUNDARY_FRAC * a) for a in max_steps(L, dX, dZ))
        if ap < 1e-10 and ad < 1e-10:
            break
        X = [Xb + ap * d for Xb, d in zip(X, dX)]
        y = y + ad * dy
        Z = [Zb + ad * d for Zb, d in zip(Z, dZ)]

    if status == "numerical_limit":
        _, _, X, y = best
    pobj = inner(C, X)
    dobj = float(b @ y)
    X = [X[c][j] for c, j in pos]
    y_all[keep] = y
    return SDPSolution(pobj, dobj, X, y_all, abs(pobj - dobj), status, it)


# ---------------------------------------------------------------------------
# modeling layer: Hermitian matrix variables, operator (in)equalities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def hermitian_basis(n):
    """Orthonormal (Hilbert-Schmidt) basis of n x n Hermitian matrices,
    as a read-only (n^2, n, n) array shared by every caller."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    k = 0
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        basis[k, i, i] = 1.0
        k += 1
    for i in range(n):
        for j in range(i + 1, n):
            basis[k, i, j] = s
            basis[k, j, i] = s
            k += 1
            basis[k, i, j] = -1j * s
            basis[k, j, i] = 1j * s
            k += 1
    basis.flags.writeable = False
    return basis


def _embed(H):
    """The real embedding H -> [[Re H, -Im H], [Im H, Re H]] of each matrix
    of a stack."""
    return np.concatenate([np.concatenate([H.real, -H.imag], -1),
                           np.concatenate([H.imag, H.real], -1)], -2)


@functools.lru_cache(maxsize=None)
def _embedded_basis(n):
    """hermitian_basis(n) in the real embedding, flattened: a read-only
    (n^2, 4 n^2) array shared by every caller."""
    basis = _embed(hermitian_basis(n)).reshape(n * n, -1)
    basis.flags.writeable = False
    return basis


def _lift(Q, B):
    """Q B Q^dag for an isometry Q (B itself for Q = None); B may be a
    stack of matrices."""
    return B if Q is None else Q @ B @ Q.conj().T


class Model:
    """Builder for SDPs over Hermitian PSD matrix variables.

    A variable of dimension n is one PSD block, or, declared with
    iso=[Q_1, ..., Q_r] (n-row isometries with orthogonal ranges), the
    operator sum_k Q_k V_k Q_k^dag with one PSD block V_k per Q_k.
    A term (v, fn) of add_eq or add_psd maps a (k, n, n) stack of inputs
    to the (k, d, d) stack of their images, d the constraint's dimension;
    compile calls fn once per block of v, on that block's Hermitian basis
    lifted to n x n.
    Operator inequalities get PSD slack blocks; operator equalities are
    expanded over an orthonormal Hermitian basis of the output space, or,
    given iso, of each block Q_j^dag (.) Q_j of it; the blocks between
    different Q_j are not constrained. The reduction is exact when a group
    whose isotypic subspaces are the ranges of the Q_k leaves the data
    invariant and commutes with every map (Gatermann-Parrilo, J. Pure
    Appl. Algebra 192 (2004)). compile writes the real program: each
    block of dimension n becomes its real embedding of dimension 2n, the
    objective embed(C)/2 and the right-hand sides doubled, so the real
    program's optimum is the same; its dual_multipliers are the real
    program's, half the Hermitian program's. solve() folds each block back
    to n x n and returns primal_blocks indexed by variable, each lifted
    back to full size, and multipliers, one full-size Hermitian operator
    per add_eq or add_psd in call order:
    W = 2 sum_j Q_j (sum_l y_l H_l) Q_j^dag over the constraint's rows l
    of output block j, H_l the hermitian_basis element of the row. The
    multiplier of an add_psd is that inequality's, so it is PSD, and
    sum over constraints of Re Tr{G W} is the dual value.
    compile builds the constraint side once, until var, add_eq or add_psd
    is called; set_objective alone only changes the objective, so solves
    for many objectives share one prepared constraint side.
    """

    def __init__(self):
        self._vars = []    # (isometries, or [None] for one block; first block)
        self._sizes = []   # block dimensions, variables in order
        self._obj = {}     # block index -> objective block
        self._eqs = []     # (terms, G, iso); a map of None marks the slack
        self._compiled = None  # (A, b, memo) of the constraints, once built

    def var(self, dim, iso=None):
        """Declare a variable of dimension dim; return its index."""
        iso = [None] if iso is None else [np.asarray(Q) for Q in iso]
        self._compiled = None
        self._vars.append((iso, len(self._sizes)))
        self._sizes += [int(dim) if Q is None else Q.shape[1] for Q in iso]
        return len(self._vars) - 1

    def set_objective(self, coeffs):
        """Minimize sum_v <C_v, X_v>; coeffs maps var index -> Hermitian C_v."""
        self._obj = {}
        for v, C in coeffs.items():
            C = np.asarray(C, dtype=complex)
            iso, first = self._vars[v]
            for k, Q in enumerate(iso):
                self._obj[first + k] = C if Q is None else Q.conj().T @ C @ Q

    def add_eq(self, terms, G):
        """Constrain sum_v map_v(X_v) = G (operator equality)."""
        G = np.asarray(G, dtype=complex)
        self._compiled = None
        self._eqs.append((list(terms), G, [None]))

    def add_psd(self, terms, G, iso=None):
        """Constrain Q_j^dag (sum_v map_v(X_v) - G) Q_j >= 0 for each Q_j
        in iso (Q = 1 without iso), via one PSD slack block per Q_j."""
        G = np.asarray(G, dtype=complex)
        s = self.var(G.shape[0], iso=iso)  # which drops the compiled side
        self._eqs.append((list(terms) + [(s, None)], G, self._vars[s][0]))
        return s

    def compile(self):
        """The real SDPProblem of the model, blocks of dimension 2n for the
        variables' blocks of dimension n; its A, b and memo are those of the
        last compile when no variable or constraint was added since."""
        C = [_embed(self._obj[bi]) / 2 if bi in self._obj
             else np.zeros((2 * n, 2 * n)) for bi, n in enumerate(self._sizes)]
        if self._compiled is None:
            self._compiled = self._constraints() + ({},)
        A, b, memo = self._compiled
        p = SDPProblem([2 * n for n in self._sizes], C, A, b)
        p._memo = memo
        return p

    def _out_dims(self):
        """The dimensions of each constraint's output blocks; a constraint
        has one row per basis element of each, in this order."""
        return [[G.shape[0] if Q is None else Q.shape[1] for Q in out]
                for _, G, out in self._eqs]

    def _constraints(self):
        """(A, b) of the constraints, in SDPProblem's layout, each block's
        columns in the real embedding."""
        outs = self._out_dims()
        m = sum(d * d for dims in outs for d in dims)
        widths = [4 * n * n for n in self._sizes]
        A = np.zeros((m, sum(widths)))
        # each block's column range, as views: writes land in A
        cols = np.split(A, np.cumsum(widths)[:-1], 1)
        b = np.zeros(m)
        r0 = 0
        for (terms, G, out), dims in zip(self._eqs, outs):
            # conjugated output basis, each block's lifted to full size
            out_flat = np.concatenate([
                _lift(Q, hermitian_basis(d)).reshape(d * d, -1)
                for Q, d in zip(out, dims)]).conj()
            r1 = r0 + len(out_flat)
            for v, fn in terms:
                iso, first = self._vars[v]
                if fn is None:  # the slack: block j is -(basis of output block j)
                    r = r0
                    for bi, d in enumerate(dims, start=first):
                        cols[bi][r:r + d * d] = -_embedded_basis(d)
                        r += d * d
                    continue
                for bi, Q in enumerate(iso, start=first):
                    n = self._sizes[bi]
                    # F[l, i] = <out_l, fn(in_i)>, one map call per stack
                    imgs = fn(_lift(Q, hermitian_basis(n)))
                    F = (out_flat @ imgs.reshape(n * n, -1).T).real
                    cols[bi][r0:r1] += F @ _embedded_basis(n)
            b[r0:r1] = 2 * (out_flat @ G.ravel()).real
            r0 = r1
        return A, b

    def solve(self, tol=DEFAULT_TOL, max_iter=MAX_ITER, label="model"):
        """Compile and solve; return the solution if it counts (see the
        module docstring), else raise ArithmeticError naming label. Its
        primal_blocks hold one full-size matrix per variable, each real
        block folded back to its n x n Hermitian block first, and its
        multipliers one full-size Hermitian multiplier per constraint, in
        the order add_eq and add_psd were called (see the class
        docstring)."""
        sol = solve(self.compile(), tol=tol, max_iter=max_iter)
        if sol.status == "optimal" or (sol.status == "numerical_limit"
                                       and sol.gap <= max(100 * tol, 1e-7)):
            blocks = [(X[:n, :n] + X[n:, n:]) / 2
                      + 1j * (X[n:, :n] - X[:n, n:]) / 2
                      for X, n in zip(sol.primal_blocks, self._sizes)]
            sol.primal_blocks = [sum(_lift(Q, blocks[first + k])
                                     for k, Q in enumerate(iso))
                                 for iso, first in self._vars]
            sol.multipliers = _fold_multipliers(
                [out for _, _, out in self._eqs], self._out_dims(),
                sol.dual_multipliers)
            return sol
        raise ArithmeticError("%s SDP failed: %s (gap %.3g)"
                              % (label, sol.status, sol.gap))
