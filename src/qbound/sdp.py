"""Small dense block-diagonal semidefinite programming.

Equality-form programs  min <C,X>  s.t.  <A_i,X> = b_i,  X >= 0 (block
diagonal) are solved with a primal-dual Mehrotra predictor-corrector
interior-point method. The constraints are one (m, sum_b n_b^2) matrix A:
row i is A_i with its blocks flattened row-major and concatenated in block
order; Model.compile writes it with symmetric blocks, and the solver reads
only the symmetric part of each block. The solver takes real data only:
Model.compile writes Hermitian data in the real symmetric embedding
H -> [[Re H, -Im H], [Im H, Re H]] of each block.

The constraint side is prepared once per constraint matrix: the first
solve replaces each block of each row of A by its symmetric part,
presolves the result, copies the kept rows once in column layout, their
entries in size-class order, as one contiguous (N, m) matrix Ft, and keeps
it in a memo that later solves read. Ft is the solver's one dense copy of
the constraints beside A; F = Ft.T is the (m, N) view that the residual
products read. Each size class also keeps a (k, n, n m) view of its
entries of Ft and a scipy.sparse CSR copy of them, one row per
constraint. The memo is a function of the blocks and A alone; the
objective C and the right-hand sides b are read on each solve, which also
checks b against the rows the presolve dropped. Model.compile builds A
once until a variable or constraint is added, and Model.with_data copies
a model with a new objective or new right-hand sides, so the problems of
one model structure share A and that memo. A problem's A must therefore
not be mutated after construction.

Each iterate X, Z, the dual residual and each direction is one flat vector
in size-class order, which each class reads as a (k, n, n) view, so
<A_i, V> for all i is one product with F and sum_i y_i A_i one more; as
the rows are symmetric, V need not be. Each iteration factors every X and
Z block once, by one batched Cholesky and inverse per size class on the
class's X and Z stacks together, and Z^{-1} and the step-length search
reuse those factors; one batched eigvalsh per size class gives the primal
and the dual step together. The Schur complement M_ij = <A_i, Z^{-1} A_j X>
is the F2 formula of Fujisawa, Kojima and Nakata (Math. Program. 79,
1997): dense products for every A_j, sparse inner products with A_i. Per
size class, one batched product makes Z^{-1} A_j and one more Z^{-1} A_j X
for every j, into two (k, n, n, m) work stacks made once per solve, and
the class's CSR rows contract them; the rows of the Rains programs are
93-99.6 % zeros. Sums across blocks are added in size-class order. A
matrix is shifted only after its Cholesky fails: a stack is then factored
block by block, an X or Z block lifted by a multiple of the identity, and
the Schur complement M solved by least squares on M + 1e-10 I.

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
import copy
import functools

import numpy as np

DEFAULT_TOL = 1e-8
MAX_ITER = 200
BOUNDARY_FRAC = 0.98
STALL_WINDOW = 5


class SDPProblem:
    """Block-diagonal equality-form SDP (minimize).

    blocks: list of block dimensions n_b.
    C: list of per-block real symmetric objective matrices.
    A: (m, sum_b n_b^2) real constraint matrix. Row i is constraint i: its
       blocks flattened row-major and concatenated in block order. As X is
       symmetric, only the symmetric part of each block counts: the solver
       replaces every block by (A_b + A_b^T)/2, so a problem with
       non-symmetric blocks is solved as its symmetrized problem.
    b: right-hand sides.
    Complex A or C raises ValueError; Model.compile embeds Hermitian data.

    The constraint side (blocks, A) is prepared on the first solve and the
    result memoized with the problem, shared by every problem that
    Model.compile and Model.with_data return for the same structure; C and
    b are per solve. A must not be mutated after construction.
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
    """The constraint side of p, derived from its blocks and A once and
    memoized in p._memo: (keep, inconsistent, layout), the presolve's kept
    rows and its test of b (None when it keeps every row; see _presolve),
    and for a program that keeps a row the (order, spans, Ft, classes, pos,
    starts, eye, normA) that solve iterates with, else None. Ft is the
    solver's one dense copy of the kept rows, in column layout: column i
    is row i of A with each block replaced by its symmetric part, its
    entries in size-class order. <A_i, X> is the same for symmetric X, and
    the presolve tests the symmetrized rows, which are the ones solve uses.
    classes holds per size class a (k, n, n m) view of its entries of Ft
    and a scipy.sparse CSR copy of the same entries, transposed, for the
    Schur complement (see _schur_complement). Nothing in it reads b or C,
    so problems that differ only there may share it. Threads that both
    find the memo empty derive equal values and use the one stored
    first."""
    prep = p._memo.get("prepared")
    if prep is not None:
        return prep
    from scipy.sparse import csr_array
    blocks = p.blocks
    offsets = np.cumsum([0] + [n * n for n in blocks])
    parts = [p.A[:, o:o + n * n].reshape(-1, n, n)
             for o, n in zip(offsets, blocks)]
    A = np.concatenate([(V + V.transpose(0, 2, 1)).reshape(-1, n * n) / 2
                        for V, n in zip(parts, blocks)], 1)
    keep, inconsistent = _presolve(A)
    layout = None
    if len(keep):
        m, groups = len(keep), _size_classes(blocks)
        # the blocks in class order; class c is entries spans[c] = (o, k, n)
        # of a flat vector, read as a (k, n, n) stack, block b is its entry
        # pos[b], and starts holds each block's first entry, in class order
        order = np.concatenate([i for _, i, _ in groups])
        Ft = np.ascontiguousarray(
            A.T[np.ix_(np.concatenate([c for _, _, c in groups]), keep)])
        sizes = [n for n, _, _ in groups]
        offs = np.cumsum([0] + [len(cols) for _, _, cols in groups])
        spans = [(int(offs[c]), len(i), n)
                 for c, (n, i, _) in enumerate(groups)]
        pos = [(sizes.index(n), blocks[:i].count(n))
               for i, n in enumerate(blocks)]
        starts = np.cumsum([0] + [blocks[bi] ** 2 for bi in order[:-1]])
        eye = np.concatenate([np.eye(blocks[bi]).ravel() for bi in order])
        normA = max(1.0, np.sqrt(np.add.reduceat(Ft * Ft, starts).max()))
        classes = [(Ft[o:o + k * n * n].reshape(k, n, n * m),
                    csr_array(Ft[o:o + k * n * n].T)) for o, k, n in spans]
        layout = (order, spans, Ft, classes, pos, starts, eye, normA)
    return p._memo.setdefault("prepared", (keep, inconsistent, layout))


def _schur_complement(classes, Xs, Zi, work):
    """The Schur complement M_ij = Tr(A_i X A_j Z^{-1}) of the symmetric
    rows in classes (as _prepare makes them), from the (k, n, n) stacks Xs
    of X and Zi of Z^{-1} of each size class. work holds each class's two
    (k, n, n, m) work stacks: one batched product writes Z^{-1} A_j to the
    first, for every j at once, and one more Z^{-1} A_j X to the second.
    The class's CSR rows then add M_ij = <A_i, Z^{-1} A_j X>, which is the
    trace above because A_i is symmetric."""
    m = classes[0][1].shape[0]
    M = np.zeros((m, m))
    for (Fv, S), Xc, Zic, (W, V) in zip(classes, Xs, Zi, work):
        np.matmul(Zic, Fv, out=W.reshape(Fv.shape))
        np.matmul(Xc[:, None], W, out=V)
        M += S @ V.reshape(-1, m)
    return (M + M.T) / 2


def _presolve(A):
    """Drop linearly dependent constraint rows.

    LAPACK's pivoted Cholesky (?pstrf) reveals the rank of the Gram matrix
    A A^T of the rows, scaled to unit diagonal so that pivoting keeps the
    rows farthest from the span of those already kept, not the longest. A
    pivot at or below m * eps is rounding, so the rows left are dependent;
    they must agree with the kept ones on their right-hand sides.

    :return: (keep, inconsistent): the kept rows in order, and None when
        every row is kept, else the test inconsistent(b), true when the
        dropped rows' right-hand sides in b differ from those the kept rows
        predict by more than 1e-7 max(1, max|b|).
    """
    from scipy.linalg import cho_solve, lapack
    m = len(A)
    G = A @ A.T
    d = np.sqrt(G.diagonal())
    d[d == 0] = 1.0
    G /= np.outer(d, d)
    factor, piv, rank, info = lapack.dpstrf(G, tol=m * np.finfo(float).eps)
    if info < 0:
        raise ValueError("dpstrf: illegal argument %d" % -info)
    keep, dropped = piv[:rank] - 1, piv[rank:] - 1
    inconsistent = None
    if len(dropped):
        L, G_dk = factor[:rank, :rank], G[np.ix_(dropped, keep)]

        def inconsistent(b):
            coef = cho_solve((L, False), b[keep] / d[keep])
            pred = d[dropped] * (G_dk @ coef)
            return bool(np.any(np.abs(pred - b[dropped])
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
    from scipy.linalg import lapack
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol out of range")
    blocks = p.blocks
    if sum(blocks) > 512:
        raise ValueError("total block dimension too large")
    keep, inconsistent, layout = _prepare(p)
    y_all = np.zeros(len(p.A))
    if inconsistent is not None and inconsistent(p.b):
        return SDPSolution(np.inf, -np.inf, None, y_all, np.inf, "infeasible")
    b = p.b[keep]
    m, ntot = len(b), sum(blocks)
    if m == 0:
        # unconstrained: X = 0 is optimal for C >= 0, else unbounded; our
        # programs never hit this, return the trivial point
        return SDPSolution(0.0, 0.0, [np.zeros((n, n)) for n in blocks],
                           y_all, 0.0, "optimal")
    order, spans, Ft, classes, pos, starts, eye, normA = layout
    F = Ft.T  # row i is A_i (symmetrized), for the residual products

    def views(v):
        # the (k, n, n) stack of each size class in flat vector v
        return [v[o:o + k * n * n].reshape(k, n, n) for o, k, n in spans]

    def flat(stacks):
        return np.concatenate([s.ravel() for s in stacks])

    C = np.concatenate([p.C[bi].ravel() for bi in order])
    normC = max(1.0, np.sqrt(np.add.reduceat(C * C, starts).max()))
    normb = max(1.0, np.abs(b).max())
    scale = max(10.0, np.sqrt(ntot), ntot * normb / normA)
    X = scale * eye
    Z = max(10.0, np.sqrt(ntot), normC, normA) * eye
    y = np.zeros(m)
    eyes = views(eye)
    # the Schur complement's two (k, n, n, m) work stacks per size class,
    # made once per solve: made each iteration, the allocator may give
    # their pages back to the system and fault them in again every time
    work = [np.empty((2, k, n, n, m)) for _, k, n in spans]

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
        for Lc, dXc, dZc in zip(L, views(dX), views(dZ)):
            w = np.linalg.eigvalsh(Lc @ np.concatenate([dXc, dZc])
                                   @ Lc.transpose(0, 2, 1))[:, 0]
            wp, wd = min(wp, w[:len(dXc)].min()), min(wd, w[len(dXc):].min())
        return tuple(-1.0 / w if w < 0 else np.inf for w in (wp, wd))

    status = "numerical_limit"
    best = (np.inf, 0, X, y)
    it = 0
    for it in range(1, max_iter + 1):
        # X is symmetric, so <A_i, X> = sum_jk (A_i)_jk X_kj is F @ X
        rp = b - F @ X
        Rd = C - y @ F - Z
        gap = X @ Z
        mu = gap / ntot
        pobj = C @ X
        dobj = float(b @ y)
        relgap = gap / (1.0 + abs(pobj))
        rp_n = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        rd_n = np.sqrt(np.add.reduceat(Rd * Rd, starts).max()) / normC
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

        Xs, Zs, Rds = views(X), views(Z), views(Rd)
        # per size class, the inverse factors of its X stack, then its Z stack
        L = [inv_factor(np.concatenate([Xc, Zc])) for Xc, Zc in zip(Xs, Zs)]
        Zi = [Li.transpose(0, 2, 1) @ Li
              for Li in (Lc[len(Xc):] for Lc, Xc in zip(L, Xs))]

        M = _schur_complement(classes, Xs, Zi, work)
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
            T = [(Rcc - Xc @ Rdc) @ Zic
                 for Rcc, Xc, Rdc, Zic in zip(Rc, Xs, Rds, Zi)]
            dy = solve_M(rp - F @ flat(T))
            dZ = Rd - dy @ F
            dX = [(Rcc - Xc @ dZc) @ Zic
                  for Rcc, Xc, dZc, Zic in zip(Rc, Xs, views(dZ), Zi)]
            return flat((d + d.transpose(0, 2, 1)) / 2 for d in dX), dy, dZ

        # predictor: Rc = -X Z
        Rc0 = [-Xc @ Zc for Xc, Zc in zip(Xs, Zs)]
        dXa, dya, dZa = direction(Rc0)
        ap, ad = (min(1.0, a) for a in max_steps(L, dXa, dZa))
        mu_aff = (X + ap * dXa) @ (Z + ad * dZa) / ntot
        sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)

        # corrector: Rc = sigma mu I - X Z - dXa dZa
        dX, dy, dZ = direction([R + sigma * mu * I - da @ dz for R, I, da, dz
                                in zip(Rc0, eyes, views(dXa), views(dZa))])
        ap, ad = (min(1.0, BOUNDARY_FRAC * a) for a in max_steps(L, dX, dZ))
        if ap < 1e-10 and ad < 1e-10:
            break
        X = X + ap * dX
        y = y + ad * dy
        Z = Z + ad * dZ

    if status == "numerical_limit":
        _, _, X, y = best
    pobj = C @ X
    dobj = float(b @ y)
    Xs = views(X)
    y_all[keep] = y
    return SDPSolution(pobj, dobj, [Xs[c][j] for c, j in pos], y_all,
                       abs(pobj - dobj), status, it)


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


def _out_basis(out, dims):
    """The conjugated Hermitian basis of a constraint's output blocks, each
    lifted to full size by its isometry in out, one flattened row each."""
    return np.concatenate([_lift(Q, hermitian_basis(d)).reshape(d * d, -1)
                           for Q, d in zip(out, dims)]).conj()


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
    compile builds the constraint side (A and the solver's memo) once,
    until var, add_eq or add_psd is called. The objective and the
    right-hand sides are per call: set_objective only changes the
    objective, and with_data returns a copy with a new objective or new
    right-hand sides G, so solves for many data share one prepared
    constraint side and the model built once is never changed.
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

    def with_data(self, objective=None, rhs=None):
        """A copy of the model with new data: the objective (as
        set_objective takes it) when given, and the right-hand side G of
        each constraint in rhs = {index: G}, constraints indexed in the
        order add_eq and add_psd were called. The copy shares this model's
        compiled A and memo, and given rhs it gets its own b, written as
        compile writes it, so it compiles to the program of a model built
        with that data. This model is not changed (its constraint side is
        compiled first if it has none), so threads may share it."""
        new = copy.copy(self)
        new._vars, new._sizes = list(self._vars), list(self._sizes)
        new._eqs = list(self._eqs)
        if objective is not None:
            new.set_objective(objective)
        for k, G in (rhs or {}).items():
            terms, G0, out = new._eqs[k]
            G = np.asarray(G, dtype=complex)
            if G.shape != G0.shape:
                raise ValueError("right-hand side shape mismatch")
            new._eqs[k] = (terms, G, out)
        A, b, memo = self._constraint_side()
        new._compiled = (A, new._rhs() if rhs else b, memo)
        return new

    def compile(self):
        """The real SDPProblem of the model, blocks of dimension 2n for the
        variables' blocks of dimension n; its A, b and memo are those of the
        last compile when no variable or constraint was added since."""
        C = [_embed(self._obj[bi]) / 2 if bi in self._obj
             else np.zeros((2 * n, 2 * n)) for bi, n in enumerate(self._sizes)]
        A, b, memo = self._constraint_side()
        p = SDPProblem([2 * n for n in self._sizes], C, A, b)
        p._memo = memo
        return p

    def _constraint_side(self):
        """(A, b, memo) of the constraints, built once until a variable or
        constraint is added."""
        if self._compiled is None:
            self._compiled = (self._constraints(), self._rhs(), {})
        return self._compiled

    def _out_dims(self):
        """The dimensions of each constraint's output blocks; a constraint
        has one row per basis element of each, in this order."""
        return [[G.shape[0] if Q is None else Q.shape[1] for Q in out]
                for _, G, out in self._eqs]

    def _rhs(self):
        """b of the constraints: each G on its constraint's rows, doubled
        for the real program (empty without constraints)."""
        return np.concatenate([np.zeros(0)] + [
            2 * (_out_basis(out, dims) @ G.ravel()).real
            for (_, G, out), dims in zip(self._eqs, self._out_dims())])

    def _constraints(self):
        """A of the constraints, in SDPProblem's layout, each block's
        columns in the real embedding."""
        outs = self._out_dims()
        m = sum(d * d for dims in outs for d in dims)
        widths = [4 * n * n for n in self._sizes]
        A = np.zeros((m, sum(widths)))
        # each block's column range, as views: writes land in A
        cols = np.split(A, np.cumsum(widths)[:-1], 1)
        r0 = 0
        for (terms, _, out), dims in zip(self._eqs, outs):
            out_flat = _out_basis(out, dims)
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
            r0 = r1
        return A

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
