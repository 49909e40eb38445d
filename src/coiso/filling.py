"""The coisoperimetric engine: minimal cofilling, bounded lifting, integral
correction, constant estimation, and the filling/cofilling duality check.

The pipeline for an integral coboundary omega in degree k:

    alpha  = rational fill, ||alpha||_inf minimal (exact LP);
    Dalpha = bounded lift of (alpha mod Z) in degree k-1, a rational cocycle
             congruent to alpha mod Z with ||Dalpha||_inf <= k + G(T);
    result = alpha - Dalpha, an integral cochain with the same coboundary.

Everything contract-bearing is exact; verification of each identity is part
of the operation, not an afterthought.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, gcd, lcm

from .exact import RAT, ZERO, is_integral
from .homalg import (Cochain, IntegralSystem, boundary_matrix, norm_inf)
from .linalg import (RationalSolver, greedy_basis, mat_vec, residual_rows,
                     scale_to_ints, transpose_rows)
from .lp import LinfProblem, LPError, check_l1_cap, l1_min
from .trees import (SpanningTree, WrappingTree, greedy_spanning_tree,
                    wrapping_tree, lifting_basis)


class FillingError(ValueError):
    pass


class NotACoboundary(FillingError):
    """omega pairs nontrivially with a cycle; carries the witness."""

    def __init__(self, witness, value):
        self.witness = witness          # sparse cycle: cell index -> coefficient
        self.pairing = value
        super().__init__(
            "omega is not a coboundary: it pairs to %s against a cycle of the "
            "boundary kernel" % (value,))


class NotIntegrallyFillable(FillingError):
    pass


class LiftError(FillingError):
    pass


class DualityMismatch(FillingError):
    pass


@dataclass
class FillingResult:
    alpha: Cochain
    omega: Cochain
    ring: str
    norm_inf_alpha: object
    certificate: Cochain            # residual delta(alpha) - omega; all zero
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cached per-(complex, degree) machinery

class FillContext:
    """Factorizations shared by every fill/lift on one complex and degree."""

    def __init__(self, X, k: int):
        if not 1 <= k <= X.dim:
            raise FillingError(f"k={k} out of range for dim {X.dim}")
        self.X = X
        self.k = k
        Bk = boundary_matrix(X, k)
        self.delta = Bk.transpose()            # rows = k-cells, cols = (k-1)-cells
        self.cycles = RationalSolver(Bk.rows, Bk.ncols).nullspace()
        # cycle z = scale * p, p its primitive integer multiple
        self._int_cycles = [_primitive(z) for z in self.cycles]
        self.lp = LinfProblem(self.delta.rows, self.delta.ncols)
        self._integral = None
        self._lift = None

    # -- coboundary tests ----------------------------------------------------

    def coboundary_witness(self, omega_dense):
        """None when omega is a rational coboundary, else (cycle, pairing).

        The pairings are taken in ints: <z, omega> = scale * <p, D omega> / D.
        """
        D, w = scale_to_ints(omega_dense)
        for z, (p, scale) in zip(self.cycles, self._int_cycles):
            s = 0
            for i, v in p.items():
                wi = w[i]
                if wi:
                    s += v * wi
            if s:
                return z, scale * RAT(s, D)
        return None

    def integral_system(self) -> IntegralSystem:
        if self._integral is None:
            self._integral = IntegralSystem(self.delta)
        return self._integral

    # -- bounded lifting in degree k-1 ----------------------------------------

    def lift_data(self):
        if self._lift is None:
            T = greedy_spanning_tree(self.X, self.k - 1)
            U = wrapping_tree(self.X, self.k - 2) if self.k >= 2 \
                else WrappingTree(self.X, -1, ())
            self._lift = LiftData(self.X, self.k - 1, T, U)
        return self._lift


def _primitive(z):
    """(p, scale): the primitive integer vector p and the RAT scale with
    z = scale * p, for a nonzero sparse rational vector z."""
    D, vals = scale_to_ints(list(z.values()))
    g = gcd(*vals)
    return {j: v // g for j, v in zip(z, vals)}, RAT(g, D)


def get_fill_context(X, k: int) -> FillContext:
    cache = getattr(X, "_fill_contexts", None)
    if cache is None:
        cache = {}
        X._fill_contexts = cache
    if k not in cache:
        cache[k] = FillContext(X, k)
    return cache[k]


class LiftData:
    """The bounded-lift construction in degree k, on the tree system A.

    T is a k-spanning tree, U a (k-1)-wrapping tree.  A is the square part
    of the k-th boundary map with rows the (k-1)-cells outside U and columns
    the tree cells; it is nonsingular, and its inverse's column p is the
    chain F(p) in T whose boundary is p modulo U.  The F-coordinates
    <F(p), z> and the pairings with the lifted relative-class basis b~
    determine every k-cocycle z, and normalizing them into [0,1) by integer
    shifts is what produces the bounded lift.  No F(p) is formed:

    * the F-coordinates of z are c = A^-T z|_T, one solve with the
      factorization of A^T per lift;
    * <F(p), z> = r_p for every p is z|_T = A^T r, one unit row per tree
      cell in the lift system (z(u,v) = r_v - r_u on a tree edge when k = 1);
    * b~ = b_hat - A^-1 (boundary of b_hat outside U), one solve with A per
      basis vector.
    """

    def __init__(self, X, k: int, T: SpanningTree, U):
        if T.k != k:
            raise LiftError(f"spanning tree has degree {T.k}, expected {k}")
        if getattr(U, "k", k - 1) != k - 1:
            raise LiftError(f"wrapping tree has degree {U.k}, expected {k - 1}")
        self.X = X
        self.k = k
        self.T = T
        self.U = U
        self.basis_vectors, self.g_upper, self.basis_label = lifting_basis(T)
        self.bound = k + 1 + self.g_upper
        self._build()

    def _build(self):
        X, k = self.X, self.k
        nk = X.n_cells(k)
        self._tree_cells = tree_cells = sorted(self.T.cells)
        B = boundary_matrix(X, k) if k >= 1 else None
        bcols = B.col_dicts() if B is not None else []
        u_cells = set(self.U.cells)
        row_pos = {p: i for i, p in enumerate(
            p for p in range(X.n_cells(k - 1)) if p not in u_cells)}
        if len(row_pos) != len(tree_cells):
            raise LiftError(
                "F-basis count mismatch: %d cells outside the wrapping "
                "tree vs %d tree cells" % (len(row_pos), len(tree_cells)))

        # A^T: one row per tree cell, over the (k-1)-cells outside U
        self._tree_rows = [{row_pos[p]: v for p, v in bcols[t].items()
                            if p in row_pos} for t in tree_cells]
        if tree_cells:
            self._tree_solver = RationalSolver(self._tree_rows, len(row_pos))
            if self._tree_solver.rank != len(tree_cells):
                raise LiftError("tree filling system is singular")

        # lifted basis of H_k(X): b_hat - A^-1 (boundary of b_hat outside U)
        basis_cells = self.T.rel_data()["basis_cells"]
        A = None
        if self.basis_vectors and tree_cells:
            A = RationalSolver(transpose_rows(self._tree_rows, len(row_pos)),
                               len(tree_cells))
        self.b_tilde = []
        for vec in self.basis_vectors:
            chain = {}
            for j, coef in zip(basis_cells, vec):
                if coef:
                    chain[j] = chain.get(j, ZERO) + coef
            if A is not None:
                y = [ZERO] * len(row_pos)
                for j, coef in chain.items():
                    for p, sgn in bcols[j].items():
                        if p in row_pos:
                            y[row_pos[p]] += coef * sgn
                for cell, v in zip(tree_cells, A.solve(y)):
                    chain[cell] = chain.get(cell, ZERO) - v
                chain = {j: v for j, v in chain.items() if v}
            # must be an absolute cycle; in degree 0 every chain is one
            dense = [chain.get(j, ZERO) for j in range(nk)]
            if B is not None and any(mat_vec(B.rows, dense)):
                raise LiftError("lifted basis element is not a cycle")
            self.b_tilde.append(chain)

        # cocycle coordinates: stack (cocycle condition; z_t for t in T; <., b~>)
        sys_rows = []
        if k + 1 <= X.dim:
            sys_rows = boundary_matrix(X, k + 1).transpose().rows
        self.n_cocycle_rows = len(sys_rows)
        # each b~ as (D, integer chain D * b~)
        self._int_b_tilde = []
        for ch in self.b_tilde:
            D, vals = scale_to_ints(list(ch.values()))
            self._int_b_tilde.append((D, dict(zip(ch, vals))))
        self.solver = RationalSolver(
            sys_rows + [{t: 1} for t in tree_cells] + self.b_tilde, nk)
        if self.solver.rank != nk:
            raise LiftError("cocycle coordinates do not determine the cocycle")

    def lift(self, z0_dense, denominator=1):
        """The normalized cocycle lift of the cocycle z0 = z0_dense /
        denominator, values shifted into [0,1) on the F-coordinates and the
        b~ pairings; differs from z0 by integers cellwise.

        Every target is s / m in ints, and its fractional part is
        (s mod m) / m: the F-coordinates A^-T z0|_T share one m, and the
        targets are solved over their common denominator.
        """
        D, w = scale_to_ints(z0_dense)
        D *= denominator
        parts = []
        if self._tree_cells:
            # c = x / (Dx D) with A^T x = D z0|_T, int where pivots allow
            x = self._tree_solver.substitute([w[t] for t in self._tree_cells])
            Dx, xs = scale_to_ints(x)
            m = Dx * D
            r = [v % m for v in xs]
            # z|_T = A^T r
            for row in self._tree_rows:
                s = 0
                for i, v in row.items():
                    ri = r[i]
                    if ri:
                        s += v * ri
                parts.append((s, m))
        for dc, ch in self._int_b_tilde:
            s = 0
            for j, v in ch.items():
                wj = w[j]
                if wj:
                    s += v * wj
            m = dc * D
            parts.append((s % m, m))
        M = lcm(*(m for _, m in parts))
        rhs = [0] * self.n_cocycle_rows + [r * (M // m) for r, m in parts]
        z = self.solver.solve(rhs, M)
        if z is None:
            raise LiftError("lift system inconsistent")
        return z


# ---------------------------------------------------------------------------
# public operations

def linf_fill_rational(X, omega: Cochain) -> FillingResult:
    """ell-infinity minimal rational alpha with delta(alpha) = omega.

    Solved as an exact LP; optimality is certified (dual bound equals the
    achieved norm).  Raises NotACoboundary with a pairing witness otherwise.
    """
    ctx = get_fill_context(X, omega.k)
    dense = _omega_dense(X, omega)
    wit = ctx.coboundary_witness(dense)
    if wit is not None:
        raise NotACoboundary(*wit)
    alpha_vec, t, mode = ctx.lp.solve(dense)
    alpha = Cochain(omega.k - 1, {i: v for i, v in enumerate(alpha_vec) if v}, "rat")
    resid = _residual(ctx, alpha_vec, dense)
    return FillingResult(alpha=alpha, omega=omega, ring="rat",
                         norm_inf_alpha=t, certificate=resid,
                         details={"lp_mode": mode, "optimal": True})


def _omega_dense(X, omega: Cochain):
    """Dense values of omega; entries off the k-cells of X are an error,
    never dropped."""
    return omega.dense_checked(X.n_cells(omega.k), FillingError, "omega")


def _residual(ctx, alpha_vec, omega_dense) -> Cochain:
    bad = residual_rows(ctx.delta.rows, alpha_vec, omega_dense)
    if bad:
        raise FillingError("residual is nonzero: %r" % (bad[:4],))
    return Cochain(ctx.k, {}, "rat")


def bounded_lift(z: Cochain, T: SpanningTree, U) -> Cochain:
    """Lift of the mod-Z cocycle z to a rational cocycle z~ with
    z~ = z (mod Z) cellwise and ||z~||_inf <= k + 1 + G_upper(T).

    T must be a k-spanning tree and U a (k-1)-wrapping tree of the same
    complex.  Raises LiftError when z does not lift to a rational cocycle.
    """
    X, k = T.X, T.k
    if z.k != k:
        raise LiftError(f"cochain degree {z.k} does not match the tree degree {k}")
    dense = z.dense_checked(X.n_cells(k), FillingError, "z")
    data = LiftData(X, k, T, U)
    up = get_fill_context(X, k + 1) if k + 1 <= X.dim else None
    z0 = _any_cocycle_lift(up, dense)
    lifted = data.lift(z0)
    _check_lift(up, dense, lifted, data.bound)
    return Cochain(k, {i: v for i, v in enumerate(lifted) if v}, "rat")


def _any_cocycle_lift(up, dense):
    """Some rational cocycle congruent to the given cochain mod Z.

    up is the FillContext of the next coboundary, None in the top degree.
    """
    if up is None:
        return list(dense)
    dz = mat_vec(up.delta.rows, dense)
    if any(not is_integral(v) for v in dz):
        raise LiftError("input is not a cocycle mod Z")
    if all(v == 0 for v in dz):
        return list(dense)
    eta = up.integral_system().solve([-int(v) for v in dz])
    if eta is None:
        raise LiftError("cochain does not lift to a rational cocycle")
    return [dense[i] + eta[i] for i in range(len(dense))]


def _int_difference(a, b):
    """[a_i - b_i] as ints, or None when some difference is not an integer."""
    Da, xa = scale_to_ints(a)
    Db, xb = scale_to_ints(b)
    M = lcm(Da, Db)
    fa, fb = M // Da, M // Db
    out = []
    for u, v in zip(xa, xb):
        q, r = divmod(u * fa - v * fb, M)
        if r:
            return None
        out.append(q)
    return out


def _check_lift(up, z_dense, lifted, bound):
    """The lift is congruent to z mod Z, within the bound, and a cocycle of
    the coboundary in up (the next degree's FillContext, None at the top)."""
    if _int_difference(lifted, z_dense) is None:
        raise LiftError("lift is not congruent to the input mod Z")
    D, xs = scale_to_ints(lifted)
    worst = RAT(max(map(abs, xs), default=0), D)
    if worst > bound:
        raise LiftError(f"lift norm {worst} exceeds the bound {bound}")
    if up is not None and any(v != 0 for v in mat_vec(up.delta.rows, lifted)):
        raise LiftError("lift is not a cocycle")


def integral_fill(X, omega: Cochain) -> FillingResult:
    """Integral alpha~ with delta(alpha~) = omega and
    ||alpha~||_inf <= ||alpha||_inf + k + 1 + G_upper(T).

    omega must be integral and an integral coboundary; the integral
    certificate is part of the operation.
    """
    if not omega.is_integral():
        raise FillingError("integral_fill needs an integral omega")
    ctx = get_fill_context(X, omega.k)
    k = omega.k
    dense = _omega_dense(X, omega)
    wit = ctx.coboundary_witness(dense)
    if wit is not None:
        raise NotACoboundary(*wit)
    eta = ctx.integral_system().solve([int(v) for v in dense])
    if eta is None:
        raise NotIntegrallyFillable(
            "omega is a rational but not an integral coboundary (torsion)")

    rational = linf_fill_rational(X, omega)
    alpha_vec = rational.alpha.dense(X.n_cells(k - 1))

    data = ctx.lift_data()
    D, a = scale_to_ints(alpha_vec)
    lifted = data.lift([ai - ei * D for ai, ei in zip(a, eta)], D)
    _check_lift(ctx, alpha_vec, lifted, data.bound)

    tilde = _int_difference(alpha_vec, lifted)
    if tilde is None:
        raise FillingError("integral correction failed to clear denominators")
    alpha_t = Cochain(k - 1, {i: v for i, v in enumerate(tilde) if v}, "int")
    resid = _residual(ctx, tilde, dense)
    nrm = norm_inf(alpha_t)
    bound_total = rational.norm_inf_alpha + k + 1 + data.g_upper
    if nrm > bound_total:
        raise FillingError("integral fill norm exceeds the guaranteed bound")
    return FillingResult(
        alpha=alpha_t, omega=omega, ring="int", norm_inf_alpha=nrm,
        certificate=resid,
        details={"rational_norm": rational.norm_inf_alpha,
                 "lift_bound": data.bound,
                 "g_upper": data.g_upper,
                 "basis": data.basis_label,
                 "lp_mode": rational.details["lp_mode"]})


# ---------------------------------------------------------------------------
# random coboundaries and the constant sweep

MAX_SAMPLE_TRIES = 5000


def sample_integral_coboundary(X, k: int, rng: random.Random) -> Cochain:
    """Nonzero integral coboundary with entries in {-1,0,1}, by rejection."""
    ctx = get_fill_context(X, k)
    nk = X.n_cells(k)
    for _ in range(MAX_SAMPLE_TRIES):
        vals = [rng.choice((-1, 0, 1)) for _ in range(nk)]
        if not any(vals):
            continue
        if ctx.coboundary_witness(vals) is not None:
            continue
        if ctx.integral_system().solve(vals) is None:
            continue
        return Cochain(k, {i: v for i, v in enumerate(vals) if v}, "int")
    raise FillingError(
        f"no nonzero integral coboundary found in {MAX_SAMPLE_TRIES} draws")


def trial_rng(seed, L, trial) -> random.Random:
    """Deterministic per-trial stream; stable across runs and platforms."""
    return random.Random(f"{seed}/{L}/{trial}")


def estimate_cip(X, k: int, L_list, trials: int, rng_seed: int):
    """Empirical coisoperimetric ratios on edgewise subdivisions.

    For each L: subdivide, draw `trials` random integral coboundaries, run
    integral_fill, and record ||alpha~||_inf / (L * ||omega||_inf).  The
    output is a deterministic function of the seed.  Returns
    {"rows": [...], "summary": {L: max_ratio}}.
    """
    from .subdivision import edgewise_subdivide

    if not 1 <= k <= X.dim:
        raise FillingError(f"k={k} out of range for dim {X.dim}")
    if trials < 1:
        raise FillingError("trials must be >= 1")
    rows = []
    summary = {}
    for L in L_list:
        XL = edgewise_subdivide(X, L).result
        best = None
        for t in range(trials):
            rng = trial_rng(rng_seed, L, t)
            try:
                omega = sample_integral_coboundary(XL, k, rng)
            except FillingError as e:
                rows.append({"L": L, "trial": t, "error": str(e)})
                continue
            res = integral_fill(XL, omega)
            ratio = res.norm_inf_alpha / (L * norm_inf(omega))
            rows.append({"L": L, "trial": t,
                         "norm_omega": norm_inf(omega),
                         "norm_alpha": res.norm_inf_alpha,
                         "ratio": ratio})
            if best is None or ratio > best:
                best = ratio
        summary[L] = best
    return {"rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# filling/cofilling duality on tiny complexes

# The cap bounds the candidate vertices each enumeration examines, n cells
# and d the rank of the boundary: C(n, d-1) coordinate sets, one kernel solve
# each, on the ell-1 side; C(n, d) coordinate sets times 2^d sign patterns on
# the ell-infinity side (one factorization and d unit solves per set, then a
# signed sum per pattern pair).  A complex over the cap on either side is
# refused before any enumeration, as is one whose ell-infinity or ell-1 LP
# tableau exceeds lp.SIMPLEX_CAP, which is checked first.
ENUMERATION_CAP = 20000


def coiso_constants_tiny(X, k: int):
    """(cofilling constant, filling constant) by exact vertex enumeration.

    Cofilling: the largest ell-infinity-minimal fill over coboundaries with
    ||omega||_inf <= 1.  Filling: the largest ell-1-minimal fill over
    boundaries with volume <= 1.  The duality lemma makes these equal, and
    the implementation raises DualityMismatch if they ever are not.

    Every LP is solved by the exact simplex, so no float enters the check.
    A FillingError refuses the complex before any enumeration when k is out
    of range, when the ell-infinity LP or the ell-1 LP (each over the
    (k-1)-cells that lie in some k-cell's boundary) would need a tableau
    above lp.SIMPLEX_CAP, or when either enumeration count exceeds
    ENUMERATION_CAP.
    """
    if not 1 <= k <= X.dim:
        raise FillingError(f"k={k} out of range")
    Bk = boundary_matrix(X, k)
    problem = _inf_problem(Bk.transpose())
    try:
        problem.check_simplex_cap()
        check_l1_cap(Bk.rows, Bk.ncols)
    except LPError as e:
        raise FillingError(f"complex exceeds the duality LP cap: {e}") from None
    d = Bk.rank()
    one = comb(Bk.nrows, d - 1) if d else 0
    inf = comb(Bk.ncols, d) * 2 ** d
    if max(one, inf) > ENUMERATION_CAP:
        raise FillingError(
            f"complex exceeds the duality enumeration cap of {ENUMERATION_CAP} "
            f"solves: {one} on the ell-1 side, {inf} on the ell-infinity side")

    co = _max_min_fill_inf(problem)
    fi = _max_min_fill_one(Bk)
    if co != fi:
        raise DualityMismatch(f"cofilling {co} != filling {fi}")
    return co, fi


def _image_basis(rows, ncols, nrows):
    """Basis (as dense columns) of the column space of the given sparse rows."""
    cols = [dict() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            cols[j][i] = RAT(v)
    picks, _ = greedy_basis(cols, nrows)
    return [[cols[j].get(i, ZERO) for i in range(nrows)] for j in picks]


def _vertices_inf_ball(basis, n):
    """Vertices of {w in span(basis): ||w||_inf <= 1}, by active-set solves.

    A vertex is w = basis . x with w_i = s_i = +-1 on some d coordinates
    whose rows A of the basis are independent, so x = A^-1 s.  Per d-set,
    G = basis . A^-1 is formed once (d unit solves), and each sign pattern's
    w is the signed sum of the columns of G, in ints over one denominator.
    Patterns come in antipodal pairs: those with s_0 = +1 give w and -w.
    """
    d = len(basis)
    if d == 0:
        return []
    Db, bint = scale_to_ints([v for col in basis for v in col])
    bcols = [bint[j * n:(j + 1) * n] for j in range(d)]
    verts = set()                   # (denominator, int numerators), reduced
    for idxs in combinations(range(n), d):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d:
            continue
        # column t of G, times D: basis . x_t with A x_t = e_t
        xs = [solver.solve([1 if s == t else 0 for s in range(d)])
              for t in range(d)]
        Dx, flat = scale_to_ints([v for x in xs for v in x])
        D = Db * Dx
        G = [[sum(bcols[j][i] * flat[t * d + j] for j in range(d)
                  if flat[t * d + j]) for i in range(n)] for t in range(d)]
        for signs in product((1, -1), repeat=d - 1):
            w = G[0]
            for s, g in zip(signs, G[1:]):
                w = [u + s * v for u, v in zip(w, g)]
            if max(v if v >= 0 else -v for v in w) <= D:
                q = gcd(D, *w)
                verts.add((D // q, tuple(v // q for v in w)))
                verts.add((D // q, tuple(-v // q for v in w)))
    return [[RAT(v, q) for v in w] for q, w in verts]


def _vertices_one_ball(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}.

    They are the elementary (minimal-support) vectors of the span, scaled to
    norm 1, with both signs (Rockafellar 1969).  An elementary vector spans
    the part of the span that vanishes on some d-1 coordinates whose rows
    have rank d-1, and every such part is spanned by an elementary vector:
    one kernel solve per (d-1)-set of coordinates finds them all.  Each b is
    formed in ints, from the basis and the kernel vector scaled to ints, and
    b / ||b||_1 is kept over its reduced denominator.
    """
    d = len(basis)
    if d == 0:
        return []
    _, bint = scale_to_ints([v for col in basis for v in col])
    bcols = [bint[j * n:(j + 1) * n] for j in range(d)]
    verts = set()                   # (denominator, int numerators), reduced
    for idxs in combinations(range(n), d - 1):
        rows = [{j: bcols[j][i] for j in range(d) if bcols[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d - 1:
            continue
        x, = solver.nullspace()
        _, xs = scale_to_ints(list(x.values()))
        terms = [(bcols[j], v) for j, v in zip(x, xs)]
        b = [sum(col[i] * v for col, v in terms) for i in range(n)]
        q = gcd(*b)
        norm = sum(v if v >= 0 else -v for v in b) // q
        verts.add((norm, tuple(v // q for v in b)))
        verts.add((norm, tuple(-v // q for v in b)))
    return [[RAT(v, q) for v in w] for q, w in verts]


def _one_per_pair(verts):
    """The vertices whose first nonzero entry is positive: one of each
    antipodal pair.  Both norms are symmetric, so -w has the negated
    minimal fills of w and the same optimum; one LP answers for the pair."""
    return [w for w in verts if next(v for v in w if v) > 0]


def _inf_problem(delta):
    """The LinfProblem of delta without its zero columns.  Those are the
    (k-1)-cells in no k-cell's boundary; alpha = 0 there in every minimal
    fill, so each optimum is unchanged."""
    used = sorted({j for r in delta.rows for j in r})
    pos = {j: i for i, j in enumerate(used)}
    return LinfProblem([{pos[j]: v for j, v in r.items()} for r in delta.rows],
                       len(used))


def _max_min_fill_inf(problem):
    basis = _image_basis(problem.rows, problem.n, problem.m)
    best = ZERO
    for w in _one_per_pair(_vertices_inf_ball(basis, problem.m)):
        _, t = problem.solve_exact(w)
        if t > best:
            best = t
    return best


def _max_min_fill_one(Bk):
    basis = _image_basis(Bk.rows, Bk.ncols, Bk.nrows)
    best = ZERO
    for b in _one_per_pair(_vertices_one_ball(basis, Bk.nrows)):
        _, v = l1_min(Bk.rows, Bk.ncols, b)
        if v > best:
            best = v
    return best
