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
                     scale_to_ints)
from .lp import LinfProblem, l1_min
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
    """The F-basis machinery of the bounded-lift construction in degree k.

    T is a k-spanning tree, U a (k-1)-wrapping tree.  F(p), for each
    (k-1)-cell p outside U, is the unique chain in T whose boundary is p
    modulo U; together with lifted representatives of the relative-class
    basis these coordinates determine every k-cocycle, and normalizing them
    into [0,1) by integer shifts is what produces the bounded lift.
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
        tree_cells = sorted(self.T.cells)
        u_cells = set(self.U.cells) if k >= 1 else set()
        n_low = X.n_cells(k - 1) if k >= 1 else 0
        self.f_supports = [p for p in range(n_low) if p not in u_cells]

        # F(p): solve boundary(x) = e_p on the rows outside U, x in C_k(T)
        self.F = {}
        if self.f_supports:
            cols = boundary_matrix(X, k).col_dicts()
            row_pos = {p: i for i, p in enumerate(self.f_supports)}
            rows = [dict() for _ in self.f_supports]
            for cpos, j in enumerate(tree_cells):
                for i, v in cols[j].items():
                    if i in row_pos:
                        rows[row_pos[i]][cpos] = v
            if len(self.f_supports) != len(tree_cells):
                raise LiftError(
                    "F-basis count mismatch: %d cells outside the wrapping "
                    "tree vs %d tree cells" % (len(self.f_supports), len(tree_cells)))
            solver = RationalSolver(rows, len(tree_cells))
            if solver.rank != len(tree_cells):
                raise LiftError("tree filling system is singular")
            for p in self.f_supports:
                rhs = [1 if q == p else 0 for q in self.f_supports]
                x = solver.solve(rhs)
                self.F[p] = {tree_cells[c]: v for c, v in enumerate(x) if v}
            self._bcols = cols
        else:
            self._bcols = boundary_matrix(X, k).col_dicts() if k >= 1 else []

        # lifted basis of H_k(X): b_hat - F(boundary b_hat); in degree 0 the
        # boundary is empty and b~ = b_hat
        rel = self.T.rel_data()
        basis_cells = rel["basis_cells"]
        self.b_tilde = []
        for vec in self.basis_vectors:
            b_hat = {}
            for j, coef in zip(basis_cells, vec):
                if coef:
                    b_hat[j] = b_hat.get(j, ZERO) + coef
            chain = dict(b_hat)
            if k >= 1:
                for j, coef in b_hat.items():
                    for p, sgn in self._bcols[j].items():
                        if p in self.F and coef:
                            for cell, fv in self.F[p].items():
                                nv = chain.get(cell, ZERO) - coef * RAT(sgn) * fv
                                if nv:
                                    chain[cell] = nv
                                elif cell in chain:
                                    del chain[cell]
                # must be an absolute cycle
                bd = {}
                for j, coef in chain.items():
                    for p, sgn in self._bcols[j].items():
                        nv = bd.get(p, ZERO) + coef * RAT(sgn)
                        if nv:
                            bd[p] = nv
                        elif p in bd:
                            del bd[p]
                if bd:
                    raise LiftError("lifted basis element is not a cycle")
            self.b_tilde.append(chain)

        # cocycle coordinates: stack (cocycle condition; <., F(p)>; <., b~>)
        sys_rows = []
        self.n_cocycle_rows = 0
        if k + 1 <= X.dim:
            delta_rows = boundary_matrix(X, k + 1).transpose().rows
            sys_rows.extend(delta_rows)
            self.n_cocycle_rows = len(delta_rows)
        self.coord_chains = [self.F[p] for p in self.f_supports] + self.b_tilde
        # each chain as (D, integer chain D * ch)
        self._int_chains = []
        for ch in self.coord_chains:
            sys_rows.append(dict(ch))
            D, vals = scale_to_ints(list(ch.values()))
            self._int_chains.append((D, dict(zip(ch, vals))))
        self.solver = RationalSolver(sys_rows, nk)
        if self.solver.rank != nk:
            raise LiftError("cocycle coordinates do not determine the cocycle")

    def lift(self, z0_dense, denominator=1):
        """The normalized cocycle lift of the cocycle z0 = z0_dense /
        denominator, values shifted into [0,1) on the coordinate chains;
        differs from z0 by integers cellwise.

        A coordinate <ch, z0> is s / m in ints, and its fractional part is
        (s mod m) / m; the targets are solved over their common denominator.
        """
        D, w = scale_to_ints(z0_dense)
        D *= denominator
        parts = []
        for dc, ch in self._int_chains:
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

# The vertex enumerations solve C(n, d-1) systems on the ell-1 side and
# C(n, d) * 2^d on the ell-infinity side (n cells, d the rank of the
# boundary); a complex that needs more is refused.
ENUMERATION_CAP = 20000


def coiso_constants_tiny(X, k: int):
    """(cofilling constant, filling constant) by exact vertex enumeration.

    Cofilling: the largest ell-infinity-minimal fill over coboundaries with
    ||omega||_inf <= 1.  Filling: the largest ell-1-minimal fill over
    boundaries with volume <= 1.  The duality lemma makes these equal, and
    the implementation raises DualityMismatch if they ever are not.
    """
    if not 1 <= k <= X.dim:
        raise FillingError(f"k={k} out of range")
    Bk = boundary_matrix(X, k)
    d = Bk.rank()
    one = comb(Bk.nrows, d - 1) if d else 0
    inf = comb(Bk.ncols, d) * 2 ** d
    if max(one, inf) > ENUMERATION_CAP:
        raise FillingError(
            f"complex exceeds the duality enumeration cap of {ENUMERATION_CAP} "
            f"solves: {one} on the ell-1 side, {inf} on the ell-infinity side")
    delta = Bk.transpose()

    co = _max_min_fill_inf(X, k, delta)
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
    """Vertices of {w in span(basis): ||w||_inf <= 1}, by active-set solves."""
    d = len(basis)
    if d == 0:
        return []
    verts = set()
    for idxs in combinations(range(n), d):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d:
            continue
        for signs in product((1, -1), repeat=d):
            x = solver.solve([RAT(s) for s in signs])
            if x is None:
                continue
            w = [sum(basis[j][i] * x[j] for j in range(d)) for i in range(n)]
            if max(v if v >= 0 else -v for v in w) <= 1:
                verts.add(tuple(w))
    return [list(v) for v in verts]


def _vertices_one_ball(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}.

    They are the elementary (minimal-support) vectors of the span, scaled to
    norm 1, with both signs (Rockafellar 1969).  An elementary vector spans
    the part of the span that vanishes on some d-1 coordinates whose rows
    have rank d-1, and every such part is spanned by an elementary vector:
    one kernel solve per (d-1)-set of coordinates finds them all.
    """
    d = len(basis)
    if d == 0:
        return []
    verts = set()
    for idxs in combinations(range(n), d - 1):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d - 1:
            continue
        x, = solver.nullspace()
        b = [sum((basis[j][i] * v for j, v in x.items()), ZERO) for i in range(n)]
        norm = sum(v if v >= 0 else -v for v in b)
        verts.add(tuple(v / norm for v in b))
        verts.add(tuple(-v / norm for v in b))
    return [list(v) for v in verts]


def _max_min_fill_inf(X, k, delta):
    basis = _image_basis(delta.rows, delta.ncols, delta.nrows)
    ctx = get_fill_context(X, k)
    best = ZERO
    for w in _vertices_inf_ball(basis, delta.nrows):
        _, t, _ = ctx.lp.solve(w)
        if t > best:
            best = t
    return best


def _max_min_fill_one(Bk):
    basis = _image_basis(Bk.rows, Bk.ncols, Bk.nrows)
    best = ZERO
    for b in _vertices_one_ball(basis, Bk.nrows):
        _, v = l1_min(Bk.rows, Bk.ncols, b)
        if v > best:
            best = v
    return best
