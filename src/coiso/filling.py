"""The coisoperimetric engine: minimal cofilling, bounded lifting, integral
correction, constant estimation, and the filling/cofilling duality check.

The pipeline for an integral coboundary omega in degree k:

    alpha  = rational fill, ||alpha||_inf minimal (exact LP);
    Dalpha = bounded lift of (alpha mod Z) in degree k-1, a rational cocycle
             congruent to alpha mod Z with ||Dalpha||_inf <= k + G(T);
    result = alpha - Dalpha, an integral cochain with the same coboundary.

Everything contract-bearing is exact; verification of each identity is part
of the operation, not an afterthought.

Per complex and degree k, a `FillContext` holds the LP of delta^(k-1) over
the complex's columns `boundary_cols(k)`, the cycles of B_k, and the
integral system (on the same columns, the rows of delta^(k-1)) and lift
data once built; every residual and cocycle check reads those columns.
Every exact vector enters the LP and the lift (`LiftData.lift`) as
(denominator, ints), omega as `Cochain.ints` gives it, and alpha comes back
so; the fills stay in ints, and RATs are made only for a `FillingResult`.
The lift data do not depend on the LP, so the first `integral_fill` on a
context builds them on a second thread while its first HiGHS solve runs,
which releases the GIL (`_rational_fill_beside_lift`): the thread starts
once the LP's HiGHS instance has read its model and a float guess is about
to run, and the fill joins it when the LP returns or raises, so no thread
outlives the call.  The context keeps only the data the thread built; what
the build raised is raised after an LP that succeeded, and nothing is kept
then.  Later fills find the data built and start no thread.  `trees` is
imported with the lift data, so the duality check never loads it.

The duality check is exact in the same form: each unit ball's vertices
leave its maximal minors as reduced (q, ints) pairs and go into one exact
tableau per side unchanged, and a RAT is made only for each optimal value.
Each side's maximum is certified by a primal per vertex and one dual, at
the side's argmax.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from itertools import product
from math import comb, gcd, lcm

from .exact import RAT, ZERO, Record
from .homalg import Cochain, IntegralSystem, norm_inf
from .linalg import (RationalSolver, dot, greedy_basis, residual_rows,
                     scale_to_ints, transpose_rows)
from .lp import LinfProblem, LPError, check_l1_cap, l1_optima


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


class FillingResult(Record):
    _fields = ("alpha", "omega", "ring", "norm_inf_alpha", "details")

    def __init__(self, alpha: Cochain, omega: Cochain, ring: str,
                 norm_inf_alpha, details: dict | None = None):
        self.alpha = alpha
        self.omega = omega
        self.ring = ring
        self.norm_inf_alpha = norm_inf_alpha
        self.details = {} if details is None else details


# ---------------------------------------------------------------------------
# cached per-(complex, degree) machinery

class FillContext:
    """Factorizations shared by every fill/lift on one complex and degree."""

    def __init__(self, X, k: int):
        if not 1 <= k <= X.dim:
            raise FillingError(f"k={k} out of range for dim {X.dim}")
        self.X = X
        self.k = k
        self.lp = LinfProblem(X.boundary_cols(k), X.n_cells(k - 1))
        # the LP's D^T is B_k: its one factorization gives the cycles too
        self.cycles = self.lp.transpose_solver.nullspace()
        # cycle z = scale * p, p its primitive integer multiple
        self._int_cycles = [_primitive(z) for z in self.cycles]
        self._integral = None
        self._lift = None

    # -- coboundary tests ----------------------------------------------------

    def coboundary_witness(self, D, w):
        """None when omega = w / D (w ints) is a rational coboundary, else
        (cycle, pairing).

        The pairings are taken in ints: <z, omega> = scale * <p, w> / D.
        """
        for z, (p, scale) in zip(self.cycles, self._int_cycles):
            s = dot(p, w)
            if s:
                return z, scale * RAT(s, D)
        return None

    def integral_system(self) -> IntegralSystem:
        if self._integral is None:
            self._integral = IntegralSystem(self.X.boundary_cols(self.k),
                                            self.X.n_cells(self.k - 1))
        return self._integral

    # -- bounded lifting in degree k-1 ----------------------------------------

    def lift_data(self):
        """The LiftData of degree k-1, built on first use."""
        if self._lift is None:
            self._lift = self._build_lift_data()
        return self._lift

    def _build_lift_data(self):
        from .trees import WrappingTree, greedy_spanning_tree, wrapping_tree

        T = greedy_spanning_tree(self.X, self.k - 1)
        U = wrapping_tree(self.X, self.k - 2) if self.k >= 2 \
            else WrappingTree(self.X, -1, ())
        return LiftData(self.X, self.k - 1, T, U)


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
        from .trees import lifting_basis

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
        bcols = X.boundary_cols(k)
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
        # each b~ as (D, integer chain D * b~)
        self._int_b_tilde = []
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
                Dy, y = scale_to_ints(y)
                Dx, xs = A.solve(y)
                for cell, v in zip(tree_cells, xs):
                    chain[cell] = chain.get(cell, ZERO) - RAT(v, Dy * Dx)
                chain = {j: v for j, v in chain.items() if v}
            # must be an absolute cycle; in degree 0 every chain is one
            D, vals = scale_to_ints(list(chain.values()))
            boundary = {}
            for j, v in zip(chain, vals):
                for p, sgn in bcols[j].items():
                    boundary[p] = boundary.get(p, 0) + sgn * v
            if any(boundary.values()):
                raise LiftError("lifted basis element is not a cycle")
            self.b_tilde.append(chain)
            self._int_b_tilde.append((D, dict(zip(chain, vals))))

        # cocycle coordinates, in int rows: stack (cocycle condition; z_t for
        # t in T; <., D b~>)
        sys_rows = X.boundary_cols(k + 1)
        self.n_cocycle_rows = len(sys_rows)
        self.solver = RationalSolver(
            sys_rows + [{t: 1} for t in tree_cells]
            + [ch for _, ch in self._int_b_tilde], nk)
        if self.solver.rank != nk:
            raise LiftError("cocycle coordinates do not determine the cocycle")

    def lift(self, z0):
        """(M, ints): the normalized cocycle lift ints / M of the cocycle
        z0 = (D, w), w / D in ints, values shifted into [0,1) on the
        F-coordinates and the b~ pairings; differs from z0 by integers
        cellwise.

        Every target is r / m in ints: an F-coordinate s / m shifted to
        (s mod m) / m (they share one m), and on the row dc b~,
        (dot(ch, w) mod dc D) / D, which is dc times <b~, z0> shifted into
        [0, 1).  The targets are solved over their common denominator.
        """
        D, w = z0
        parts = []
        if self._tree_cells:
            # c = x / (Dx D) with A^T x = D z0|_T, int where pivots allow
            Dx, xs = self._tree_solver.solve([w[t] for t in self._tree_cells])
            m = Dx * D
            r = [v % m for v in xs]
            # z|_T = A^T r
            for row in self._tree_rows:
                parts.append((dot(row, r), m))
        for dc, ch in self._int_b_tilde:
            parts.append((dot(ch, w) % (dc * D), D))
        M = lcm(*(m for _, m in parts))
        rhs = [0] * self.n_cocycle_rows + [r * (M // m) for r, m in parts]
        z = self.solver.solve(rhs)
        if z is None:
            raise LiftError("lift system inconsistent")
        Dz, zs = z
        return M * Dz, zs


# ---------------------------------------------------------------------------
# public operations

def linf_fill_rational(X, omega: Cochain) -> FillingResult:
    """ell-infinity minimal rational alpha with delta(alpha) = omega.

    Solved as an exact LP; optimality is certified (dual bound equals the
    achieved norm).  Raises NotACoboundary with a pairing witness otherwise.
    """
    ctx = get_fill_context(X, omega.k)
    Dw, ws = _coboundary_ints(X, omega, ctx)
    (Da, a), t, mode = _rational_fill(ctx, Dw, ws)
    alpha = Cochain(omega.k - 1, {i: RAT(v, Da) for i, v in enumerate(a) if v}, "rat")
    return FillingResult(alpha=alpha, omega=omega, ring="rat",
                         norm_inf_alpha=t,
                         details={"lp_mode": mode, "optimal": True})


def _coboundary_ints(X, omega: Cochain, ctx):
    """(D, ints): omega's values scaled to ints over the lcm of their
    denominators (`Cochain.ints`).  Entries off the k-cells of X are an
    error, never dropped, and NotACoboundary (with its witness) is raised
    when omega is not a rational coboundary."""
    D, ws = omega.ints(X.n_cells(omega.k), FillingError, "omega")
    wit = ctx.coboundary_witness(D, ws)
    if wit is not None:
        raise NotACoboundary(*wit)
    return D, ws


def _rational_fill(ctx, Dw, ws):
    """((Da, a), t, mode): the ell-infinity minimal fill a / Da of the
    rational coboundary omega = ws / Dw in ints, its certified norm t and
    the LP path, with the residual checked in ints."""
    (Da, a), t, mode = ctx.lp.solve((Dw, ws))
    _check_residual(ctx, a, ws, Da, Dw)
    return (Da, a), t, mode


def _rational_fill_beside_lift(ctx, ws):
    """`_rational_fill` of the integral omega ws.  When ctx has no lift data
    yet and the LP takes a float guess, a second thread builds them while
    HiGHS solves: it starts after HiGHS has read its model (the read holds
    the GIL, and only HiGHS's run releases it) and is joined when the LP
    returns or raises.  Its LiftData is kept on ctx, and what its build
    raised is raised here after an LP that succeeded."""
    if ctx._lift is not None or not any(ws) or not ctx.lp.prepare_guess():
        return _rational_fill(ctx, 1, ws)
    go = threading.Event()
    raised = []

    def build():
        # Thread.start() hands the new thread the GIL, which it would keep
        # for a whole switch interval (5 ms); blocking on go gives it back,
        # so the caller reaches the solve first
        go.wait()
        try:
            ctx._lift = ctx._build_lift_data()
        except Exception as e:
            raised.append(e)

    thread = threading.Thread(target=build, name="coiso-lift-data")
    thread.start()
    go.set()
    try:
        out = _rational_fill(ctx, 1, ws)
    finally:
        thread.join()
    if raised:
        raise raised[0]
    return out


def _check_residual(ctx, x, b, Dx=1, Db=1):
    """delta(x / Dx) = b / Db on every k-cell, in ints; FillingError
    naming the first offending cells otherwise."""
    bad = residual_rows(ctx.X.boundary_cols(ctx.k), x, b, Dx, Db)
    if bad:
        raise FillingError("residual is nonzero: %r" % (bad[:4],))


def bounded_lift(z: Cochain, T: SpanningTree, U) -> Cochain:
    """Lift of the mod-Z cocycle z to a rational cocycle z~ with
    z~ = z (mod Z) cellwise and ||z~||_inf <= k + 1 + G_upper(T).

    T must be a k-spanning tree and U a (k-1)-wrapping tree of the same
    complex.  Raises LiftError when z does not lift to a rational cocycle.
    """
    X, k = T.X, T.k
    if z.k != k:
        raise LiftError(f"cochain degree {z.k} does not match the tree degree {k}")
    zs = z.ints(X.n_cells(k), FillingError, "z")
    data = LiftData(X, k, T, U)
    up = get_fill_context(X, k + 1) if k + 1 <= X.dim else None
    M, lifted = data.lift(_any_cocycle_lift(up, zs))
    _check_lift(up, zs, (M, lifted), data.bound)
    return Cochain(k, {i: RAT(v, M) for i, v in enumerate(lifted) if v}, "rat")


def _any_cocycle_lift(up, z):
    """z + eta as (D, ints), eta integral: a rational cocycle congruent mod
    Z to the cochain z = (D, xs), xs / D in ints.  up is the FillContext of
    the next coboundary, None in the top degree."""
    if up is None:
        return z
    # D times the coboundary, in ints: integral iff D divides every entry
    D, xs = z
    dz = [dot(col, xs) for col in up.X.boundary_cols(up.k)]
    if any(v % D for v in dz):
        raise LiftError("input is not a cocycle mod Z")
    if not any(dz):
        return z
    eta = up.integral_system().solve([-(v // D) for v in dz])
    if eta is None:
        raise LiftError("cochain does not lift to a rational cocycle")
    return D, [x + D * e for x, e in zip(xs, eta)]


def _int_difference(a, b):
    """[a_i - b_i] as ints for the vectors a = (Da, ints) and b = (Db, ints)
    over their denominators, or None when some difference is not an
    integer."""
    Da, xa = a
    Db, xb = b
    M = lcm(Da, Db)
    fa, fb = M // Da, M // Db
    out = []
    for u, v in zip(xa, xb):
        q, r = divmod(u * fa - v * fb, M)
        if r:
            return None
        out.append(q)
    return out


def _check_lift(up, z, lifted, bound):
    """The lift is congruent to z mod Z, within the bound, and a cocycle of
    the coboundary in up (the next degree's FillContext, None at the top);
    z and the lift are (denominator, ints), and the ints z - lift are
    returned."""
    diff = _int_difference(z, lifted)
    if diff is None:
        raise LiftError("lift is not congruent to the input mod Z")
    M, xs = lifted
    worst = max(map(abs, xs), default=0)
    if worst * bound.denominator > bound.numerator * M:
        raise LiftError(f"lift norm {RAT(worst, M)} exceeds the bound {bound}")
    if up is not None and any(dot(col, xs) for col in up.X.boundary_cols(up.k)):
        raise LiftError("lift is not a cocycle")
    return diff


def integral_fill(X, omega: Cochain) -> FillingResult:
    """Integral alpha~ with delta(alpha~) = omega and
    ||alpha~||_inf <= ||alpha||_inf + k + 1 + G_upper(T).

    omega must be integral and an integral coboundary; the integral
    certificate is part of the operation.  Every stage after the LP works
    on ints over one denominator: omega (read once), the rational fill
    a / D, the lift and the difference; RATs are made only for the
    result.
    """
    if not omega.is_integral():
        raise FillingError("integral_fill needs an integral omega")
    ctx = get_fill_context(X, omega.k)
    k = omega.k
    _, ws = _coboundary_ints(X, omega, ctx)
    eta = ctx.integral_system().solve(ws)
    if eta is None:
        raise NotIntegrallyFillable(
            "omega is a rational but not an integral coboundary (torsion)")

    (D, a), t, mode = _rational_fill_beside_lift(ctx, ws)
    data = ctx.lift_data()
    lifted = data.lift((D, [ai - ei * D for ai, ei in zip(a, eta)]))
    tilde = _check_lift(ctx, (D, a), lifted, data.bound)
    _check_residual(ctx, tilde, ws)
    nrm = max(map(abs, tilde), default=0)
    if nrm > t + k + 1 + data.g_upper:
        raise FillingError("integral fill norm exceeds the guaranteed bound")
    alpha_t = Cochain(k - 1, {i: v for i, v in enumerate(tilde) if v}, "int")
    return FillingResult(
        alpha=alpha_t, omega=omega, ring="int", norm_inf_alpha=RAT(nrm),
        details={"rational_norm": t,
                 "lift_bound": data.bound,
                 "g_upper": data.g_upper,
                 "basis": data.basis_label,
                 "lp_mode": mode})


# ---------------------------------------------------------------------------
# random coboundaries and the constant sweep

MAX_SAMPLE_TRIES = 5000


def sample_integral_coboundary(X, k: int, rng: random.Random) -> Cochain:
    """Nonzero integral coboundary with entries in {-1,0,1}, by rejection.

    A draw must pair to 0 with every cycle, so with many cycles it fails:
    in degree 1 on the subdivided 2-sphere past L = 1 (L = 2: 24 edges, 15
    cycles) no draw in 5000 is a coboundary, and FillingError is raised.
    """
    ctx = get_fill_context(X, k)
    nk = X.n_cells(k)
    for _ in range(MAX_SAMPLE_TRIES):
        vals = _draw_signs(rng, nk)
        if not any(vals):
            continue
        if ctx.coboundary_witness(1, vals) is not None:
            continue
        if ctx.integral_system().solve(vals) is None:
            continue
        return Cochain(k, {i: v for i, v in enumerate(vals) if v}, "int")
    raise FillingError(
        f"no nonzero integral coboundary found in {MAX_SAMPLE_TRIES} draws")


# choice((-1, 0, 1)) reads the top 2 bits of one 32-bit word and draws again
# on a 3: as signed bytes, the top byte of a word maps to -1, 0 or 1, and the
# bytes whose top bits are 3 are deleted
_SIGN_OF_TOP_BYTE = bytes([255] * 64 + [0] * 64 + [1] * 64 + [0] * 64)
_REDRAWN_TOP_BYTES = bytes(range(192, 256))


def _draw_signs(rng: random.Random, n: int) -> list:
    """[rng.choice((-1, 0, 1)) for _ in range(n)], drawn in bulk: the same
    values, and rng is left in the same state.

    getrandbits(32 * w) is w words of the stream, the first one least
    significant.  Each round asks for one word per missing value, so no word
    is drawn that choice would not have drawn.
    """
    out = []
    while len(out) < n:
        w = n - len(out)
        top = rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
        out += memoryview(
            top.translate(_SIGN_OF_TOP_BYTE, _REDRAWN_TOP_BYTES)).cast("b").tolist()
    return out


def trial_rng(seed, L, trial) -> random.Random:
    """Deterministic per-trial stream; stable across runs and platforms."""
    return random.Random(f"{seed}/{L}/{trial}")


def estimate_cip(X, k: int, L_list, trials: int, rng_seed: int):
    """Empirical coisoperimetric ratios on edgewise subdivisions.

    For each L: subdivide, draw `trials` random integral coboundaries, run
    integral_fill, and record ||alpha~||_inf / (L * ||omega||_inf).  The
    output is a deterministic function of the seed.  Returns
    {"rows": [...], "summary": {L: max_ratio}}.  Every L is checked against
    the subdivision's limits before the first one is subdivided.
    """
    from .subdivision import check_subdivision, edgewise_subdivide

    if not 1 <= k <= X.dim:
        raise FillingError(f"k={k} out of range for dim {X.dim}")
    if trials < 1:
        raise FillingError("trials must be >= 1")
    for L in L_list:
        check_subdivision(X, L)
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
# and d the rank of the boundary: C(n, d-1) coordinate sets on the ell-1
# side, n only the (k-1)-cells in some k-cell's boundary, a circuit read off
# the minors for each; C(n, d) coordinate sets times 2^d sign patterns on
# the ell-infinity side, a signed sum of d circuits per pattern pair.  The
# wedge that makes the minors holds at most C(n, r) entries after its r-th
# row.  A complex over the cap on either side is refused before any
# enumeration, as is one whose ell-infinity or ell-1 LP tableau exceeds
# lp.SIMPLEX_CAP, which is checked first.
ENUMERATION_CAP = 20000


def coiso_constants_tiny(X, k: int):
    """(cofilling constant, filling constant) by exact vertex enumeration.

    Cofilling: the largest ell-infinity-minimal fill over coboundaries with
    ||omega||_inf <= 1.  Filling: the largest ell-1-minimal fill over
    boundaries with volume <= 1.  The duality lemma makes these equal, and
    the implementation raises DualityMismatch if they ever are not.

    Both sides read one LinfProblem of delta over the (k-1)-cells that lie
    in some k-cell's boundary: the ell-infinity LP is its rows, the ell-1
    LP its columns (the nonzero rows of B_k), and each side's image basis
    is the other's LP matrix.  Each side solves its vertices' LPs on one
    exact tableau (`lp.exact_optima`), so no float enters the check; the
    vertices go in as the reduced (q, ints) pairs the minors give, and a
    RAT is made only for each optimal value.  Each side's maximum is
    certified in ints by a primal per vertex, which bounds that vertex's
    optimum from above, and one dual at the side's first argmax, which
    proves its value optimal.  A FillingError
    refuses the complex before any enumeration when k is out of range, when
    the ell-infinity LP or the ell-1 LP (each over the (k-1)-cells that lie
    in some k-cell's boundary) would need a tableau above lp.SIMPLEX_CAP, or
    when either enumeration count exceeds ENUMERATION_CAP.
    """
    if not 1 <= k <= X.dim:
        raise FillingError(f"k={k} out of range")
    problem = _inf_problem(X.boundary_cols(k))
    try:
        problem.check_simplex_cap()
        check_l1_cap(problem.cols, problem.m)
    except LPError as e:
        raise FillingError(f"complex exceeds the duality LP cap: {e}") from None
    one_basis = _image_basis(problem.rows, problem.n)
    # the rank of B_k: each k-cell's boundary column is nonzero, so d >= 1
    d = len(one_basis)
    one = comb(problem.n, d - 1)
    inf = comb(problem.m, d) * 2 ** d
    if max(one, inf) > ENUMERATION_CAP:
        raise FillingError(
            f"complex exceeds the duality enumeration cap of {ENUMERATION_CAP} "
            f"candidates: {one} coordinate sets on the ell-1 side, {inf} "
            f"coordinate sets times sign patterns on the ell-infinity side")

    inf_basis = _image_basis(problem.cols, problem.m)
    inf_verts = _one_per_pair(_vertices_inf_ball(inf_basis, problem.m))
    co = max(problem.optima(inf_verts))
    one_verts = _one_per_pair(_vertices_one_ball(one_basis, problem.n))
    fi = max(l1_optima(problem.cols, problem.m, one_verts))
    if co != fi:
        raise DualityMismatch(f"cofilling {co} != filling {fi}")
    return co, fi


def _image_basis(cols, nrows):
    """Basis (as dense int columns) of the column space of the matrix with
    nrows rows whose sparse int columns are given."""
    picks, _ = greedy_basis(cols, nrows)
    return [[cols[j].get(i, 0) for i in range(nrows)] for j in picks]


def _minors(basis, n):
    """{I: P[I]}: the nonzero maximal minors of the d x n matrix whose rows
    are the basis vectors (scaled to ints once), over sorted d-tuples I of
    coordinates: the Pluecker coordinates of the span.

    They are the coordinates of the wedge of the rows, taken one row at a
    time with e_I ^ e_j = (-1)^#{i in I: i > j} e_(I+j).  Only products and
    sums are formed, and the table after r rows has at most C(n, r) entries.
    """
    _, flat = scale_to_ints([v for row in basis for v in row])
    P = {(): 1}
    for r in range(len(basis)):
        support = [(j, v) for j, v in enumerate(flat[r * n:(r + 1) * n]) if v]
        Q = {}
        for I, p in P.items():
            for j, v in support:
                pos = bisect_left(I, j)
                if pos < len(I) and I[pos] == j:
                    continue
                K = I[:pos] + (j,) + I[pos:]
                q = p * v if (r - pos) % 2 == 0 else -p * v
                Q[K] = Q.get(K, 0) + q
        P = {K: q for K, q in Q.items() if q}
    return P


def _circuits(P, d, n):
    """{J: c}: for each (d-1)-set J of coordinates of rank d-1, the dense
    int vector c_i = (-1)^#{j in J: j > i} P[J + i], from the nonzero minors
    P of a rank-d span over n coordinates.

    c is the determinant of the d x d matrix of the coordinates J and i
    (Laplace along i), so it lies in the span and vanishes on J, and it is
    nonzero exactly when J has rank d-1.  In a sorted d-set I, the element
    at position t has d-1-t larger ones.
    """
    C = {}
    for I, p in P.items():
        for t, i in enumerate(I):
            J = I[:t] + I[t + 1:]
            c = C.get(J)
            if c is None:
                c = C[J] = [0] * n
            c[i] = p if (d - 1 - t) % 2 == 0 else -p
    return C


def _vertices_inf_ball(basis, n):
    """Vertices of {w in span(basis): ||w||_inf <= 1}, from the maximal
    minors of the basis, as pairs (q, w) of the vertex w / q in ints,
    reduced (gcd(q, *w) = 1, q > 0).

    A vertex is w = basis . x with w_i = s_i = +-1 on some d coordinates I
    whose minor P[I] is nonzero.  Column t of basis . A_I^-1 is the circuit
    of I minus its t-th coordinate over +-P[I], so each sign pattern's w is
    a signed sum of those d circuits over |P[I]|, kept where no entry
    exceeds |P[I]|.  Patterns come in antipodal pairs: those with a + on
    the first circuit give w and -w.
    """
    d = len(basis)
    P = _minors(basis, n)
    C = _circuits(P, d, n)
    verts = set()                   # (denominator, int numerators), reduced
    for I, p in P.items():
        D = abs(p)
        G = [C[I[:t] + I[t + 1:]] for t in range(d)]
        for signs in product((1, -1), repeat=d - 1):
            w = G[0]
            for s, g in zip(signs, G[1:]):
                w = [u + s * v for u, v in zip(w, g)]
            if max(v if v >= 0 else -v for v in w) <= D:
                q = gcd(D, *w)
                verts.add((D // q, tuple(v // q for v in w)))
                verts.add((D // q, tuple(-v // q for v in w)))
    return list(verts)


def _vertices_one_ball(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}.

    They are the elementary (minimal-support) vectors of the span, scaled to
    norm 1, with both signs (Rockafellar 1969).  An elementary vector spans
    the part of the span that vanishes on some d-1 coordinates of rank d-1,
    and that part is spanned by their circuit, read off the maximal minors
    of the basis.  b / ||b||_1 is kept as the reduced pair (||b||_1, b) in
    ints, b primitive.
    """
    d = len(basis)
    verts = set()                   # (denominator, int numerators), reduced
    for b in _circuits(_minors(basis, n), d, n).values():
        q = gcd(*b)
        norm = sum(v if v >= 0 else -v for v in b) // q
        verts.add((norm, tuple(v // q for v in b)))
        verts.add((norm, tuple(-v // q for v in b)))
    return list(verts)


def _one_per_pair(verts):
    """The vertices (q, w) whose w has a positive first nonzero entry: one
    of each antipodal pair.  Both norms are symmetric, so -w has the negated
    minimal fills of w and the same optimum; one LP answers for the pair."""
    return [(q, w) for q, w in verts if next(v for v in w if v) > 0]


def _inf_problem(rows):
    """The LinfProblem of delta, given by its sparse rows, without its zero
    columns.  Those are the (k-1)-cells in no k-cell's boundary; alpha = 0
    there in every minimal fill, so each optimum is unchanged."""
    used = sorted({j for r in rows for j in r})
    pos = {j: i for i, j in enumerate(used)}
    return LinfProblem([{pos[j]: v for j, v in r.items()} for r in rows],
                       len(used))

