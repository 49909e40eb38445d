"""Exact rational linear programming for norm-minimal (co)fillings.

Two layers:

* exact_simplex: a dense two-phase tableau simplex over exact rationals with
  Bland's rule.  The tableau rows are Python ints, each over the positive
  entry in its basic column and reduced by its gcd after every pivot, so no
  rational is built inside the pivot loop; the reduced-cost rows are carried
  through the pivots.  The pivots are those of the all-rational tableau, and
  every (x, value) it returns is checked against a dual verified in ints.
  The tableau takes b as (denominator, ints) and keeps it as given, and it
  reads x off as (Dx, ints) over the lcm Dx of the basic pivots; of its
  callers only exact_simplex, the public entry (l1_min's), scales b and
  makes RATs of x.

  exact_optima solves one A and c for many right-hand sides on one such
  tableau, as each side of the filling/cofilling duality check needs: one
  LP per vertex of a unit ball.  The first b is solved cold, as
  exact_simplex solves it.  A new b leaves the last optimal basis dual
  feasible, so the dual simplex (Lemke 1954) re-solves from it: each row's
  right-hand side is rebuilt from its artificial block, the basic variable
  of smallest index among the negative ones leaves, and the column of A of
  smallest ratio enters, ties to the smaller index (Bland's rule on the
  dual, so no basis repeats).  Every answer is verified in ints as
  exact_simplex verifies its own.  Each b comes as (denominator, ints), as
  the duality check's vertices leave their minors, and a RAT is made only
  for each optimal value.  Only the optimal values are returned: after the
  first b, x depends on the order of the right-hand sides, and the optimum
  does not.

* LinfProblem: minimize ||alpha||_inf subject to D alpha = omega.  Omega
  enters every entry as (Dw, ws), omega = ws / Dw in ints (`solve`,
  `solve_exact` and `optima` refuse any other omega: an LPError unless Dw is
  an int >= 1 and ws one int per row), and `solve` and
  `solve_exact` return alpha in the same form, (Da, a): the fills work on
  it in ints, so no RAT of alpha is made on the way.  `solve_exact` solves
  the LP on one exact tableau, verified as exact_simplex verifies its own,
  with no float anywhere, in its shifted form alpha = a - t 1 over the
  columns (a >= 0, t, slacks s): D a - t D1 = omega and a + s - 2t = 0, an
  (m + n) x (2n + 1) tableau for m rows and n variables.  It checks its
  answer in ints before returning.  `optima` gives the optima of many
  omegas, the vertices of the duality check, from one such tableau through
  exact_optima.  The two are the only LP paths of that check, and
  SIMPLEX_CAP bounds their tableau.  `solve`, for the fills and the sweep,
  uses floating point only to guess the optimal active set, from HiGHS on
  the rows w / Dw (int true division is correctly rounded, so each is the
  float of the exact rational); primal and dual solutions are then
  reconstructed and verified in exact rational arithmetic:

      y with ||D^T y||_1 <= 1 and y.omega = t  certifies  min >= t,
      alpha with D alpha = omega, ||alpha||_inf <= t  certifies  min <= t.

  The dual is built from its support S, the variables whose bound the guess
  holds active with sign eps_i: v = D^T y lives on S, so it has only |S|
  unknowns.  Each LinfProblem keeps one factorization of D^T (its rows
  `cols`), built on first use; it pushes the unit vectors e_i, i in S,
  through its recorded row operations in one pass (`reduce_units`), and
  their entries on its zero rows are exactly the conditions for v to lie
  in im D^T (with no cohomology representatives, whatever H^(k-1) is).
  With the row sum_i eps_i v_i = 1 they make an |S|-column system; its
  solution (free variables 0) back-substitutes to y through the same
  factorization, and the checks above decide.  The primal is pinned to +-t
  on the active variables and solved over t's denominator.  Both solutions
  are checked in ints.

  When no HiGHS guess verifies, or HiGHS would refuse the model (an entry
  of D of magnitude 1e15 or more, its large_matrix_value) or omega (beyond
  float range), `solve_exact` is the last resort, and past SIMPLEX_CAP it
  raises LPError.  The guesses come from HiGHS through
  scipy's private binding `scipy.optimize._highspy._core`, not through
  `linprog`, and without numpy.  Each LinfProblem keeps one HiGHS instance
  per solver, "ipm" and "simplex", with linprog's options for "highs-ipm"
  and "highs-ds".  As an instance is made, it reads the model linprog
  would build for this LP from a temp file of MPS text in ints (so the
  text is exact), and the file is removed at once; a temp file that cannot
  be written, or a model HiGHS does not read back whole, is an LPError.
  The model stays MPS text because a model built from plain lists, though
  it builds faster and guesses bitwise alike, makes the binding import
  numpy on its first list-valued assignment (`HighsLp.col_cost_`, or
  `_Highs.addRow` with list arguments; only the scalar `addVar` and
  `changeColCost` do not).  A solve sets the equality rows to omega with
  changeRowBounds, then clearSolver drops the last solution and basis, a
  cold start as passing the model again would be; linprog's
  NaN and bound checks of the answer run on the plain float lists HiGHS
  returns.  So every guess (x and the row duals, or None where linprog's
  status is not 0) is bitwise the one linprog returns.  Of the HiGHS calls
  a guess makes, only `run()` releases the GIL; the model read holds it
  throughout (a busy Python thread keeps running through a run, and stops
  for the whole read of the L=16 sphere's model, about 12 ms).
  `prepare_guess` builds the first attempt's instance ahead of a solve, so
  that a caller can start pure-Python work on another thread once the read
  is done and overlap it with the run alone.  Threads may share a
  LinfProblem: it holds one lock while it builds an instance, through
  `prepare_guess` too, and over each solve from its row bounds until its
  solution is read, since another thread would otherwise rewrite the
  instance during a run.

  `_highs_core` loads that extension on the first float solve, from its
  file in the installed scipy, without running scipy's package imports
  (those of scipy.optimize take 0.5-0.9 s and about 40 MB, measured with
  scipy 1.17 on a 2-core x86-64 Linux machine).  It is registered under
  its real dotted name: pybind11 refuses a second load of the same types
  under any other name, so a later `import scipy.optimize` (linprog, say)
  has to find this module in sys.modules.  There is no fallback to the
  package import; a missing file is an ImportError.

* l1_min: the ell-1 minimal filling, also through exact_simplex and also
  refused past SIMPLEX_CAP (`check_l1_cap`); l1_optima gives its values for
  the duality check's many targets from one tableau through exact_optima.

No float ever enters a returned value.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import tempfile
import threading
from functools import cached_property
from math import gcd, lcm, sqrt

from .exact import RAT, ZERO, int_rows
from .linalg import (RationalSolver, dot, residual_rows, scale_to_ints,
                     transpose_rows)


class LPError(ValueError):
    pass


class Unbounded(LPError):
    pass


class Infeasible(LPError):
    pass


# ---------------------------------------------------------------------------
# dense exact simplex

def exact_simplex(A, b, c):
    """min c.x  s.t.  A x = b, x >= 0, all data exact (ints or rationals).

    A: list of dense rows, each with one entry per entry of c; b: one entry
    per row.  Returns (x, value) as rationals.  Before returning it verifies
    both certificates in ints: the primal x, and the dual y read off the
    phase-2 cost row, with y.A <= c and y.b = value.  Raises
    Infeasible/Unbounded, and LPError on mis-shaped input or a failed check.

    Two phases over an artificial identity block, with Bland's rule: the
    smallest index with a positive reduced cost enters, and the smallest
    basic index leaves among ties in the ratio test.  A and b are scaled by
    the lcm of their denominators and every row is held in ints: the true
    row is the int row divided by its (positive) entry in its basic column,
    and a gcd reduces it after each pivot.  The reduced-cost rows of both
    phases are carried through the pivots the same way, each over one
    positive denominator.  Every choice reads a sign or compares two ratios
    within a column, so the pivots are those of the all-rational tableau.
    """
    (Dx, xs), value = _Tableau(A, scale_to_ints(b), c).verified()
    return [RAT(v, Dx) for v in xs], value


def exact_optima(A, c, bs):
    """[min c.x s.t. A x = ws / D, x >= 0 for each (D, ws) in bs], ws ints:
    the optimal values alone, each certified in ints by an explicit x and y
    as exact_simplex certifies its own, and each equal to exact_simplex's
    on the RATs ws / D.

    One tableau serves every b: the first is solved cold, as exact_simplex
    solves it, and each later one warm from the last optimal basis
    (`_Tableau.resolve`).  Raises what exact_simplex raises on the first b
    that it refuses.
    """
    values = []
    tab = None
    for b in bs:
        if tab is None:
            tab = _Tableau(A, b, c)
        else:
            tab.resolve(b)
        values.append(tab.verified()[1])
    return values


class _Tableau:
    """The int tableau of min c.x s.t. A x = b, x >= 0, held at an optimal
    basis for one b = (denominator, ints) after another.  Its three steps:
    the cold two-phase solve of the first b (the constructor), the warm
    re-solve of a new b (`resolve`), and the verification of the current
    answer in ints (`verified`)."""

    def __init__(self, A, b, c):
        self.m = m = len(A)
        self.n = n = len(c)
        Db, bs = self._take(b)
        if any(len(row) != n for row in A):
            raise LPError(f"every constraint row needs {n} entries, one per cost")
        self.DA, flat = scale_to_ints([v for row in A for v in row])
        self.a = [flat[i * n:(i + 1) * n] for i in range(m)]
        self.Dc, self.cs = scale_to_ints(c)
        # row i of T: L [A_i | e_i | b_i], L the lcm of the denominators of A
        # and b, the A_i and b_i parts negated where b_i < 0 (`flips`); the
        # last entry is the right-hand side
        L = lcm(self.DA, Db)
        fa, fb = L // self.DA, L // Db
        W = n + m
        self.flips = [v < 0 for v in bs]
        T = []
        for i in range(m):
            row = [v * fa for v in self.a[i]] + [0] * m + [bs[i] * fb]
            if bs[i] < 0:
                row = [-v for v in row]
            row[n + i] = L
            T.append(row)
        basis = list(range(n, n + m))
        # reduced costs z_j - c_j as [int row, positive denominator]: phase 1
        # prices the artificials at 1, phase 2 at 0
        z1 = [[sum(col) for col in zip(*T)] if m else [0] * (W + 1), L]
        for i in range(m):
            z1[0][n + i] = 0
        z2 = [[-v for v in self.cs] + [0] * (m + 1), self.Dc]
        _reduce_rows(T)

        def run_phase(z, nmax, carried):
            while True:
                enter = next((j for j in range(nmax) if z[0][j] > 0), None)
                if enter is None:
                    return
                leave = None
                for i in range(m):
                    p = T[i][enter]
                    if p > 0:
                        # ratio r / p below the best r0 / p0, ties to the
                        # smaller basic index
                        r = T[i][W]
                        if leave is None or (r * p0, basis[i]) < (r0 * p, basis[leave]):
                            leave, r0, p0 = i, r, p
                if leave is None:
                    raise Unbounded()
                _pivot(T, basis, leave, enter, carried)

        run_phase(z1, W, (z1, z2))
        if any(T[i][W] for i in range(m) if basis[i] >= n):
            raise Infeasible()
        # drive leftover artificials out of the basis where possible; a row
        # that keeps one is 0 on every column of A
        for i in range(m):
            if basis[i] >= n:
                enter = next((j for j in range(n) if T[i][j]), None)
                if enter is not None:
                    _pivot(T, basis, i, enter, (z2,))
        run_phase(z2, n, (z2,))
        self.T, self.basis, self.z = T, basis, z2

    def _take(self, b):
        """b = (denominator, ints), kept as the current right-hand side;
        LPError when b has not one entry per row."""
        if len(b[1]) != self.m:
            raise LPError(f"{self.m} constraint rows but {len(b[1])} right-hand sides")
        self.b = b
        return b

    def resolve(self, b):
        """Move the optimal basis to the right-hand side b by the dual
        simplex.  A and c are unchanged, so the basis is still dual feasible;
        only the last column of each row changes.  Row i holds a positive
        multiple of row i of B^-1 [SA | I | Sb] (S the flips of the first b),
        so its new right-hand side is its artificial block times S b.  Each
        row is scaled by the lcm of b's denominators and reduced by its gcd.
        Then the basic variable of smallest index among the negative ones
        leaves, and the column of A with the smallest ratio (z_j - c_j) / T_rj
        over T_rj < 0 enters, ties to the smaller index: Bland's rule on the
        dual, so no basis repeats.  Infeasible when a row that kept an
        artificial is left nonzero, or the leaving row has no negative entry.
        """
        m, n = self.m, self.n
        Db, bs = self._take(b)
        sb = [-v if f else v for v, f in zip(bs, self.flips)]
        T, basis, z = self.T, self.basis, self.z
        W = n + m
        for row in (*T, z[0]):
            r = sum(u * v for u, v in zip(row[n:W], sb) if u and v)
            if Db > 1:
                row[:W] = [v * Db for v in row[:W]]
            row[W] = r
        z[1] *= Db
        _reduce_rows(T)
        g = gcd(z[1], *z[0])
        if g > 1:
            z[0], z[1] = [v // g for v in z[0]], z[1] // g
        if any(T[i][W] for i in range(m) if basis[i] >= n):
            raise Infeasible()
        Z = z[0]
        while True:
            leave = min((i for i in range(m) if T[i][W] < 0),
                        key=basis.__getitem__, default=None)
            if leave is None:
                return
            row = T[leave]
            enter = None
            for j in range(n):
                p = row[j]
                # Z_j / p below the best Z0 / p0, both p < 0
                if p < 0 and (enter is None or Z[j] * p0 < Z0 * p):
                    enter, Z0, p0 = j, Z[j], p
            if enter is None:
                raise Infeasible()
            _pivot(T, basis, leave, enter, (z,))
            Z = z[0]

    def verified(self):
        """((Dx, xs), value) at the current basis and right-hand side, with
        x = xs / Dx in ints over the lcm Dx of the basic pivots, after both
        certificates are checked in ints: A x = b with x >= 0, and the dual
        y = ys / Dy read off the identity block of the cost row, with the
        flips of the first b undone, meets y.A <= c and y.b = value."""
        m, n, T, basis = self.m, self.n, self.T, self.basis
        W = n + m
        Dx = lcm(*(T[i][basis[i]] for i in range(m) if basis[i] < n))
        xs = [0] * n
        for i in range(m):
            if basis[i] < n:
                xs[basis[i]] = T[i][W] * (Dx // T[i][basis[i]])
        cs, Dc, DA, a = self.cs, self.Dc, self.DA, self.a
        V = sum(u * v for u, v in zip(cs, xs) if u and v)
        value = RAT(V, Dc * Dx)
        Z, Dy = self.z
        ys = [(-Z[n + i] if f else Z[n + i]) for i, f in enumerate(self.flips)]
        Db, bs = self.b
        # A x = b: a_i.xs / (DA Dx) against bs_i / Db
        for i in range(m):
            if sum(u * v for u, v in zip(a[i], xs) if u and v) * Db != bs[i] * Dx * DA:
                raise LPError("primal verification failed")
        if any(v < 0 for v in xs):
            raise LPError("negativity crept in")
        # y.b = ys.bs / (Dy Db) against V / (Dc Dx)
        if sum(u * v for u, v in zip(ys, bs) if u and v) * Dc * Dx != V * Dy * Db:
            raise LPError("dual objective mismatch")
        # y.A_j = sum ys_i a_ij / (Dy DA) against c_j = cs_j / Dc
        for j in range(n):
            s = sum(ys[i] * a[i][j] for i in range(m) if ys[i] and a[i][j])
            if s * Dc > cs[j] * Dy * DA:
                raise LPError("dual feasibility failed")
        return (Dx, xs), value


def _reduce_rows(T):
    """Divide each int row of T by the gcd of its entries."""
    for i, row in enumerate(T):
        g = gcd(*row)
        if g > 1:
            T[i] = [v // g for v in row]


def _pivot(T, basis, leave, enter, costs):
    """Pivot the int tableau T on (leave, enter) and carry each reduced-cost
    row in `costs` ([int row, positive denominator], updated in place)."""
    Tl = T[leave]
    p = Tl[enter]
    if p < 0:
        Tl = T[leave] = [-v for v in Tl]
        p = -p
    nz = [(j, v) for j, v in enumerate(Tl) if v]

    def eliminated(row):
        # p * (row - (row[enter] / p) * Tl), with p > 0
        f = row[enter]
        new = [v * p for v in row]
        for j, v in nz:
            new[j] -= f * v
        return new

    for i, Ti in enumerate(T):
        if Ti[enter] and i != leave:
            new = eliminated(Ti)
            g = gcd(*new)
            T[i] = [v // g for v in new] if g > 1 else new
    for z in costs:
        if z[0][enter]:
            new, D = eliminated(z[0]), z[1] * p
            g = gcd(D, *new)
            z[0], z[1] = [v // g for v in new], D // g
    basis[leave] = enter


# ---------------------------------------------------------------------------
# ell-infinity minimal preimage under a sparse integer map

# (HiGHS solver, tolerances): one HiGHS run per solver, read at each
# tolerance; linprog calls them methods "highs-ipm" and "highs-ds"
_ATTEMPTS = (("ipm", (1e-7, 1e-9, 1e-5)), ("simplex", (1e-7,)))
# linprog's check of an optimum: rows and bounds met within 10 sqrt(1e-9)
_CHECK_TOL = sqrt(1e-9) * 10
# solve_exact and l1_min refuse a tableau larger than this: at dDelta3, L=16
# solve_exact's would be (1024 + 1536) x 3073, about 7.9M exact entries
SIMPLEX_CAP = 100_000
# HiGHS refuses a model with a matrix entry of this magnitude or more (its
# option large_matrix_value); such an LP gets no float guess
_HIGHS_LARGE_MATRIX_VALUE = 10 ** 15


_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS extension module `_CORE`: the loaded one if there is
    one, else loaded from its file under that name (see the module
    docstring).  find_spec locates scipy without running its __init__."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed: LinfProblem needs its "
                          "HiGHS extension", name=_CORE)
    where = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's HiGHS extension _core is not in {where}",
                          name=_CORE, path=where)
    spec = importlib.util.spec_from_file_location(_CORE, path)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    spec.loader.exec_module(core)
    return core


def _check_cap(rows, cols):
    if rows * cols > SIMPLEX_CAP:
        raise LPError(
            f"the exact simplex needs a {rows}x{cols} tableau "
            f"({rows * cols} entries), above the cap of {SIMPLEX_CAP}")


class LinfProblem:
    """min ||alpha||_inf s.t. D alpha = omega, for many omegas with one D.

    D is given as sparse rows (one per target cell) over ncols variables.
    Every omega is (Dw, ws), omega = ws / Dw with ws ints, one per row.
    """

    def __init__(self, rows, ncols):
        self.rows = int_rows(rows, ncols, LPError, "LinfProblem")
        self.m = len(rows)
        self.n = ncols
        self.cols = transpose_rows(self.rows, ncols)
        self._solvers = {}         # method -> its HiGHS instance
        # held while an instance is built, and over a solve from its row
        # bounds to its solution read: run() releases the GIL
        self._lock = threading.Lock()
        self._highs_reads = all(abs(v) < _HIGHS_LARGE_MATRIX_VALUE
                                for r in self.rows for v in r.values())

    @cached_property
    def transpose_solver(self):
        """The factorization of D^T (the rows `cols`), built on first use.
        The dual certificates solve through it; in a FillContext, where D^T
        is the boundary B_k, it also gives the cycles."""
        return RationalSolver(self.cols, self.m)

    def solve(self, omega):
        """((Da, a), t, mode) at omega = (Dw, ws): the exact optimal alpha =
        a / Da in ints, the certified optimal norm t, and its LP path.

        'zero' for omega = 0; 'reconstructed' when a HiGHS guess (per
        method and tolerance in _ATTEMPTS) yields a verified dual
        certificate and primal; else 'simplex', from solve_exact, which
        raises LPError past SIMPLEX_CAP.
        """
        self._check_omega(omega)
        if not any(omega[1]):
            return (1, [0] * self.n), ZERO, "zero"
        for x, duals, tol in self._guesses(omega):
            out = self._reconstruct(omega, x, duals, tol)
            if out is not None:
                return *out, "reconstructed"
        return *self.solve_exact(omega), "simplex"

    def _check_omega(self, omega):
        """omega = (D, ws) as given; LPError unless D is an int >= 1 and ws
        holds one int per row."""
        D, ws = omega
        if (type(D) is not int or D < 1 or len(ws) != self.m
                or any(type(w) is not int for w in ws)):
            raise LPError(f"omega must be (D, ints): an int D >= 1 and one int "
                          f"for each of the {self.m} rows")
        return omega

    # -- float machinery -----------------------------------------------------

    def _mps(self):
        """This LP's HiGHS model as MPS text, in ints, so the text is exact.

        It is linprog's model: cost t over the variables (alpha, t), alpha
        free and t >= 0; rows r0..r(2n-1) (alpha_j - t, -alpha_j - t) <= 0,
        then e0..e(m-1) (D alpha) = 0, set to omega per solve.  The rows and
        columns, and each column's entries, come in the order of the CSC
        matrix [A_ub; A_eq] linprog hands HiGHS.
        """
        n = self.n
        n2 = 2 * n
        lines = ["NAME linf", "ROWS", " N obj"]
        lines += [f" L r{i}" for i in range(n2)]
        lines += [f" E e{i}" for i in range(self.m)]
        lines.append("COLUMNS")
        for j, col in enumerate(self.cols):
            lines += (f" c{j} r{2 * j} 1", f" c{j} r{2 * j + 1} -1")
            lines += [f" c{j} e{i} {v}" for i, v in col.items()]   # increasing i
        lines.append(" t obj 1")
        lines += [f" t r{i} -1" for i in range(n2)]
        lines.append("BOUNDS")
        lines += [f" FR BND c{j}" for j in range(n)]
        lines.append("ENDATA\n")
        return "\n".join(lines)

    def _highs(self, method):
        """The HiGHS instance of the solver `method` ("ipm" or "simplex"),
        built once, with the options linprog sets for "highs-ipm" or
        "highs-ds", and the model `_mps` read from a temp file.  LPError
        when the temp file cannot be written, or HiGHS does not read from it
        a model of this LP's shape.  The caller holds the lock."""
        highs = self._solvers.get(method)
        if highs is not None:
            return highs
        _core = _highs_core()
        highs = _core._Highs()
        options = _core.HighsOptions()
        options.presolve = "on"
        options.solver = method
        options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = \
            _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        highs.passOptions(options)
        try:
            fd, path = tempfile.mkstemp(suffix=".mps")
        except OSError as e:
            raise LPError(f"cannot make a temp file for the HiGHS model: {e}") from e
        try:
            with open(fd, "w") as f:
                f.write(self._mps())
            status = highs.readModel(path)
        except OSError as e:
            raise LPError(f"cannot write the HiGHS model to its temp file: {e}") from e
        finally:
            os.unlink(path)
        shape = (highs.getNumRow(), highs.getNumCol())
        if status != _core.HighsStatus.kOk or shape != (2 * self.n + self.m, self.n + 1):
            raise LPError(f"HiGHS could not read its model from a temp file: "
                          f"{status}, {shape[0]} rows, {shape[1]} columns")
        self._solvers[method] = highs
        return highs

    def prepare_guess(self):
        """Whether `solve` takes a float guess: False for a matrix HiGHS
        refuses (`_highs_reads`); else True, with the HiGHS instance of the
        first attempt built, so that its model is read now and the next
        guess starts with the solve."""
        if not self._highs_reads:
            return False
        with self._lock:
            self._highs(_ATTEMPTS[0][0])
        return True

    def _float_solve(self, omega, method):
        """HiGHS's solver `method` on D alpha = omega = (Dw, ws), each row set
        to w / Dw: (x, duals), x = (alpha, t) and the duals of the rows
        +-alpha_i - t <= 0, as linprog's; None where linprog's status would
        not be 0 (no optimum within its check tolerance).  OverflowError
        when omega is beyond float range, and LPError when it has not one
        entry per row; the model is then left as it was."""
        Dw, ws = omega
        b = [w / Dw for w in ws]
        if len(b) != self.m:
            raise LPError(f"{self.m} rows but {len(b)} right-hand sides")
        n2 = 2 * self.n
        with self._lock:
            highs = self._highs(method)
            for i, v in enumerate(b, n2):
                highs.changeRowBounds(i, v, v)
            # drop the earlier solution and basis: a cold start, as each
            # linprog call is
            highs.clearSolver()
            highs.run()
            if highs.getModelStatus() != _highs_core().HighsModelStatus.kOptimal:
                return None
            sol = highs.getSolution()
        x = sol.col_value
        row = sol.row_value
        tol = _CHECK_TOL
        # linprog's checks, with v != v for NaN
        if (any(v != v for v in x) or any(v != v for v in row) or x[-1] < -tol
                or any(v > tol for v in row[:n2])
                or any(abs(u - v) > tol for u, v in zip(b, row[n2:]))):
            return None
        return x, sol.row_dual[:n2]

    def _guesses(self, omega):
        """(x, duals, tolerance) per attempt at omega = (Dw, ws), solving
        lazily per method and skipping a method whose solve failed; none for
        a matrix HiGHS refuses."""
        if not self._highs_reads:
            return
        for method, tols in _ATTEMPTS:
            try:
                res = self._float_solve(omega, method)
            except OverflowError:       # omega beyond float range
                continue
            if res is None:
                continue
            for tol in tols:
                yield *res, tol

    # -- exact reconstruction pieces ------------------------------------------

    def _dual_certificate(self, omega, x, duals, tol):
        """t_exact > 0, a proven lower bound for the optimum at omega =
        (Dw, ws), from the dual supported on the complementary-slackness
        signs read off the HiGHS solution x and its row duals; or None."""
        t_f = float(x[-1])
        if t_f <= 0:
            return None
        eps = tol * max(1.0, t_f)
        dsup = {}
        for i in range(self.n):
            mu_p = -float(duals[2 * i])
            mu_m = -float(duals[2 * i + 1])
            if mu_p > eps:
                dsup[i] = 1
            elif mu_m > eps:
                dsup[i] = -1
        if not dsup:
            return None
        # v = D^T y on the support, v = sum_c v_c e_(S_c); red[r][c] is
        # entry r of e_(S_c) through the factorization of D^T
        E = self.transpose_solver
        red = E.reduce_units(dsup)
        # v lies in im D^T iff its reduction is 0 on every zero row; and
        # sum_i eps_i v_i = 1
        conds = [red[r] for r in E.zero_rows if red.get(r)]
        conds.append({c: dsup[i] for c, i in enumerate(dsup)})
        v = RationalSolver(conds, len(dsup)).substitute([0] * (len(conds) - 1) + [1])
        if v is None:
            return None
        # y = ys / Dy: the reduced rhs is sum_c v_c red[.][c], then one
        # back-substitution
        Dv, vs = v
        rhs = [0] * self.n
        for r, row in red.items():
            rhs[r] = sum(a * vs[c] for c, a in row.items())
        Dy, ys = E.back_substitute(rhs, [0] * self.m)
        Dy *= Dv
        # ||D^T y||_1 <= 1 and t = y.omega, over the denominators of y, omega
        if sum(abs(dot(col, ys)) for col in self.cols) > Dy:
            return None
        Dw, ws = omega
        t = sum(a * b for a, b in zip(ys, ws) if a and b)
        if t <= 0:
            return None
        return RAT(t, Dy * Dw)

    def _primal_at(self, omega, fixed, bound, guess=None):
        """(Da, a): alpha = a / Da in ints with D alpha = omega = (Dw, ws),
        alpha_i = fixed[i] * bound for each pinned i (fixed maps to signs
        +-1), and ||alpha||_inf <= bound; None when the pinned system
        refuses or the checks fail.

        The right-hand side is put over the common denominator of omega
        and the bound.  The free variables of the unpinned system are set
        to 0.  On a degenerate optimal face that can break the bound; then,
        given a float solution `guess`, they take its values rounded to the
        denominator of the bound.
        """
        Dw, ws = omega
        p, q = int(bound.numerator), int(bound.denominator)
        free = [i for i in range(self.n) if i not in fixed]
        pos = {j: idx for idx, j in enumerate(free)}
        # rhs omega - D_fixed alpha_fixed in ints over D = lcm(Dw, q)
        D = lcm(Dw, q)
        fw, fb = D // Dw, D // q * p
        prows = []
        prhs = []
        for i, r in enumerate(self.rows):
            row = {}
            rv = ws[i] * fw
            for j, v in r.items():
                s = fixed.get(j)
                if s is None:
                    row[pos[j]] = v
                else:
                    rv -= v * s * fb
            prows.append(row)
            prhs.append(rv)
        solver = RationalSolver(prows, len(free))

        def certified(xfree, E):
            # alpha = xs / (Dx E) on the free variables, +-bound on the pinned
            if xfree is None:
                return None
            Dx, xs = xfree
            Da = Dx * E
            top = Da // q * p          # bound * Da; q divides E
            a = [0] * self.n
            for i, s in fixed.items():
                a[i] = s * top
            for j, v in zip(free, xs):
                a[j] = v
            if max(map(abs, a), default=0) > top:
                return None
            if residual_rows(self.rows, a, ws, Da, Dw):
                return None
            return Da, a

        out = certified(solver.substitute(prhs), D)
        if out is not None or guess is None:
            return out
        # free variable k at c[k] / q moves A_k c[k] / q to the right-hand side
        c = {k: round(float(guess[free[k]]) * q) for k in solver.free_cols}
        rhs = [b * q - D * sum(v * c[k] for k, v in row.items() if k in c)
               for b, row in zip(prhs, prows)]
        xfree = solver.substitute(rhs)
        if xfree is not None:
            Dx, xs = xfree
            for k, ck in c.items():
                xs[k] = ck * D * Dx
        return certified(xfree, D * q)

    def _reconstruct(self, omega, x, duals, tol):
        """((Da, a), t): the certified optimum t and alpha = a / Da at omega
        = (Dw, ws), from the guess x and its row duals; or None."""
        t_exact = self._dual_certificate(omega, x, duals, tol)
        if t_exact is None:
            return None
        t_f = float(x[-1])
        eps = tol * max(1.0, t_f)
        fixed = {}
        for i in range(self.n):
            v = float(x[i])
            if v >= t_f - eps:
                fixed[i] = 1
            elif v <= -(t_f - eps):
                fixed[i] = -1
        out = self._primal_at(omega, fixed, t_exact, x)
        return None if out is None else (out, t_exact)

    # -- float-free path -------------------------------------------------------

    def check_simplex_cap(self):
        """LPError when the tableau of solve_exact exceeds SIMPLEX_CAP."""
        _check_cap(self.m + self.n, 2 * self.n + 1)

    def solve_exact(self, omega):
        """((Da, a), t) at omega = (Dw, ws): an optimal alpha = a / Da in
        ints and the certified optimum t = ||alpha||_inf, from one verified
        `_Tableau`.  LPError when the tableau exceeds SIMPLEX_CAP, omega has
        no rational preimage, or the answer fails its own check
        (D alpha = omega, max |alpha_i| = t)."""
        Dw, ws = self._check_omega(omega)
        A, c = self._shifted_lp()
        try:
            (Dx, xs), t = _Tableau(A, (Dw, list(ws) + [0] * self.n), c).verified()
        except Infeasible:
            raise LPError("no rational solution of D alpha = omega")
        p, q = int(t.numerator), int(t.denominator)
        Da = Dx * q                 # alpha = x - t
        a = [v * q - p * Dx for v in xs[:self.n]]
        if (residual_rows(self.rows, a, ws, Da, Dw)
                or max(map(abs, a), default=0) * q != p * Da):
            raise LPError("the exact simplex's alpha fails D alpha = omega, "
                          "||alpha||_inf = t")
        return (Da, a), t

    def optima(self, omegas):
        """[t per omega]: the certified optima solve_exact would give, each
        omega = ws / D given as (D, ws) in ints, from one tableau through
        exact_optima, with no alpha (after the first omega it would depend
        on their order).  LPError as solve_exact raises it, at the first
        omega refused."""
        A, c = self._shifted_lp()
        zeros = [0] * self.n
        try:
            return exact_optima(A, c, ((D, list(w) + zeros) for D, w in
                                       map(self._check_omega, omegas)))
        except Infeasible:
            raise LPError("no rational solution of D alpha = omega")

    def _shifted_lp(self):
        """(A, c) of the shifted form alpha = a - t 1, slacks s, over the
        columns (a, t, s):

            D a - t (D 1) = omega;  a + s - 2t = 0

        a, s >= 0 makes 0 <= a_i <= 2t, which is |alpha_i| <= t.  The
        right-hand side of omega is omega and then n zeros.  LPError past
        SIMPLEX_CAP."""
        self.check_simplex_cap()
        n = self.n
        N = 2 * n + 1
        A = []
        for r in self.rows:
            row = [0] * N
            for j, v in r.items():
                row[j] = v
            row[n] = -sum(r.values())
            A.append(row)
        for j in range(n):
            row = [0] * N
            row[j] = 1
            row[n] = -2
            row[n + 1 + j] = 1
            A.append(row)
        c = [0] * N
        c[n] = 1
        return A, c


# ---------------------------------------------------------------------------
# ell-one minimal filling (tiny instances; used by the duality check)

def check_l1_cap(rows, ncols):
    """LPError when the tableau of l1_min on these rows exceeds SIMPLEX_CAP.

    Zero rows are dropped, so only the nonzero ones count; each keeps one
    artificial column, which dominates when the rows outnumber the 2 ncols
    variables.
    """
    m = sum(1 for r in rows if r)
    _check_cap(m, 2 * ncols + m + 1)


def l1_min(rows, ncols, target):
    """min ||tau||_1 s.t. B tau = target, exact via the dense simplex.

    rows: sparse integer rows of B (one per target coordinate), ncols
    variables.  A zero row with target 0 says nothing and is dropped; one
    with a nonzero target makes the problem Infeasible.  LPError when a row
    names a column outside range(ncols), target does not have one entry per
    row, or the tableau exceeds SIMPLEX_CAP (`check_l1_cap`).
    """
    b = _l1_rhs(rows, target)
    A, c = _l1_lp(rows, ncols)
    x, value = exact_simplex(A, b, c)
    tau = [x[j] - x[ncols + j] for j in range(ncols)]
    return tau, value


def l1_optima(rows, ncols, targets):
    """[l1_min's value per target], each target = ts / D given as (D, ts)
    in ints, from one tableau through exact_optima, with no tau; raised as
    l1_min raises, at the first target refused."""
    A, c = _l1_lp(rows, ncols)
    return exact_optima(A, c, ((D, _l1_rhs(rows, t)) for D, t in targets))


def _l1_lp(rows, ncols):
    """(A, c) of the ell-1 LP over the nonzero rows of B: tau = u - v with
    u, v >= 0, B (u - v) = target, min sum (u + v).  LPError past
    SIMPLEX_CAP or for a column outside range(ncols)."""
    check_l1_cap(rows, ncols)
    n = ncols
    A = []
    for r in rows:
        if r:
            row = [0] * (2 * n)
            for j, v in r.items():
                if not 0 <= j < n:
                    raise LPError(f"column {j} outside the {n} variables")
                row[j] = v
                row[n + j] = -v
            A.append(row)
    return A, [1] * (2 * n)


def _l1_rhs(rows, target):
    """target on the nonzero rows; Infeasible when a zero row has a nonzero
    target, LPError when target has not one entry per row."""
    if len(target) != len(rows):
        raise LPError(f"{len(rows)} constraint rows but {len(target)} right-hand sides")
    b = []
    for r, t in zip(rows, target):
        if r:
            b.append(t)
        elif t:
            raise Infeasible()
    return b
