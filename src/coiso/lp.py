"""Exact rational linear programming for norm-minimal (co)fillings.

Two layers:

* exact_simplex: a dense two-phase tableau simplex over exact rationals with
  Bland's rule.  The tableau rows are Python ints, each over the positive
  entry in its basic column and reduced by its gcd after every pivot, so no
  rational is built inside the pivot loop; the reduced-cost rows are carried
  through the pivots.  The pivots are those of the all-rational tableau, and
  every (x, value) it returns is checked against a dual verified in ints.

* LinfProblem: minimize ||alpha||_inf subject to D alpha = omega.
  `solve_exact` hands the LP to exact_simplex, with no float anywhere, in
  its shifted form alpha = a - t 1 over the columns (a >= 0, t, slacks s):
  D a - t D1 = omega and a + s - 2t = 0, an (m + n) x (2n + 1) tableau
  for m rows and n variables.  It checks its answer in ints before
  returning.  It is the only LP path of the filling/cofilling duality
  check, and SIMPLEX_CAP bounds its tableau.  `solve`, for the fills and
  the sweep, uses floating point only to guess the optimal active set;
  primal and dual solutions are then reconstructed and verified in exact
  rational arithmetic:

      y with ||D^T y||_1 <= 1 and y.omega = t  certifies  min >= t,
      alpha with D alpha = omega, ||alpha||_inf <= t  certifies  min <= t.

  When no HiGHS guess verifies, `solve_exact` is the last resort, and past
  SIMPLEX_CAP it raises LPError.  The guesses come from HiGHS through
  scipy's private binding `scipy.optimize._highspy._core`, not through
  `linprog`: each LinfProblem builds the HiGHS model of its LP once, the
  one linprog would build (its CSC matrix written by hand, without
  scipy.sparse), and keeps one HiGHS instance per solver, "ipm" and
  "simplex", with linprog's options for "highs-ipm" and "highs-ds".  A
  solve only sets the row bounds D alpha = omega and passes the model
  again, a cold start, so every guess (x and the row duals, or None where
  linprog's status is not 0) is bitwise the one linprog returns.

  `_highs_core` loads that extension on the first float solve, from its
  file in the installed scipy, without running scipy's package imports
  (those of scipy.optimize take 0.5-0.9 s and about 40 MB, measured with
  scipy 1.17 on a 2-core x86-64 Linux machine).  It is registered under
  its real dotted name: pybind11 refuses a second load of the same types
  under any other name, so a later `import scipy.optimize` (linprog, say)
  has to find this module in sys.modules.  There is no fallback to the
  package import; a missing file is an ImportError.

* l1_min: the ell-1 minimal filling of the duality check, also through
  exact_simplex and also refused past SIMPLEX_CAP (`check_l1_cap`).

No float ever enters a returned value.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from math import gcd, lcm, sqrt

from .exact import RAT, ZERO
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
    m = len(A)
    n = len(c)
    if len(b) != m:
        raise LPError(f"{m} constraint rows but {len(b)} right-hand sides")
    if any(len(row) != n for row in A):
        raise LPError(f"every constraint row needs {n} entries, one per cost")
    Da, flat = scale_to_ints([v for row in A for v in row] + list(b))
    a = [flat[i * n:(i + 1) * n] for i in range(m)]
    bs = flat[m * n:]
    Dc, cs = scale_to_ints(c)
    # row i of T: Da [A_i | e_i | b_i], the A_i and b_i parts negated where
    # b_i < 0; the last entry is the right-hand side
    W = n + m
    T = []
    for i in range(m):
        row = a[i] + [0] * m + [bs[i]]
        row[n + i] = Da
        if bs[i] < 0:
            row = [-v for v in row]
            row[n + i] = Da
        T.append(row)
    basis = list(range(n, n + m))
    # reduced costs z_j - c_j as [int row, positive denominator]: phase 1
    # prices the artificials at 1, phase 2 at 0
    z1 = [[sum(col) for col in zip(*T)] if m else [0] * (W + 1), Da]
    for i in range(m):
        z1[0][n + i] = 0
    z2 = [[-v for v in cs] + [0] * (m + 1), Dc]
    for i, row in enumerate(T):
        g = gcd(*row)
        if g > 1:
            T[i] = [v // g for v in row]

    def run_phase(z, nmax, carried):
        while True:
            enter = next((j for j in range(nmax) if z[0][j] > 0), None)
            if enter is None:
                return
            leave = None
            for i in range(m):
                p = T[i][enter]
                if p > 0:
                    # ratio r / p below the best r0 / p0, ties to the smaller
                    # basic index
                    r = T[i][W]
                    if leave is None or (r * p0, basis[i]) < (r0 * p, basis[leave]):
                        leave, r0, p0 = i, r, p
            if leave is None:
                raise Unbounded()
            _pivot(T, basis, leave, enter, carried)

    run_phase(z1, W, (z1, z2))
    if any(T[i][W] for i in range(m) if basis[i] >= n):
        raise Infeasible()
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j]), None)
            if enter is not None:
                _pivot(T, basis, i, enter, (z2,))
    run_phase(z2, n, (z2,))

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = RAT(T[i][W], T[i][basis[i]])
    Dx, xs = scale_to_ints(x)
    V = sum(u * v for u, v in zip(cs, xs) if u and v)
    value = RAT(V, Dc * Dx)
    # dual from the identity block: y = c_B . B^-1 = z2 there, then undo the
    # row flips; y = ys / Dy
    Z2, Dy = z2
    ys = [(-Z2[n + i] if bs[i] < 0 else Z2[n + i]) for i in range(m)]

    # exact verification of both certificates, in ints
    for i in range(m):
        if sum(u * v for u, v in zip(a[i], xs) if u and v) != bs[i] * Dx:
            raise LPError("primal verification failed")
    if any(v < 0 for v in xs):
        raise LPError("negativity crept in")
    # y.b = ys.bs / (Dy Da) against V / (Dc Dx)
    if sum(u * v for u, v in zip(ys, bs) if u and v) * Dc * Dx != V * Dy * Da:
        raise LPError("dual objective mismatch")
    # y.A_j = sum ys_i a_ij / (Dy Da) against c_j = cs_j / Dc
    for j in range(n):
        s = sum(ys[i] * a[i][j] for i in range(m) if ys[i] and a[i][j])
        if s * Dc > cs[j] * Dy * Da:
            raise LPError("dual feasibility failed")
    return x, value


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
    omega, of ints or exact rationals, is read as given; it must be
    rationally solvable, and Infeasible is raised otherwise.
    """

    def __init__(self, rows, ncols):
        self.rows = [{int(j): int(v) for j, v in r.items() if v} for r in rows]
        self.m = len(rows)
        self.n = ncols
        self.cols = transpose_rows(self.rows, ncols)
        self._model = None         # built on the first float solve
        self._solvers = {}         # method -> its HiGHS instance

    def solve(self, omega):
        """(alpha, t, mode): exact optimal alpha, certified optimal norm, and
        which path produced it.

        'zero' for omega = 0; 'reconstructed' when a HiGHS guess (per
        method and tolerance in _ATTEMPTS) yields a verified dual
        certificate and primal; else 'simplex', from solve_exact, which
        raises LPError past SIMPLEX_CAP.
        """
        omega = list(omega)
        if all(v == 0 for v in omega):
            return [ZERO] * self.n, ZERO, "zero"

        for x, duals, tol in self._guesses(omega):
            out = self._reconstruct(omega, x, duals, tol)
            if out is not None:
                return out[0], out[1], "reconstructed"
        alpha, t = self.solve_exact(omega)
        return alpha, t, "simplex"

    # -- float machinery -----------------------------------------------------

    def _highs(self, method):
        """The HiGHS instance of the solver `method` ("ipm" or "simplex");
        it and the model it solves, self._model, are built once.

        The model is linprog's for this LP, as HiGHS takes it: the CSC
        matrix [A_ub; A_eq] over the variables (alpha, t), cost t, alpha
        free and t >= 0, rows A_ub (alpha - t, -alpha - t) <= 0 and
        A_eq (D alpha) = omega.  Each instance carries the options linprog
        sets for the matching method, "highs-ipm" or "highs-ds".
        """
        import numpy as np

        _core = _highs_core()
        if self._model is None:
            n, m = self.n, self.m
            n2 = 2 * n
            # column j < n: +1 at row 2j, -1 at row 2j+1, then D's column
            # at rows 2n+i; column n (t): -1 at rows 0..2n-1
            start, index, value = [0], [], []
            for j, col in enumerate(self.cols):
                index += (2 * j, 2 * j + 1)
                value += (1.0, -1.0)
                for i, v in col.items():      # increasing i, as built
                    index.append(n2 + i)
                    value.append(float(v))
                start.append(len(index))
            index += range(n2)
            value += [-1.0] * n2
            start.append(len(index))
            inf = _core.kHighsInf
            lp = _core.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = n + 1
            lp.num_row_ = lp.a_matrix_.num_row_ = n2 + m
            lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
            lp.a_matrix_.start_ = start
            lp.a_matrix_.index_ = index
            lp.a_matrix_.value_ = value
            cost = np.zeros(n + 1)
            cost[n] = 1.0
            lp.col_cost_ = cost
            lower = np.full(n + 1, -inf)
            lower[n] = 0.0
            lp.col_lower_ = lower
            lp.col_upper_ = np.full(n + 1, inf)
            # rows 2n.. take omega on both sides per solve
            lhs = np.full(n2 + m, -inf)
            rhs = np.zeros(n2 + m)
            self._model = (lp, lhs, rhs)
        highs = self._solvers.get(method)
        if highs is None:
            highs = self._solvers[method] = _core._Highs()
            options = _core.HighsOptions()
            options.presolve = "on"
            options.solver = method
            options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
            options.log_to_console = False
            options.output_flag = False
            options.simplex_strategy = \
                _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
            highs.passOptions(options)
        return highs

    def _float_solve(self, omega, method):
        """HiGHS's solver `method` on D alpha = omega: (x, duals), x = (alpha,
        t) and the duals of the rows +-alpha_i - t <= 0, as linprog's; None
        where linprog's status would not be 0 (no optimum within its check
        tolerance).  OverflowError when omega is beyond float range."""
        import numpy as np

        _core = _highs_core()
        highs = self._highs(method)
        lp, lhs, rhs = self._model
        n2 = 2 * self.n
        b = np.array([float(v) for v in omega])
        lhs[n2:] = b
        rhs[n2:] = b
        lp.row_lower_ = lhs
        lp.row_upper_ = rhs
        # passModel drops any earlier solution and basis: a cold start
        highs.passModel(lp)
        highs.run()
        if highs.getModelStatus() != _core.HighsModelStatus.kOptimal:
            return None
        sol = highs.getSolution()
        x = sol.col_value
        row = np.array(sol.row_value)
        tol = _CHECK_TOL
        if (np.isnan(x).any() or np.isnan(row).any() or x[-1] < -tol
                or (row[:n2] > tol).any() or (np.abs(b - row[n2:]) > tol).any()):
            return None
        return x, sol.row_dual[:n2]

    def _guesses(self, omega):
        """(x, duals, tolerance) per attempt, solving lazily per method and
        skipping a method whose solve failed."""
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
        """t_exact > 0, a proven lower bound for the optimum, from the dual
        supported on the complementary-slackness signs read off the HiGHS
        solution x and its row duals; or None."""
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
        # y with (D^T y)_i = 0 off the support, sum_i eps_i (D^T y)_i = 1;
        # ||D^T y||_1 <= 1 then makes y.omega a certified lower bound
        sys_rows = []
        norm_row = {}
        for i in range(self.n):
            col = self.cols[i]
            if i in dsup:
                s = dsup[i]
                for cell, v in col.items():
                    norm_row[cell] = norm_row.get(cell, 0) + s * v
            else:
                sys_rows.append(col)
        sys_rows.append(norm_row)
        rhs = [0] * (len(sys_rows) - 1) + [1]
        y = RationalSolver(sys_rows, self.m).solve(rhs)
        if y is None:
            return None
        # ||D^T y||_1 <= 1 and t = y.omega, over the denominators of y, omega
        Dy, ys = scale_to_ints(y)
        if sum(abs(dot(col, ys)) for col in self.cols) > Dy:
            return None
        Dw, ws = scale_to_ints(omega)
        t = sum(a * b for a, b in zip(ys, ws) if a and b)
        if t <= 0:
            return None
        return RAT(t, Dy * Dw)

    def _primal_at(self, omega, fixed, bound, guess=None):
        """Exact alpha with D alpha = omega, alpha_i pinned by `fixed`, and
        ||alpha||_inf <= bound; None when the pinned system refuses.

        The free variables of the unpinned system are set to 0.  On a
        degenerate optimal face that can break the bound; then, given a
        float solution `guess`, they take its values rounded to the
        denominator of the bound.
        """
        free = [i for i in range(self.n) if i not in fixed]
        pos = {j: idx for idx, j in enumerate(free)}
        # rhs omega - D_fixed alpha_fixed in ints over the common denominator
        Dw, ws = scale_to_ints(omega)
        Df, fs = scale_to_ints(list(fixed.values()))
        D = lcm(Dw, Df)
        fw, ff = D // Dw, D // Df
        fixed_int = {j: v * ff for j, v in zip(fixed, fs) if v}
        prows = []
        prhs = []
        for i, r in enumerate(self.rows):
            row = {}
            rv = ws[i] * fw
            for j, v in r.items():
                if j in fixed:
                    fv = fixed_int.get(j)
                    if fv:
                        rv -= v * fv
                else:
                    row[pos[j]] = v
            prows.append(row)
            prhs.append(rv)
        solver = RationalSolver(prows, len(free))

        def certified(xfree):
            if xfree is None:
                return None
            alpha = [ZERO] * self.n
            for i, v in fixed.items():
                alpha[i] = v
            for j, idx in pos.items():
                alpha[j] = xfree[idx]
            Da, xs = scale_to_ints(alpha)
            if RAT(max(map(abs, xs), default=0), Da) > bound:
                return None
            if residual_rows(self.rows, alpha, omega):
                return None
            return alpha

        alpha = certified(solver.solve(prhs, D))
        if alpha is not None or guess is None:
            return alpha
        # free variable k at c[k] / q moves A_k c[k] / q to the right-hand side
        q = int(bound.denominator)
        c = {k: round(float(guess[free[k]]) * q) for k in solver.free_cols}
        rhs = [b * q - D * sum(v * c[k] for k, v in row.items() if k in c)
               for b, row in zip(prhs, prows)]
        xfree = solver.solve(rhs, D * q)
        if xfree is not None:
            for k, ck in c.items():
                xfree[k] = RAT(ck, q)
        return certified(xfree)

    def _reconstruct(self, omega, x, duals, tol):
        t_exact = self._dual_certificate(omega, x, duals, tol)
        if t_exact is None:
            return None
        t_f = float(x[-1])
        eps = tol * max(1.0, t_f)
        fixed = {}
        for i in range(self.n):
            v = float(x[i])
            if v >= t_f - eps:
                fixed[i] = t_exact
            elif v <= -(t_f - eps):
                fixed[i] = -t_exact
        alpha = self._primal_at(omega, fixed, t_exact, x)
        if alpha is None:
            return None
        return alpha, t_exact

    # -- float-free path -------------------------------------------------------

    def check_simplex_cap(self):
        """LPError when the tableau of solve_exact exceeds SIMPLEX_CAP."""
        _check_cap(self.m + self.n, 2 * self.n + 1)

    def solve_exact(self, omega):
        """(alpha, t): an optimal alpha and the certified optimum
        t = ||alpha||_inf, from exact_simplex alone.  LPError when the
        tableau exceeds SIMPLEX_CAP, omega has no rational preimage, or the
        answer fails its own check (D alpha = omega, max |alpha_i| = t)."""
        self.check_simplex_cap()
        # shifted form alpha = a - t 1, slacks s, over the columns (a, t, s):
        #   D a - t (D 1) = omega;  a + s - 2t = 0
        # a, s >= 0 makes 0 <= a_i <= 2t, which is |alpha_i| <= t
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
        try:
            x, t = exact_simplex(A, list(omega) + [0] * n, c)
        except Infeasible:
            raise LPError("no rational solution of D alpha = omega")
        alpha = [v - t for v in x[:n]]
        Da, xs = scale_to_ints(alpha)
        if (residual_rows(self.rows, alpha, omega)
                or max(map(abs, xs), default=0) * t.denominator != t.numerator * Da):
            raise LPError("the exact simplex's alpha fails D alpha = omega, "
                          "||alpha||_inf = t")
        return alpha, t


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
    if len(target) != len(rows):
        raise LPError(f"{len(rows)} constraint rows but {len(target)} right-hand sides")
    check_l1_cap(rows, ncols)
    n = ncols
    A = []
    b = []
    for r, t in zip(rows, target):
        if not r:
            if t:
                raise Infeasible()
            continue
        row = [0] * (2 * n)
        for j, v in r.items():
            if not 0 <= j < n:
                raise LPError(f"column {j} outside the {n} variables")
            row[j] = v
            row[n + j] = -v
        A.append(row)
        b.append(t)
    x, value = exact_simplex(A, b, [1] * (2 * n))
    tau = [x[j] - x[n + j] for j in range(n)]
    return tau, value
