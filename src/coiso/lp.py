"""Exact rational linear programming for norm-minimal (co)fillings.

Two layers:

* exact_simplex: a dense two-phase tableau simplex over exact rationals with
  Bland's rule.  Slow but airtight; every result carries a verified dual.

* LinfProblem: minimize ||alpha||_inf subject to D alpha = omega.  Floating
  point (scipy/HiGHS) is used only to guess the optimal active set; primal
  and dual solutions are then reconstructed and verified in exact rational
  arithmetic:

      y with ||D^T y||_1 <= 1 and y.omega = t  certifies  min >= t,
      alpha with D alpha = omega, ||alpha||_inf <= t  certifies  min <= t.

  When the vertex guess fails to verify, a recursive scheme fixes the
  certified dual support at +-t and re-solves the strictly smaller residual
  problem; each level is certified on its own, so the assembled answer is
  proven optimal no matter what the floats did.  The dense exact simplex
  remains as the last resort.

No float ever enters a returned value.
"""

from __future__ import annotations

from math import lcm

from .exact import RAT, ZERO, ONE
from .linalg import RationalSolver, residual_rows, scale_to_ints, transpose_rows


class LPError(ValueError):
    pass


class Unbounded(LPError):
    pass


class Infeasible(LPError):
    pass


# ---------------------------------------------------------------------------
# dense exact simplex

def exact_simplex(A, b, c):
    """min c.x  s.t.  A x = b, x >= 0, all data exact rationals.

    A: list of dense rows.  Returns (x, value, y) where y is the dual vector
    satisfying y.A <= c and y.b = value; both sides are verified exactly
    before returning.  Raises Infeasible/Unbounded.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[RAT(v) for v in row] for row in A]
    rhs = [RAT(v) for v in b]
    cost = [RAT(v) for v in c]
    for i in range(m):
        if rhs[i] < 0:
            T[i] = [-v for v in T[i]]
            rhs[i] = -rhs[i]
    # append artificial identity block; its columns double as B^-1 tracking
    for i in range(m):
        T[i] += [ONE if j == i else ZERO for j in range(m)]
    basis = list(range(n, n + m))

    def run_phase(cvec, nmax):
        # reduced cost row: z_j - c_j = c_B . T_j - c_j ; enter while positive,
        # Bland's rule (smallest index in, smallest basic out) for finiteness
        while True:
            enter = None
            for j in range(nmax):
                if j in basis:
                    continue
                s = -cvec[j]
                for i in range(m):
                    cb = cvec[basis[i]]
                    if cb and T[i][j]:
                        s += cb * T[i][j]
                if s > 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            best = None
            for i in range(m):
                if T[i][enter] > 0:
                    ratio = rhs[i] / T[i][enter]
                    key = (ratio, basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:
                raise Unbounded()
            _pivot(T, rhs, basis, leave, enter)

    art_cost = [ZERO] * n + [ONE] * m
    run_phase(art_cost, n + m)
    if sum(art_cost[basis[i]] * rhs[i] for i in range(m)) != 0:
        raise Infeasible()
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = None
            for j in range(n):
                if T[i][j] != 0:
                    enter = j
                    break
            if enter is not None:
                _pivot(T, rhs, basis, i, enter)

    full_cost = cost + [ZERO] * m
    run_phase(full_cost, n)

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    value = sum(cost[j] * x[j] for j in range(n))
    # dual from the identity block: y = c_B . B^-1, then undo the row flips
    y = []
    for i in range(m):
        s = ZERO
        for r in range(m):
            cb = full_cost[basis[r]]
            if cb and T[r][n + i]:
                s += cb * T[r][n + i]
        y.append(s)
    y = [(-v if RAT(b[i]) < 0 else v) for i, v in enumerate(y)]

    # exact verification of both certificates
    for i in range(m):
        s = sum(RAT(A[i][j]) * x[j] for j in range(n))
        if s != RAT(b[i]):
            raise LPError("primal verification failed")
    if any(v < 0 for v in x):
        raise LPError("negativity crept in")
    if sum(y[i] * RAT(b[i]) for i in range(m)) != value:
        raise LPError("dual objective mismatch")
    for j in range(n):
        s = sum(y[i] * RAT(A[i][j]) for i in range(m))
        if s > RAT(cost[j]):
            raise LPError("dual feasibility failed")
    return x, value, y


def _pivot(T, rhs, basis, leave, enter):
    piv = T[leave][enter]
    Tl = T[leave]
    inv = ONE / piv
    T[leave] = [v * inv for v in Tl]
    rhs[leave] = rhs[leave] * inv
    Tl = T[leave]
    width = len(Tl)
    for i in range(len(T)):
        if i == leave:
            continue
        f = T[i][enter]
        if f:
            Ti = T[i]
            for j in range(width):
                if Tl[j]:
                    Ti[j] -= f * Tl[j]
            rhs[i] -= f * rhs[leave]
    basis[leave] = enter


# ---------------------------------------------------------------------------
# ell-infinity minimal preimage under a sparse integer map

# (method, tolerances): one HiGHS run per method, read at each tolerance
_ATTEMPTS = (("highs-ipm", (1e-7, 1e-9, 1e-5)), ("highs-ds", (1e-7,)))
_TINY = 48          # below this many variables the dense simplex is cheap
_MAX_LEVELS = 512
# the last-resort dense simplex refuses a tableau larger than this: at
# dDelta3, L=16 it would be (1024 + 3072) x 6145, about 25M exact entries
SIMPLEX_CAP = 100_000


class LinfProblem:
    """min ||alpha||_inf s.t. D alpha = omega, for many omegas with one D.

    D is given as sparse rows (one per target cell) over ncols variables.
    omega must be rationally solvable; Infeasible is raised otherwise.
    """

    def __init__(self, rows, ncols):
        self.rows = [{int(j): int(v) for j, v in r.items() if v} for r in rows]
        self.m = len(rows)
        self.n = ncols
        self.cols = transpose_rows(self.rows, ncols)
        self._scipy = None

    def solve(self, omega):
        """(alpha, t, mode): exact optimal alpha, certified optimal norm, and
        which path produced it ('reconstructed', 'recursive' or 'simplex')."""
        omega = [RAT(v) for v in omega]
        if all(v == 0 for v in omega):
            return [ZERO] * self.n, ZERO, "zero"

        for res, tol in self._guesses(omega):
            out = self._reconstruct(omega, res, tol)
            if out is not None:
                return out[0], out[1], "reconstructed"

        if self.n > _TINY:
            out = self._solve_recursive(omega, 0)
            if out is not None:
                return out[0], out[1], "recursive"

        alpha, t = self._solve_exact_simplex(omega)
        return alpha, t, "simplex"

    # -- float machinery -----------------------------------------------------

    def _scipy_setup(self):
        if self._scipy is None:
            import numpy as np
            from scipy import sparse

            n, m = self.n, self.m
            data, ri, ci = [], [], []
            for i, r in enumerate(self.rows):
                for j, v in r.items():
                    ri.append(i)
                    ci.append(j)
                    data.append(float(v))
            A_eq = sparse.csr_matrix((data, (ri, ci)), shape=(m, n + 1))
            ri2, ci2, d2 = [], [], []
            for j in range(n):
                ri2 += [2 * j, 2 * j, 2 * j + 1, 2 * j + 1]
                ci2 += [j, n, j, n]
                d2 += [1.0, -1.0, -1.0, -1.0]
            A_ub = sparse.csr_matrix((d2, (ri2, ci2)), shape=(2 * n, n + 1))
            cvec = np.zeros(n + 1)
            cvec[n] = 1.0
            bounds = [(None, None)] * n + [(0, None)]
            self._scipy = (np, A_eq, A_ub, cvec, bounds)
        return self._scipy

    def _float_solve(self, omega, method):
        np, A_eq, A_ub, cvec, bounds = self._scipy_setup()
        from scipy.optimize import linprog

        return linprog(cvec, A_ub=A_ub, b_ub=np.zeros(2 * self.n), A_eq=A_eq,
                       b_eq=np.array([float(v) for v in omega]), bounds=bounds,
                       method=method)

    def _guesses(self, omega):
        """(HiGHS result, tolerance) per attempt, solving lazily per method."""
        for method, tols in _ATTEMPTS:
            try:
                res = self._float_solve(omega, method)
            except OverflowError:       # omega beyond float range
                continue
            for tol in tols:
                yield res, tol

    # -- exact reconstruction pieces ------------------------------------------

    def _dual_certificate(self, omega, res, tol):
        """(t_exact, support) with t_exact > 0 a proven lower bound for the
        optimum and support the complementary-slackness signs read off the
        HiGHS result res, or None."""
        if res.status != 0:
            return None
        t_f = float(res.x[-1])
        if t_f <= 0:
            return None
        eps = tol * max(1.0, t_f)
        marg = res.ineqlin.marginals
        dsup = {}
        for i in range(self.n):
            mu_p = -float(marg[2 * i])
            mu_m = -float(marg[2 * i + 1])
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
        l1 = 0
        for col in self.cols:
            s = 0
            for cell, v in col.items():
                yc = ys[cell]
                if yc:
                    s += v * yc
            l1 += s if s >= 0 else -s
        if l1 > Dy:
            return None
        Dw, ws = scale_to_ints(omega)
        t = sum(a * b for a, b in zip(ys, ws) if a and b)
        if t <= 0:
            return None
        return RAT(t, Dy * Dw), dsup

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

    def _reconstruct(self, omega, res, tol):
        cert = self._dual_certificate(omega, res, tol)
        if cert is None:
            return None
        t_exact, _ = cert
        t_f = float(res.x[-1])
        eps = tol * max(1.0, t_f)
        fixed = {}
        for i in range(self.n):
            v = float(res.x[i])
            if v >= t_f - eps:
                fixed[i] = t_exact
            elif v <= -(t_f - eps):
                fixed[i] = -t_exact
        alpha = self._primal_at(omega, fixed, t_exact, res.x)
        if alpha is None:
            return None
        return alpha, t_exact

    def _solve_recursive(self, omega, depth):
        """Fix the certified dual support at +-t and recurse on the rest.

        Every level is exactly certified, so success proves optimality even
        if the float guidance was wrong; failure returns None.
        """
        if depth > _MAX_LEVELS:
            return None
        if all(v == 0 for v in omega):
            return [ZERO] * self.n, ZERO
        cert = None
        for res, tol in self._guesses(omega):
            cert = self._dual_certificate(omega, res, tol)
            if cert is not None:
                break
        if cert is None:
            return None
        t_exact, dsup = cert
        fixed = {i: s * t_exact for i, s in dsup.items()}
        resid = list(omega)
        for i, fv in fixed.items():
            for cell, v in self.cols[i].items():
                resid[cell] -= RAT(v) * fv
        keep = [j for j in range(self.n) if j not in fixed]
        remap = {j: idx for idx, j in enumerate(keep)}
        sub_rows = []
        for r in self.rows:
            sub_rows.append({remap[j]: v for j, v in r.items() if j in remap})
        sub = LinfProblem(sub_rows, len(keep))
        out = sub._solve_recursive(resid, depth + 1)
        if out is None:
            return None
        sub_alpha, sub_t = out
        if sub_t > t_exact:
            return None
        alpha = [ZERO] * self.n
        for i, v in fixed.items():
            alpha[i] = v
        for j, idx in remap.items():
            alpha[j] = sub_alpha[idx]
        if residual_rows(self.rows, alpha, omega):
            return None
        if any((v if v >= 0 else -v) > t_exact for v in alpha):
            return None
        return alpha, t_exact

    # -- airtight fallback ----------------------------------------------------

    def _solve_exact_simplex(self, omega):
        # standard form: alpha = u - v, slacks s+, s-:
        #   D(u - v) = omega;  u - v - t + s+ = 0;  -u + v - t + s- = 0
        n = self.n
        N = 4 * n + 1
        size = (self.m + 2 * n) * N
        if size > SIMPLEX_CAP:
            raise LPError(
                f"the exact simplex fallback needs a {self.m + 2 * n}x{N} "
                f"tableau ({size} entries), above the cap of {SIMPLEX_CAP}")
        it = 2 * n
        A = []
        b = []
        for i, r in enumerate(self.rows):
            row = [ZERO] * N
            for j, v in r.items():
                row[j] = RAT(v)
                row[n + j] = RAT(-v)
            A.append(row)
            b.append(omega[i])
        for j in range(n):
            row = [ZERO] * N
            row[j] = ONE
            row[n + j] = -ONE
            row[it] = -ONE
            row[2 * n + 1 + j] = ONE
            A.append(row)
            b.append(ZERO)
            row = [ZERO] * N
            row[j] = -ONE
            row[n + j] = ONE
            row[it] = -ONE
            row[3 * n + 1 + j] = ONE
            A.append(row)
            b.append(ZERO)
        c = [ZERO] * N
        c[it] = ONE
        try:
            x, value, _ = exact_simplex(A, b, c)
        except Infeasible:
            raise LPError("no rational solution of D alpha = omega")
        alpha = [x[j] - x[n + j] for j in range(n)]
        return alpha, value


# ---------------------------------------------------------------------------
# ell-one minimal filling (tiny instances; used by the duality check)

def l1_min(rows, ncols, target):
    """min ||tau||_1 s.t. B tau = target, exact via the dense simplex.

    rows: sparse rows of B (one per target coordinate), ncols variables.
    """
    m = len(rows)
    n = ncols
    A = []
    for r in rows:
        row = [ZERO] * (2 * n)
        for j, v in r.items():
            row[j] = RAT(v)
            row[n + j] = RAT(-v)
        A.append(row)
    c = [ONE] * (2 * n)
    x, value, _ = exact_simplex(A, [RAT(v) for v in target], c)
    tau = [x[j] - x[n + j] for j in range(n)]
    return tau, value
