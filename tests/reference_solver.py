"""Reference exact solvers, kept as test oracles.

`_ReferenceEchelon` is the elimination driver from before the pivot queue
(re-sort every live column per pivot), with the row conversion and the
factor as per-class hooks.  On it, `ReferenceSolver` is `RationalSolver`'s
solve, nullspace and `mat_vec` from before the kernel held ints, every
number a RAT, and `ReferenceUnimodular` is the unit-pivot elimination of
`IntegralSystem` from before it shared the int rows, `_div` and the
back-substitution of `linalg._Echelon`: int rows, unit pivots, factor entry * pivot, its own record of the rows no
unit pivot clears and its own `solve_int` loop (valid when none is left).
Neither uses the package's elimination driver.  `reference_smith_normal_form`
is `homalg.smith_normal_form` from before it cleared each position with the
shared `euclid_step`: its own smallest-entry pivot search and re-pivot loop.
`reference_snf_solve` is the integral solve through that Smith form of the
whole matrix, which `IntegralSystem` used whenever a row was left without a
unit pivot.
"""

from coiso.exact import RAT, ZERO
from coiso.homalg import IntegerMatrix
from coiso.linalg import scale_to_ints

from intmatrix import set_entry


def rat_solve(solver, b):
    """solver.solve of the rational rhs b, scaled to ints once, with the
    solution as RATs; None when inconsistent."""
    D, y = scale_to_ints(b)
    out = solver.solve(y)
    if out is None:
        return None
    Dx, x = out
    return [RAT(v, D * Dx) for v in x]


def reference_eliminate(self):
    """The kernel's loop before the pivot queue: sort all candidates per pivot."""
    rows = self.rows
    active = set(range(self.m))
    col_rows = {}
    for i in active:
        for j in rows[i]:
            col_rows.setdefault(j, set()).add(i)

    while True:
        cands = sorted((len(owners), j) for j, owners in col_rows.items() if owners)
        pick = None
        for _, j in cands:
            prow = self._pick_row(j, col_rows[j])
            if prow is not None:
                pick = (j, prow)
                break
        if pick is None:
            break
        col, prow = pick
        pval = rows[prow][col]
        for t in sorted(col_rows[col] - {prow}):
            f = self._factor(rows[t][col], pval)
            self.ops.append((t, prow, f))
            rt = rows[t]
            for j, v in rows[prow].items():
                nv = rt.get(j, 0) - f * v
                if nv:
                    if j not in rt:
                        col_rows.setdefault(j, set()).add(t)
                    rt[j] = nv
                elif j in rt:
                    del rt[j]
                    col_rows[j].discard(t)
        self.pivots.append((prow, col))
        active.discard(prow)
        for j in rows[prow]:
            owners = col_rows.get(j)
            if owners is not None:
                owners.discard(prow)

    stuck = sorted(i for i in active if rows[i])
    if stuck:
        self._stuck(stuck)


class _ReferenceEchelon:
    """The shared driver: subclasses fix the pivot rule and the division."""

    _eliminate = reference_eliminate

    def __init__(self, rows, ncols):
        self.m = len(rows)
        self.n = ncols
        self.rows = [self._convert_row(r) for r in rows]
        self.ops = []       # (target_row, pivot_row, factor)
        self.pivots = []    # (row, col) in elimination order
        self.stuck_rows = []
        self._eliminate()
        self.rank = len(self.pivots)
        pivot_rows = {p for p, _ in self.pivots}
        self.zero_rows = sorted(i for i in range(self.m)
                                if i not in pivot_rows and not self.rows[i])
        self.pivot_cols = {c for _, c in self.pivots}
        self.free_cols = [j for j in range(self.n) if j not in self.pivot_cols]

    def _stuck(self, stuck):
        raise AssertionError("elimination stalled")

    def reduce_rhs(self, b):
        y = list(b)
        for t, s, f in self.ops:
            ys = y[s]
            if ys:
                y[t] = y[t] - f * ys
        return y


class ReferenceSolver(_ReferenceEchelon):
    """The all-RAT RationalSolver: same pivot rule, RAT rows and factors."""

    def _convert_row(self, r):
        return {j: RAT(v) for j, v in r.items() if v}

    def _pick_row(self, col, live):
        return min(live, key=lambda i: (len(self.rows[i]), i))

    def _factor(self, entry, pval):
        return entry / pval

    def solve(self, b):
        y = self.reduce_rhs([RAT(v) if v else ZERO for v in b])
        for i in self.zero_rows:
            if y[i]:
                return None
        x = [ZERO] * self.n
        for prow, col in reversed(self.pivots):
            s = y[prow]
            row = self.rows[prow]
            for j, v in row.items():
                if j != col:
                    xj = x[j]
                    if xj:
                        s -= v * xj
            if s:
                x[col] = s / row[col]
        return x

    def nullspace(self):
        basis = []
        for f in self.free_cols:
            x = {f: RAT(1)}
            for prow, col in reversed(self.pivots):
                row = self.rows[prow]
                s = ZERO
                for j, v in row.items():
                    if j != col and j in x:
                        s -= v * x[j]
                val = s / row[col]
                if val:
                    x[col] = val
            basis.append(x)
        return basis


class ReferenceUnimodular(_ReferenceEchelon):
    """IntegralSystem's unit-pivot elimination with its own int rows, factor
    and solve_int loop."""

    def _convert_row(self, r):
        return {j: int(v) for j, v in r.items() if v}

    def _pick_row(self, col, live):
        units = [i for i in live if self.rows[i][col] in (1, -1)]
        if not units:
            return None
        return min(units, key=lambda i: (len(self.rows[i]), i))

    def _factor(self, entry, pval):
        return entry * pval  # pval is +-1, so this is entry / pval

    def _stuck(self, stuck):
        self.stuck_rows = stuck

    def solve_int(self, b):
        assert not self.stuck_rows, "back-substitution alone needs no stuck row"
        y = self.reduce_rhs([int(v) for v in b])
        for i in self.zero_rows:
            if y[i]:
                return None
        x = [0] * self.n
        for prow, col in reversed(self.pivots):
            s = y[prow]
            row = self.rows[prow]
            for j, v in row.items():
                if j != col and x[j]:
                    s -= v * x[j]
            x[col] = s * row[col]  # pivot is +-1
        return x


def reference_smith_normal_form(M):
    """(U, D, V) with U*M*V = D, D diagonal with d1 | d2 | ..., U, V unimodular.

    Dense working copy; the smallest |entry| of the trailing block is the
    pivot, and a remainder left in its row or column re-pivots.
    """
    m, n = M.nrows, M.ncols
    A = M.dense()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, f):       # row_i -= f * row_j
        Ai, Aj = A[i], A[j]
        for t in range(n):
            if Aj[t]:
                Ai[t] -= f * Aj[t]
        Ui, Uj = U[i], U[j]
        for t in range(m):
            if Uj[t]:
                Ui[t] -= f * Uj[t]

    def col_op(i, j, f):       # col_i -= f * col_j
        for r in A:
            if r[j]:
                r[i] -= f * r[j]
        for r in V:
            if r[j]:
                r[i] -= f * r[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    def eliminate_from(s0):
        """Diagonalize the trailing block starting at position s0."""
        s = s0
        while s < min(m, n):
            # smallest nonzero |entry| in the trailing block becomes the pivot
            best = None
            for i in range(s, m):
                Ai = A[i]
                for j in range(s, n):
                    v = Ai[j]
                    if v:
                        a = -v if v < 0 else v
                        if best is None or a < best[0]:
                            best = (a, i, j)
                            if a == 1:
                                break
                if best and best[0] == 1:
                    break
            if best is None:
                break
            _, bi, bj = best
            if bi != s:
                swap_rows(s, bi)
            if bj != s:
                swap_cols(s, bj)
            if A[s][s] < 0:
                negate_row(s)
            # clear row and column s; remainders force a re-pivot, and the
            # pivot magnitude strictly decreases, so this terminates
            while True:
                piv = A[s][s]
                dirty = False
                for i in range(s + 1, m):
                    if A[i][s]:
                        q = A[i][s] // piv
                        if q:
                            row_op(i, s, q)
                        if A[i][s]:
                            swap_rows(s, i)
                            if A[s][s] < 0:
                                negate_row(s)
                            dirty = True
                            break
                if dirty:
                    continue
                for j in range(s + 1, n):
                    if A[s][j]:
                        q = A[s][j] // piv
                        if q:
                            col_op(j, s, q)
                        if A[s][j]:
                            swap_cols(s, j)
                            dirty = True
                            break
                if not dirty:
                    break
            s += 1
        return s

    rank = eliminate_from(0)

    # enforce the divisibility chain d1 | d2 | ...: folding column i+1 into
    # column i and re-eliminating replaces d_i by gcd(d_i, d_{i+1}), which
    # strictly divides it, so the pass terminates
    while True:
        bad = None
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b % a != 0:
                bad = i
                break
        if bad is None:
            break
        col_op(bad, bad + 1, -1)   # col_bad += col_{bad+1}
        eliminate_from(bad)

    Um = IntegerMatrix(m, m, [{j: v for j, v in enumerate(row) if v} for row in U])
    Vm = IntegerMatrix(n, n, [{j: v for j, v in enumerate(row) if v} for row in V])
    Dm = IntegerMatrix(m, n)
    for i in range(min(m, n)):
        if A[i][i]:
            set_entry(Dm, i, i, A[i][i])
    return Um, Dm, Vm


def reference_snf_solve(M, b):
    """Integer solution of M x = b through U M V = D for the whole M, or
    None when none exists (as for a b that is not integral)."""
    scale, bs = scale_to_ints(b)
    if scale != 1:
        return None
    U, D, V = reference_smith_normal_form(M)
    ub = U.mat_vec(bs)
    y = [0] * M.ncols
    for i in range(min(M.nrows, M.ncols)):
        d = D[i, i]
        if d:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    for i in range(M.nrows):
        d = D[i, i] if i < M.ncols else 0
        if not d and ub[i] != 0:
            return None
    return V.mat_vec(y)


def reference_mat_vec(rows, x):
    out = []
    for r in rows:
        s = ZERO
        for j, v in r.items():
            xj = x[j]
            if xj:
                s = s + v * xj
        out.append(s)
    return out


def reference_witness(cycles, omega_dense):
    """FillContext.coboundary_witness as a RAT loop over the cycles."""
    for z in cycles:
        s = ZERO
        for i, v in z.items():
            w = omega_dense[i]
            if w:
                s += v * w
        if s:
            return z, s
    return None
