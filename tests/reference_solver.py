"""Reference exact solvers, kept as test oracles.

`_ReferenceEchelon` is the elimination driver from before the pivot queue
(re-sort every live column per pivot), with the row conversion and the
factor as per-class hooks.  On it, `ReferenceSolver` is `RationalSolver`'s
solve, nullspace and `mat_vec` from before the kernel held ints, every
number a RAT, and `ReferenceUnimodular` is `UnimodularEchelon` from before it
shared the int rows, `_div` and the back-substitution of `linalg._Echelon`:
int rows, unit pivots, factor entry * pivot and its own `solve_int` loop.
Neither uses the package's elimination driver.
"""

from coiso.exact import RAT, ZERO
from coiso.linalg import NeedsSmithForm


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

    if any(rows[i] for i in active):
        self._stuck()


class _ReferenceEchelon:
    """The shared driver: subclasses fix the pivot rule and the division."""

    _eliminate = reference_eliminate

    def __init__(self, rows, ncols):
        self.m = len(rows)
        self.n = ncols
        self.rows = [self._convert_row(r) for r in rows]
        self.ops = []       # (target_row, pivot_row, factor)
        self.pivots = []    # (row, col) in elimination order
        self._eliminate()
        self.rank = len(self.pivots)
        pivot_rows = {p for p, _ in self.pivots}
        self.zero_rows = sorted(i for i in range(self.m)
                                if i not in pivot_rows and not self.rows[i])
        self.pivot_cols = {c for _, c in self.pivots}
        self.free_cols = [j for j in range(self.n) if j not in self.pivot_cols]

    def _stuck(self):
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
    """UnimodularEchelon with its own int rows, factor and solve_int loop."""

    def _convert_row(self, r):
        return {j: int(v) for j, v in r.items() if v}

    def _pick_row(self, col, live):
        units = [i for i in live if self.rows[i][col] in (1, -1)]
        if not units:
            return None
        return min(units, key=lambda i: (len(self.rows[i]), i))

    def _factor(self, entry, pval):
        return entry * pval  # pval is +-1, so this is entry / pval

    def _stuck(self):
        raise NeedsSmithForm()

    def solve_int(self, b):
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
