"""Reference exact solver, kept as a test oracle: the elimination loop of
`linalg._Echelon` before its pivot queue (re-sort every live column per
pivot), and `RationalSolver`'s solve, nullspace and `mat_vec` from before the
kernel held ints, every number a RAT."""

from coiso.exact import RAT, ZERO
from coiso.linalg import _Echelon


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


class ReferenceSolver(_Echelon):
    """The all-RAT RationalSolver: same pivot rule, RAT rows and factors."""

    _eliminate = reference_eliminate

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
