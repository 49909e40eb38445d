"""Sparse exact linear algebra over the rationals and the integers.

Internal engine behind ranks, homology, tree construction, lifting and the
LP certification step.  Matrices are lists of sparse rows (dict col -> value).
Factorizations record the elimination so the same matrix can be solved
against many right-hand sides; this is what keeps the per-trial cost of the
coisoperimetry sweeps low.
"""

from __future__ import annotations

import heapq

from .exact import RAT, ZERO


class NeedsSmithForm(Exception):
    """Unit-pivot echelon failed; integral solving must go through SNF."""


def sparse_rows_from_entries(entries, nrows):
    """entries: iterable of (row, col, value). Returns list of row dicts."""
    rows = [dict() for _ in range(nrows)]
    for i, j, v in entries:
        if v:
            rows[i][j] = rows[i].get(j, 0) + v
            if not rows[i][j]:
                del rows[i][j]
    return rows


class _Echelon:
    """Shared elimination driver; subclasses fix the pivot rule and division."""

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

    def _eliminate(self):
        # col_rows is kept exact: owners of column j are precisely the active
        # rows containing j.  Pivot columns are tried sparsest-first, ties to
        # the lower column, from a min-heap of (owner count, col).  A pivot
        # changes owner sets only in the columns of its pivot row, so only
        # those get a fresh entry; an entry whose count no longer equals
        # len(col_rows[j]) is stale and dropped when popped.  Columns whose
        # _pick_row gives None are held aside and pushed back after the pick,
        # so the order is exactly that of sorting every live column per pivot.
        rows = self.rows
        active = set(range(self.m))
        col_rows = {}
        for i in active:
            for j in rows[i]:
                col_rows.setdefault(j, set()).add(i)
        heap = [(len(owners), j) for j, owners in col_rows.items()]
        heapq.heapify(heap)

        while True:
            pick = None
            held = []
            while heap:
                entry = heapq.heappop(heap)
                count, j = entry
                # equal entries pop back to back, so a repeat of a held one
                # is a duplicate
                if count != len(col_rows[j]) or (held and held[-1] == entry):
                    continue
                prow = self._pick_row(j, col_rows[j])
                if prow is not None:
                    pick = (j, prow)
                    break
                held.append(entry)
            for entry in held:
                heapq.heappush(heap, entry)
            if pick is None:
                break
            col, prow = pick
            prow_row = rows[prow]
            counts = [(j, len(col_rows[j])) for j in prow_row]
            pval = prow_row[col]
            for t in sorted(col_rows[col] - {prow}):
                f = self._factor(rows[t][col], pval)
                self.ops.append((t, prow, f))
                rt = rows[t]
                for j, v in prow_row.items():
                    nv = rt.get(j, 0) - f * v
                    if nv:
                        if j not in rt:
                            col_rows[j].add(t)
                        rt[j] = nv
                    elif j in rt:
                        del rt[j]
                        col_rows[j].discard(t)
            self.pivots.append((prow, col))
            active.discard(prow)
            for j, old in counts:
                owners = col_rows[j]
                owners.discard(prow)
                if owners and len(owners) != old:
                    heapq.heappush(heap, (len(owners), j))

        if any(rows[i] for i in active):
            self._stuck()

    def _convert_row(self, r):
        raise NotImplementedError

    def _pick_row(self, col, live):
        raise NotImplementedError

    def _factor(self, entry, pval):
        raise NotImplementedError

    def _stuck(self):
        raise AssertionError("elimination stalled")

    def reduce_rhs(self, b):
        """Apply the recorded row operations to a dense rhs."""
        y = list(b)
        for t, s, f in self.ops:      # f is never 0: only nonzeros are eliminated
            ys = y[s]
            if ys:
                y[t] = y[t] - f * ys
        return y


class RationalSolver(_Echelon):
    """Echelon factorization over Q, reusable across right-hand sides.

    Pivoting prefers sparse columns and sparse rows (Markowitz-flavoured) to
    limit fill-in: the next pivot column is the one with the fewest live rows,
    ties to the lower column, taken from the elimination's (count, col)
    queue; within it the row with the fewest entries wins, ties to the lower
    row.  The choice is deterministic, and it fixes which particular solution
    solve() returns: free variables set to zero, or None when inconsistent.
    """

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
        """Basis of ker A, one sparse dict per free column."""
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


class _LowestRowEchelon(RationalSolver):
    """Pivots on the lowest live row, so a row is only reduced by lower rows."""

    def _pick_row(self, col, live):
        return min(live)


def greedy_basis(vectors, n):
    """(indices, rank): the rows independent of all earlier rows, in order.

    vectors are sparse dicts over n coordinates.  Every row that ends at zero
    depends on earlier rows only, so the pivot rows are exactly the greedy
    (lexicographically first) basis of their span.
    """
    E = _LowestRowEchelon(vectors, n)
    return sorted(p for p, _ in E.pivots), E.rank


class UnimodularEchelon(_Echelon):
    """Row echelon form over Z using only +-1 pivots (unimodular row ops).

    When construction succeeds, integral consistency of A x = b coincides
    with rational consistency, and back-substitution returns integer
    solutions for integer rhs.  Raises NeedsSmithForm when no unit pivot is
    available; callers fall back to a Smith normal form solve.
    """

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
        """Integer solution of A x = b (free vars 0), or None when none exists."""
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


def mat_vec(rows, x):
    """rows: list of sparse dicts, x: dense list. Returns dense list."""
    out = []
    for r in rows:
        s = ZERO
        for j, v in r.items():
            xj = x[j]
            if xj:
                s = s + v * xj
        out.append(s)
    return out


def transpose_rows(rows, ncols):
    out = [dict() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[j][i] = v
    return out
