"""Sparse exact linear algebra over the rationals and the integers.

Internal engine behind ranks, homology, tree construction, lifting and the
LP certification step.  Matrices are lists of sparse rows (dict col -> value),
and `dot` is the one product of such a row with a dense vector: every
residual, cocycle check, cycle pairing and certificate norm goes through it.
A boundary map reaches it as the complex's shared columns
(`boundary_cols`), which are the rows of the coboundary; every
factorization copies its rows, so those columns are only read.
Factorizations record the elimination so the same matrix can be solved
against many right-hand sides; this is what keeps the per-trial cost of the
coisoperimetry sweeps low.

One driver does all sparse elimination: `_Echelon` owns the pivot queue,
the recorded row operations and the int back-substitution.  Its subclasses
fix only which row a column pivots on and what a solve returns:
`RationalSolver` takes the sparsest live row and returns RATs,
`_LowestRowEchelon` (the greedy bases of `greedy_basis`) the lowest live
row, and `homalg.IntegralSystem` (integral solves) only +-1 entries,
keeping the rows that no unit pivot can clear as `stuck_rows`, which it
solves through the Smith form of their block alone.  That Smith form
and the lattice basis of `trees` are the one other elimination engine:
`homalg.euclid_step`, the integer Euclidean reduction of one coordinate.

One factorization of B_k per (complex, degree): `filling.FillContext`
takes the cycles (`nullspace`) from the factorization of D^T = B_k that its
`lp.LinfProblem` keeps (`transpose_solver`), and every dual certificate of
that LP solves through the same one, pushing unit vectors through its
recorded row operations (`ops`) and reading the conditions for lying in
its image off its `zero_rows`.

Integers first: almost every number here is an integer, so rows, recorded
factors and intermediate vectors hold Python ints, and an exact rational
(`RAT`) is made only where a division leaves a remainder.  A rational vector
is scaled to integers by the lcm of its denominators (`scale_to_ints`),
worked on in ints and divided once at the end.  An exact solution leaves
the kernel in that form: `substitute` and `back_substitute` return
(D, ints), x = ints / D with D the lcm of its denominators, and the callers
inside the package (the fills, the lift, the LP's certificates) stay in
ints.  RATs are made only for a public result: `RationalSolver.solve` and
`nullspace` return RATs, never ints, since int / int is a float in Python.
"""

from __future__ import annotations

import heapq
from math import gcd

from .exact import RAT, ZERO


def _exact(v):
    """v as an int when it is integral, else unchanged (a RAT)."""
    if type(v) is int or v.denominator != 1:
        return v
    return int(v)


def _div(a, b):
    """Exact a / b: an int when b divides a, a RAT only on a remainder."""
    if type(a) is int and type(b) is int:
        if b == 1:
            return a
        if b == -1:
            return -a
        q, r = divmod(a, b)
        return RAT(a, b) if r else q
    return _exact(a / b)


def scale_to_ints(x):
    """(D, X): D the lcm of the denominators of the exact rationals x, and
    X = D * x as ints.  A vector of ints comes back as (1, a copy)."""
    D = 1
    for v in x:
        if type(v) is not int:
            d = int(v.denominator)
            if D % d:
                D = D // gcd(D, d) * d
    if D == 1:
        return 1, [v if type(v) is int else int(v) for v in x]
    return D, [v * D if type(v) is int
               else int(v.numerator) * (D // int(v.denominator)) for v in x]


class _Echelon:
    """Elimination shared by every pivot rule, reusable across right-hand sides.

    Subclasses give `_pick_row`, which may refuse a column with None; the
    rows that are left with entries when every column is refused are
    `stuck_rows`.  The factor of every row operation is `_div`.
    """

    def __init__(self, rows, ncols):
        self.m = len(rows)
        self.n = ncols
        self.rows = [{j: _exact(v) for j, v in r.items() if v} for r in rows]
        self.ops = []       # (target_row, pivot_row, factor)
        self.pivots = []    # (row, col) in elimination order
        self._eliminate()
        self.rank = len(self.pivots)
        pivot_rows = {p for p, _ in self.pivots}
        rest = [i for i in range(self.m) if i not in pivot_rows]
        self.zero_rows = [i for i in rest if not self.rows[i]]
        # every live row lost each pivot column, so these lie in the
        # non-pivot columns only
        self.stuck_rows = [i for i in rest if self.rows[i]]
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
        col_rows = {}
        for i in range(self.m):
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
            int_prow = all(type(v) is int for v in prow_row.values())
            for t in sorted(col_rows[col] - {prow}):
                f = _div(rows[t][col], pval)
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
                if not (int_prow and type(f) is int):
                    # keep the rows free of integral RATs
                    for j, v in rt.items():
                        rt[j] = _exact(v)
            self.pivots.append((prow, col))
            for j, old in counts:
                owners = col_rows[j]
                owners.discard(prow)
                if owners and len(owners) != old:
                    heapq.heappush(heap, (len(owners), j))

    def reduce_rhs(self, b):
        """The dense rhs b through the recorded row operations, or None when
        a zero row is left nonzero (A x = b is inconsistent)."""
        y = list(b)
        for t, s, f in self.ops:      # f is never 0: only nonzeros are eliminated
            ys = y[s]
            if ys:
                y[t] = y[t] - f * ys
        for i in self.zero_rows:
            if y[i]:
                return None
        return y

    def substitute(self, y):
        """(D, X): x = X / D with A x = y (free variables 0) for an int y;
        None if inconsistent."""
        y = self.reduce_rhs(y)
        return None if y is None else self.back_substitute(y, [0] * self.n)

    def back_substitute(self, y, x):
        """(D, X): x, given in the free columns and 0 in the pivot columns,
        with its pivot entries solved from the pivot rows of the reduced rhs
        y, as the ints X = D x over the lcm D of its denominators."""
        for prow, col in reversed(self.pivots):
            s = y[prow]
            row = self.rows[prow]
            for j, v in row.items():
                if j != col:
                    xj = x[j]
                    if xj:
                        s -= v * xj
            if s:
                x[col] = _div(s, row[col])
        return scale_to_ints(x)


class RationalSolver(_Echelon):
    """Echelon factorization over Q, reusable across right-hand sides.

    Pivoting prefers sparse columns and sparse rows (Markowitz-flavoured) to
    limit fill-in: the next pivot column is the one with the fewest live rows,
    ties to the lower column, taken from the elimination's (count, col)
    queue; within it the row with the fewest entries wins, ties to the lower
    row.  The choice is deterministic, and it fixes which particular solution
    solve() returns: free variables set to zero, or None when inconsistent.

    Rows, factors and substitutions hold ints; a RAT appears only where a
    division by a non-unit pivot leaves a remainder, which the boundary-type
    matrices of this package almost never do.  The pivot rule looks at
    supports only, so the representation cannot change a pivot.  solve()
    and nullspace() return RAT entries only.
    """

    def _pick_row(self, col, live):
        return min(live, key=lambda i: (len(self.rows[i]), i))

    def solve(self, b):
        """x with A x = b as RATs (free variables 0), or None if
        inconsistent.

        b may mix ints and RATs; it is scaled to ints by the lcm of its
        denominators, solved in ints and divided by the whole denominator D
        once at the end.
        """
        D, y = scale_to_ints(b)
        out = self.substitute(y)
        if out is None:
            return None
        Dx, x = out
        D *= Dx
        return [RAT(v, D) if v else ZERO for v in x]

    def nullspace(self):
        """Basis of ker A, one sparse dict of RATs per free column: the
        back-substitution of a zero rhs from that column's unit vector."""
        zero = [0] * self.m
        basis = []
        for f in self.free_cols:
            x = [0] * self.n
            x[f] = 1
            D, x = self.back_substitute(zero, x)
            basis.append({j: RAT(v, D) for j, v in enumerate(x) if v})
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


def dot(row, x):
    """The sparse row (dict col -> value) times the dense vector x, skipping
    the zeros of x; exact for ints and RATs alike."""
    s = 0
    for j, v in row.items():
        xj = x[j]
        if xj:
            s += v * xj
    return s


def residual_rows(rows, x, b, Dx=1, Db=1):
    """Indices i with rows[i] . x / Dx != b[i] / Db, for int vectors x and b:
    the identity A x = b checked in ints over their denominators."""
    return [i for i, r in enumerate(rows) if dot(r, x) * Db != b[i] * Dx]


def transpose_rows(rows, ncols):
    out = [dict() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[j][i] = v
    return out
