"""Exact (co)chain algebra: boundary matrices, normal forms, homology, norms.

Everything here is exact: integer matrices hold python ints, rational data
holds exact rationals, and no floating point appears anywhere in this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .exact import ZERO, rat, rat_str, is_integral
from .linalg import (NeedsSmithForm, RationalSolver, UnimodularEchelon,
                     scale_to_ints, sparse_rows_from_entries, transpose_rows)


class HomalgError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chains and cochains

@dataclass
class Cochain:
    """Sparse exact cochain: entries map k-cell index -> coefficient."""

    k: int
    entries: dict
    ring: str = "rat"  # "int" | "rat"

    def __post_init__(self):
        clean = {}
        for i, v in self.entries.items():
            v = rat(v)
            if v:
                clean[int(i)] = v
        self.entries = clean
        if self.ring not in ("int", "rat"):
            raise HomalgError(f"unknown ring tag {self.ring!r}")
        if self.ring == "int" and not all(is_integral(v) for v in self.entries.values()):
            raise HomalgError("ring tag 'int' but entries are not integers")

    def __call__(self, i: int):
        return self.entries.get(i, ZERO)

    def dense(self, n: int):
        return [self.entries.get(i, ZERO) for i in range(n)]

    def dense_checked(self, n: int, error, name: str):
        """dense(n), but entries off [0, n), which dense drops, raise error."""
        bad = sorted(i for i in self.entries if not 0 <= i < n)
        if bad:
            raise error("%s has entries at indices %s outside the %d %d-cells"
                        % (name, bad[:4], n, self.k))
        return self.dense(n)

    def is_integral(self) -> bool:
        return all(is_integral(v) for v in self.entries.values())

    def map(self, f, ring=None):
        return Cochain(self.k, {i: f(v) for i, v in self.entries.items()},
                       ring or self.ring)

    def add(self, other, ring=None):
        if self.k != other.k:
            raise HomalgError("dimension mismatch")
        keys = set(self.entries) | set(other.entries)
        return Cochain(self.k, {i: self(i) + other(i) for i in keys},
                       ring or ("int" if self.ring == other.ring == "int" else "rat"))

    def sub(self, other, ring=None):
        return self.add(other.map(lambda v: -v), ring=ring)

    def to_json_dict(self):
        return {"k": self.k, "ring": self.ring,
                "entries": [[i, rat_str(v)] for i, v in sorted(self.entries.items())]}

    @classmethod
    def from_json_dict(cls, d):
        try:
            return cls(int(d["k"]), {int(i): rat(s) for i, s in d["entries"]},
                       d.get("ring", "rat"))
        except HomalgError:
            raise
        except (ValueError, KeyError, TypeError) as e:
            raise HomalgError(f"malformed cochain JSON: {type(e).__name__}: {e}") from e


class Chain(Cochain):
    """Same sparse shape as Cochain, indexed over k-cells of the complex."""


def pairing(omega: Cochain, c: Chain):
    """<omega, c> = sum over cells of omega(i) * c(i)."""
    small, big = (omega.entries, c.entries) if len(omega.entries) <= len(c.entries) \
        else (c.entries, omega.entries)
    s = ZERO
    for i, v in small.items():
        w = big.get(i)
        if w:
            s += v * w
    return s


def norm_inf(c: Cochain):
    """Max absolute entry; 0 for the zero cochain."""
    m = ZERO
    for v in c.entries.values():
        a = -v if v < 0 else v
        if a > m:
            m = a
    return m


def volume_norm(c: Chain):
    """Simplicial volume: sum of absolute entries."""
    s = ZERO
    for v in c.entries.values():
        s += -v if v < 0 else v
    return s


def load_cochain(path) -> Cochain:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as e:     # JSONDecodeError, UnicodeDecodeError
            raise HomalgError(f"cochain file is not JSON: {e}") from e
    return Cochain.from_json_dict(d)


# ---------------------------------------------------------------------------
# integer matrices

class IntegerMatrix:
    """Sparse exact integer matrix (dict-of-rows)."""

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None \
            else [{int(j): int(v) for j, v in r.items() if v} for r in rows]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

    def set(self, i, j, v):
        if v:
            self.rows[i][j] = int(v)
        elif j in self.rows[i]:
            del self.rows[i][j]

    def col_dicts(self):
        return transpose_rows(self.rows, self.ncols)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.ncols, self.nrows, self.col_dicts())

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise HomalgError("shape mismatch in matmul")
        out = IntegerMatrix(self.nrows, other.ncols)
        for i, r in enumerate(self.rows):
            acc = {}
            for k, v in r.items():
                for j, w in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def mat_vec(self, x):
        out = []
        for r in self.rows:
            s = 0
            for j, v in r.items():
                if x[j]:
                    s += v * x[j]
            out.append(s)
        return out

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def dense(self):
        return [[r.get(j, 0) for j in range(self.ncols)] for r in self.rows]

    def rank(self) -> int:
        return RationalSolver(self.rows, self.ncols).rank

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        nnz = sum(len(r) for r in self.rows)
        return f"IntegerMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


def boundary_matrix(X, k: int) -> IntegerMatrix:
    """Boundary map C_k -> C_{k-1}; entry (tau, sigma) = incidence_sign(sigma, tau).

    The coboundary delta^(k-1) is the transpose.  Works for simplicial and
    grid complexes.
    """
    if not 1 <= k <= X.dim:
        raise HomalgError(f"k={k} out of range for complex of dimension {X.dim}")
    rows = sparse_rows_from_entries(X.boundary_entries(k), X.n_cells(k - 1))
    return IntegerMatrix(X.n_cells(k - 1), X.n_cells(k), rows)


def coboundary_matrix(X, k: int) -> IntegerMatrix:
    """delta^k : C^k -> C^(k+1), the transpose of boundary_matrix(X, k+1)."""
    return boundary_matrix(X, k + 1).transpose()


def apply_coboundary(X, c: Cochain) -> Cochain:
    """delta(c) as a (k+1)-cochain; zero when there are no (k+1)-cells."""
    k = c.k
    if k + 1 > X.dim:
        return Cochain(k + 1, {}, c.ring)
    # delta(c)(sigma) = sum over faces tau of incidence_sign(sigma, tau) * c(tau)
    res = {}
    for tau, sigma, sgn in X.boundary_entries(k + 1):
        v = c(tau)
        if v:
            res[sigma] = res.get(sigma, ZERO) + sgn * v
    return Cochain(k + 1, res, c.ring)


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(M: IntegerMatrix):
    """(U, D, V) with U*M*V = D, D diagonal with d1 | d2 | ..., U, V unimodular.

    Dense working copy; pivots prefer small magnitude entries.  Intended for
    the moderate sizes appearing in this package.
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
            Dm.set(i, i, A[i][i])
    return Um, Dm, Vm


# ---------------------------------------------------------------------------
# ranks, homology, integral solving

def betti_numbers(X, field: str = "Q") -> list:
    """Rational Betti numbers b_0..b_dim via exact kernel/rank computations.

    Only field = "Q" is supported; rational inputs make the real case
    numerically identical, so it is not represented separately.
    """
    if field != "Q":
        raise HomalgError("only rational coefficients are supported")
    ranks = [0] * (X.dim + 2)
    for k in range(1, X.dim + 1):
        ranks[k] = boundary_matrix(X, k).rank()
    betti = []
    for k in range(X.dim + 1):
        dim_ker = X.n_cells(k) - ranks[k]   # rank of d_k on C_k (d_0 = 0)
        betti.append(dim_ker - ranks[k + 1])
    return betti


class IntegralSystem:
    """Cached integral solver for M x = b over Z.

    Fast path: unimodular row echelon with unit pivots (exact for these
    incidence-flavoured systems); falls back to Smith normal form when a unit
    pivot is unavailable.
    """

    def __init__(self, M: IntegerMatrix):
        self.M = M
        try:
            self._umr = UnimodularEchelon(M.rows, M.ncols)
            self._snf = None
        except NeedsSmithForm:
            self._umr = None
            self._snf = smith_normal_form(M)

    def solve(self, b):
        """Integer solution of M x = b, or None when none exists (as for a b
        that is not integral)."""
        if self._umr is not None:
            return self._umr.solve_int(b)
        scale, bs = scale_to_ints(b)
        if scale != 1:
            return None
        U, D, V = self._snf
        ub = U.mat_vec(bs)
        y = [0] * self.M.ncols
        for i in range(min(self.M.nrows, self.M.ncols)):
            d = D[i, i]
            if d:
                if ub[i] % d != 0:
                    return None
                y[i] = ub[i] // d
        for i in range(self.M.nrows):
            d = D[i, i] if i < self.M.ncols else 0
            if not d and ub[i] != 0:
                return None
        return V.mat_vec(y)


def solve_integral_linear(M: IntegerMatrix, b):
    """Integer solution x of M x = b, or None when no integral solution exists."""
    if len(b) != M.nrows:
        raise HomalgError(f"rhs length {len(b)} != {M.nrows} rows")
    return IntegralSystem(M).solve(b)
