"""Exact (co)chain algebra: boundary matrices, normal forms, homology, norms.

A complex holds each boundary map once, as columns (`boundary_cols`).
`boundary_matrix` transposes them into fresh rows, `coboundary_matrix`
copies them as its rows, and `apply_coboundary` sums over them.
`IntegralSystem`, the unit-pivot subclass of the kernel's elimination
driver `linalg._Echelon`, takes them as the rows of the coboundary it
solves.  Every integer matrix reads its entries by one rule
(`exact.int_rows`): a float or a non-integral rational is refused, never
truncated.

Everything here is exact: integer matrices hold python ints, rational data
holds exact rationals, and no floating point appears anywhere in this module.
`euclid_step` is the one integer Euclidean reduction: the Smith normal form
clears its diagonal with it, and `trees` builds its lattice basis on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (RAT, ZERO, int_index, int_rows, is_integral, load_json,
                    rat)
from .linalg import RationalSolver, _Echelon, dot, scale_to_ints, transpose_rows


class HomalgError(ValueError):
    pass


def json_int(x) -> int:
    """x if it is a JSON integer; a float, a boolean or a string raises."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not a JSON integer")
    return x


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
        fractional = False
        for i, v in self.entries.items():
            if type(i) is not int:
                try:
                    i = int_index(i)
                except TypeError:
                    raise HomalgError(f"cochain cell index {i!r} is not an integer") from None
            if type(v) is int:
                if v:
                    clean[i] = RAT(v)
                continue
            if type(v) is not RAT:
                v = rat(v)
            if v:
                clean[i] = v
                fractional = fractional or not is_integral(v)
        self.entries = clean
        if self.ring not in ("int", "rat"):
            raise HomalgError(f"unknown ring tag {self.ring!r}")
        if self.ring == "int" and fractional:
            raise HomalgError("ring tag 'int' but entries are not integers")

    def __call__(self, i: int):
        return self.entries.get(i, ZERO)

    def dense(self, n: int):
        return [self.entries.get(i, ZERO) for i in range(n)]

    def check_cells(self, n: int, error, name: str):
        """Raise error when an entry lies off [0, n), the n k-cells."""
        bad = sorted(i for i in self.entries if not 0 <= i < n)
        if bad:
            raise error("%s has entries at indices %s outside the %d %d-cells"
                        % (name, bad[:4], n, self.k))

    def dense_checked(self, n: int, error, name: str):
        """dense(n), but entries off [0, n), which dense drops, raise error."""
        self.check_cells(n, error, name)
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
                "entries": [[i, str(v)] for i, v in sorted(self.entries.items())]}

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict: k and the cell indices are JSON integers,
        each cell listed once, the values "p/q" strings or JSON integers."""
        try:
            k = json_int(d["k"])
            entries = {}
            for i, s in d["entries"]:
                if json_int(i) in entries:
                    raise HomalgError(f"malformed cochain JSON: repeated cell {i}")
                entries[i] = rat(s if isinstance(s, str) else json_int(s))
            return cls(k, entries, d.get("ring", "rat"))
        except HomalgError:
            raise
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
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
    return Cochain.from_json_dict(load_json(path, HomalgError, "cochain"))


# ---------------------------------------------------------------------------
# integer matrices

class IntegerMatrix:
    """Sparse exact integer matrix (dict-of-rows)."""

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None \
            else int_rows(rows, HomalgError, "IntegerMatrix")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

    def col_dicts(self):
        return transpose_rows(self.rows, self.ncols)

    def transpose(self) -> "IntegerMatrix":
        T = IntegerMatrix(self.ncols, self.nrows)
        # the columns of int rows with no zeros: the constructor's copy is
        # skipped, as in boundary_matrix
        T.rows = self.col_dicts()
        return T

    def mat_vec(self, x):
        return [dot(r, x) for r in self.rows]

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

    The rows of X.boundary_cols(k), as fresh dicts.  The coboundary
    delta^(k-1) is the transpose.
    """
    if not 1 <= k <= X.dim:
        raise HomalgError(f"k={k} out of range for complex of dimension {X.dim}")
    B = IntegerMatrix(X.n_cells(k - 1), X.n_cells(k))
    # int entries with no zeros already, so the constructor's copy is skipped
    B.rows = transpose_rows(X.boundary_cols(k), B.nrows)
    return B


def coboundary_matrix(X, k: int) -> IntegerMatrix:
    """delta^k : C^k -> C^(k+1): its rows are the columns X.boundary_cols(k+1),
    copied by the constructor, since the caller may change them."""
    if not 0 <= k < X.dim:
        raise HomalgError(f"k={k + 1} out of range for complex of dimension {X.dim}")
    return IntegerMatrix(X.n_cells(k + 1), X.n_cells(k), X.boundary_cols(k + 1))


def apply_coboundary(X, c: Cochain) -> Cochain:
    """delta(c) as a (k+1)-cochain; zero when there are no (k+1)-cells."""
    # delta(c)(sigma) = sum over faces tau of incidence_sign(sigma, tau) * c(tau);
    # Cochain drops the zeros
    get = c.entries.get
    return Cochain(c.k + 1, {
        sigma: sum(sgn * get(tau, 0) for tau, sgn in col.items())
        for sigma, col in enumerate(X.boundary_cols(c.k + 1))}, c.ring)


# ---------------------------------------------------------------------------
# the integer Euclid step and the Smith normal form

def euclid_step(keys, entry, subtract):
    """Clear all but one of the nonzero integers entry(k), k in keys, by
    unimodular steps; returns (the key left nonzero or None, the keys cleared
    in the order they cleared).

    Each pass the key of least |entry| (the first among equals) takes floor
    multiples of itself off the others, through subtract(k, p, q): vector k
    -= q * vector p.  The least |entry| drops every pass until one is left
    (Cohen, A Course in Computational Algebraic Number Theory, ch. 2).
    """
    keys = list(keys)
    cleared = []
    while len(keys) > 1:
        keys.sort(key=lambda k: abs(entry(k)))
        p = keys[0]
        a = entry(p)
        keep = [p]
        for k in keys[1:]:
            q = entry(k) // a
            if q:
                subtract(k, p, q)
            (keep if entry(k) else cleared).append(k)
        keys = keep
    return (keys[0] if keys else None), cleared


def smith_normal_form(M: IntegerMatrix):
    """(U, D, V) with U*M*V = D, D diagonal with d1 | d2 | ..., U, V unimodular.

    Dense working copy.  Each diagonal position is cleared by `euclid_step`,
    on the rows below it and then on the columns to its right, until both
    are clear.  Integral solving takes it only of the block that unit pivots
    leave (BLOCK_CAP).
    """
    m, n = M.nrows, M.ncols

    def unit(i, size):
        return [0] * i + [1] + [0] * (size - i - 1)

    def sparse(rows):
        return [{j: v for j, v in enumerate(r) if v} for r in rows]

    # row i of A carries row i of U after its n entries; the rows of V take
    # the column operations with A's, so AV holds the same row objects and
    # every row changes in place
    A = [r + unit(i, m) for i, r in enumerate(M.dense())]
    V = [unit(i, n) for i in range(n)]
    AV = A + V

    def row_op(i, j, f):       # row_i -= f * row_j
        Ai, Aj = A[i], A[j]
        for t in range(n + m):
            if Aj[t]:
                Ai[t] -= f * Aj[t]

    def col_op(i, j, f):       # col_i -= f * col_j
        for r in AV:
            if r[j]:
                r[i] -= f * r[j]

    def swap_cols(i, j):
        for r in AV:
            r[i], r[j] = r[j], r[i]

    def eliminate_from(s):
        """Diagonalize the trailing block starting at position s."""
        while s < min(m, n):
            i = next((i for i in range(s, m) if any(A[i][s:n])), None)
            if i is None:
                break
            j = next(j for j in range(s, n) if A[i][j])
            if j != s:
                swap_cols(s, j)
            # each round that leaves column s dirty shrinks |A[s][s]|
            while True:
                p, _ = euclid_step([i for i in range(s, m) if A[i][s]],
                                   lambda i: A[i][s], row_op)
                A[s], A[p] = A[p], A[s]
                p, _ = euclid_step([j for j in range(s, n) if A[s][j]],
                                   lambda j: A[s][j], col_op)
                if p != s:
                    swap_cols(s, p)
                if not any(A[i][s] for i in range(s + 1, m)):
                    break
            if A[s][s] < 0:
                A[s][:] = [-x for x in A[s]]
            s += 1
        return s

    # enforce the divisibility chain d1 | d2 | ...: folding column i+1 into
    # column i and re-eliminating replaces d_i by gcd(d_i, d_{i+1}), which
    # strictly divides it, so the pass terminates
    rank = eliminate_from(0)
    while (i := next((i for i in range(rank - 1)
                      if A[i + 1][i + 1] % A[i][i]), None)) is not None:
        col_op(i, i + 1, -1)   # col_i += col_{i+1}
        eliminate_from(i)
    return (IntegerMatrix(m, m, sparse(r[n:] for r in A)),
            IntegerMatrix(m, n, [{i: r[i]} if i < n else {}
                                 for i, r in enumerate(A)]),
            IntegerMatrix(n, n, sparse(V)))


# ---------------------------------------------------------------------------
# ranks, homology, integral solving

def betti_numbers(X) -> list:
    """Rational Betti numbers b_0..b_dim via exact kernel/rank computations.

    Rational inputs make the real case numerically identical, so it is not
    represented separately.
    """
    ranks = [0] * (X.dim + 2)
    for k in range(1, X.dim + 1):
        # the rank of B_k, taken on its columns
        ranks[k] = RationalSolver(X.boundary_cols(k), X.n_cells(k - 1)).rank
    betti = []
    for k in range(X.dim + 1):
        dim_ker = X.n_cells(k) - ranks[k]   # rank of d_k on C_k (d_0 = 0)
        betti.append(dim_ker - ranks[k + 1])
    return betti


# dense entries of the Smith form of the stuck block that IntegralSystem
# builds: the m x n block with its m x m U and n x n V
BLOCK_CAP = 100_000


class IntegralSystem(_Echelon):
    """Cached integral solver for A x = b over Z, A given as sparse int rows
    over ncols columns: the kernel's unit-pivot elimination.

    `_pick_row` takes only +-1 entries, the sparsest such row, ties to the
    lower row.  The row operations then have int factors and the pivots are
    units, so an int reduced rhs and int free values back-substitute to an
    int solution.  The rows no unit pivot can clear stay as `stuck_rows`;
    they lie in non-pivot columns only and form a block (stuck rows x the
    columns they touch) solved through its Smith form.  The block's integer
    solution fills those free columns and back-substitutes through the unit
    pivots, so every solution is integral, and one is found whenever one
    exists.  Complexes without torsion leave no stuck row and take no Smith
    form.  A block whose Smith form needs over BLOCK_CAP dense entries
    (m*n + m*m + n*n for U, D and V) raises HomalgError, as does an entry
    of A that is not an integer.
    """

    def __init__(self, rows, ncols):
        super().__init__(int_rows(rows, HomalgError, "IntegralSystem"), ncols)
        self._cols = sorted({j for i in self.stuck_rows for j in self.rows[i]})
        m, n = self.block_shape = (len(self.stuck_rows), len(self._cols))
        size = m * n + m * m + n * n
        if size > BLOCK_CAP:
            raise HomalgError("integral solve: the %dx%d block left without "
                              "unit pivots, with the U and V of its Smith "
                              "form, takes %d entries, which exceeds %d entries"
                              % (m, n, size, BLOCK_CAP))
        self._block_snf = None
        if m:
            pos = {j: c for c, j in enumerate(self._cols)}
            self._block_snf = smith_normal_form(IntegerMatrix(
                *self.block_shape,
                [{pos[j]: v for j, v in self.rows[i].items()}
                 for i in self.stuck_rows]))

    def _pick_row(self, col, live):
        units = [i for i in live if self.rows[i][col] in (1, -1)]
        if not units:
            return None
        return min(units, key=lambda i: (len(self.rows[i]), i))

    def solve(self, b):
        """Integer solution of A x = b, or None when none exists (as for a b
        that is not integral)."""
        D, y = scale_to_ints(b)
        if D != 1 or (y := self.reduce_rhs(y)) is None:
            return None
        x = [0] * self.n
        if self._block_snf is not None:
            # U B V = S: B z = c  <=>  S w = U c with z = V w
            U, S, V = self._block_snf
            w = [0] * V.nrows
            for i, u in enumerate(U.mat_vec([y[i] for i in self.stuck_rows])):
                d = S[i, i]
                if d and u % d == 0:
                    w[i] = u // d
                elif u:
                    return None
            for j, v in zip(self._cols, V.mat_vec(w)):
                x[j] = v
        # unit pivots: the back-substitution's denominator is 1
        return self.back_substitute(y, x)[1]


def solve_integral_linear(M: IntegerMatrix, b):
    """Integer solution x of M x = b, or None when no integral solution exists."""
    if len(b) != M.nrows:
        raise HomalgError(f"rhs length {len(b)} != {M.nrows} rows")
    return IntegralSystem(M.rows, M.ncols).solve(b)
