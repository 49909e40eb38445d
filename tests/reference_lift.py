"""Reference bounded lift: the lift data that wrote out every F(p) chain, one
unit-right-hand-side solve per (k-1)-cell outside the wrapping tree, before
`filling.LiftData` worked on the tree system A and its transpose; kept here,
unchanged but for its name, as a test oracle; and the mod-Z cocycle draws
that the lift tests feed it."""

from math import lcm

from coiso.exact import RAT, ZERO
from coiso.filling import LiftError
from coiso.homalg import Cochain, boundary_matrix
from coiso.linalg import RationalSolver, scale_to_ints
from coiso.trees import SpanningTree, lifting_basis


class ReferenceLiftData:
    """The F-basis machinery of the bounded-lift construction in degree k.

    T is a k-spanning tree, U a (k-1)-wrapping tree.  F(p), for each
    (k-1)-cell p outside U, is the unique chain in T whose boundary is p
    modulo U; together with lifted representatives of the relative-class
    basis these coordinates determine every k-cocycle, and normalizing them
    into [0,1) by integer shifts is what produces the bounded lift.
    """

    def __init__(self, X, k: int, T: SpanningTree, U):
        if T.k != k:
            raise LiftError(f"spanning tree has degree {T.k}, expected {k}")
        if getattr(U, "k", k - 1) != k - 1:
            raise LiftError(f"wrapping tree has degree {U.k}, expected {k - 1}")
        self.X = X
        self.k = k
        self.T = T
        self.U = U
        self.basis_vectors, self.g_upper, self.basis_label = lifting_basis(T)
        self.bound = k + 1 + self.g_upper
        self._build()

    def _build(self):
        X, k = self.X, self.k
        nk = X.n_cells(k)
        tree_cells = sorted(self.T.cells)
        u_cells = set(self.U.cells) if k >= 1 else set()
        n_low = X.n_cells(k - 1) if k >= 1 else 0
        self.f_supports = [p for p in range(n_low) if p not in u_cells]

        # F(p): solve boundary(x) = e_p on the rows outside U, x in C_k(T)
        self.F = {}
        if self.f_supports:
            cols = boundary_matrix(X, k).col_dicts()
            row_pos = {p: i for i, p in enumerate(self.f_supports)}
            rows = [dict() for _ in self.f_supports]
            for cpos, j in enumerate(tree_cells):
                for i, v in cols[j].items():
                    if i in row_pos:
                        rows[row_pos[i]][cpos] = v
            if len(self.f_supports) != len(tree_cells):
                raise LiftError(
                    "F-basis count mismatch: %d cells outside the wrapping "
                    "tree vs %d tree cells" % (len(self.f_supports), len(tree_cells)))
            solver = RationalSolver(rows, len(tree_cells))
            if solver.rank != len(tree_cells):
                raise LiftError("tree filling system is singular")
            for p in self.f_supports:
                rhs = [1 if q == p else 0 for q in self.f_supports]
                x = solver.solve(rhs)
                self.F[p] = {tree_cells[c]: v for c, v in enumerate(x) if v}
            self._bcols = cols
        else:
            self._bcols = boundary_matrix(X, k).col_dicts() if k >= 1 else []

        # lifted basis of H_k(X): b_hat - F(boundary b_hat); in degree 0 the
        # boundary is empty and b~ = b_hat
        rel = self.T.rel_data()
        basis_cells = rel["basis_cells"]
        self.b_tilde = []
        for vec in self.basis_vectors:
            b_hat = {}
            for j, coef in zip(basis_cells, vec):
                if coef:
                    b_hat[j] = b_hat.get(j, ZERO) + coef
            chain = dict(b_hat)
            if k >= 1:
                for j, coef in b_hat.items():
                    for p, sgn in self._bcols[j].items():
                        if p in self.F and coef:
                            for cell, fv in self.F[p].items():
                                nv = chain.get(cell, ZERO) - coef * RAT(sgn) * fv
                                if nv:
                                    chain[cell] = nv
                                elif cell in chain:
                                    del chain[cell]
                # must be an absolute cycle
                bd = {}
                for j, coef in chain.items():
                    for p, sgn in self._bcols[j].items():
                        nv = bd.get(p, ZERO) + coef * RAT(sgn)
                        if nv:
                            bd[p] = nv
                        elif p in bd:
                            del bd[p]
                if bd:
                    raise LiftError("lifted basis element is not a cycle")
            self.b_tilde.append(chain)

        # cocycle coordinates: stack (cocycle condition; <., F(p)>; <., b~>)
        sys_rows = []
        self.n_cocycle_rows = 0
        if k + 1 <= X.dim:
            delta_rows = boundary_matrix(X, k + 1).transpose().rows
            sys_rows.extend(delta_rows)
            self.n_cocycle_rows = len(delta_rows)
        self.coord_chains = [self.F[p] for p in self.f_supports] + self.b_tilde
        # each chain as (D, integer chain D * ch)
        self._int_chains = []
        for ch in self.coord_chains:
            sys_rows.append(dict(ch))
            D, vals = scale_to_ints(list(ch.values()))
            self._int_chains.append((D, dict(zip(ch, vals))))
        self.solver = RationalSolver(sys_rows, nk)
        if self.solver.rank != nk:
            raise LiftError("cocycle coordinates do not determine the cocycle")

    def lift(self, z0_dense, denominator=1):
        """The normalized cocycle lift of the cocycle z0 = z0_dense /
        denominator, values shifted into [0,1) on the coordinate chains;
        differs from z0 by integers cellwise.

        A coordinate <ch, z0> is s / m in ints, and its fractional part is
        (s mod m) / m; the targets are solved over their common denominator.
        """
        D, w = scale_to_ints(z0_dense)
        D *= denominator
        parts = []
        for dc, ch in self._int_chains:
            s = 0
            for j, v in ch.items():
                wj = w[j]
                if wj:
                    s += v * wj
            m = dc * D
            parts.append((s % m, m))
        M = lcm(*(m for _, m in parts))
        rhs = [0] * self.n_cocycle_rows + [r * (M // m) for r, m in parts]
        z = self.solver.solve(rhs, M)
        if z is None:
            raise LiftError("lift system inconsistent")
        return z


def random_mod_z_cocycle(X, k, rng):
    """Fractional part of a random rational cocycle: always liftable."""
    if k + 1 > X.dim:
        n = X.n_cells(k)
        vec = [RAT(rng.randint(-8, 8), rng.choice((2, 3, 4))) for _ in range(n)]
    else:
        delta = boundary_matrix(X, k + 1).transpose()
        basis = RationalSolver(delta.rows, delta.ncols).nullspace()
        n = X.n_cells(k)
        vec = [ZERO] * n
        for b in basis:
            c = RAT(rng.randint(-8, 8), rng.choice((2, 3, 4)))
            if c:
                for i, v in b.items():
                    vec[i] += c * v
    return Cochain(k, {i: v - (v.numerator // v.denominator)
                       for i, v in enumerate(vec)}, "rat")
