"""Higher-dimensional spanning and wrapping trees, and gnarledness bounds.

A k-spanning tree T contains the full (k-1)-skeleton, has no rational
k-cycles, and leaves H_{k-1} unchanged over Q; a k-wrapping tree U also
carries H_k isomorphically.  Both are built greedily in the canonical cell
order, which makes every construction reproducible; every greedy choice is
one `linalg.greedy_basis` pass on the shared elimination kernel, over the
complex's boundary columns (`boundary_cols`), which the trees, their
checks, the relative classes and the components all read as they are.

Relative classes: the greedy wrapping extension cells represent a basis of
H_k(X,T;Q); every k-cell's class is expanded in that basis.  The expansion
is linear in the cell, so it comes from one factorization of the transposed
system [ext | tree | boundaries]^T and one solve per basis cell, not one
solve per k-cell.  The gnarledness upper bound is the largest l1-norm of
such a class, valid once every class is an integer combination of the
basis; when the greedy basis fails that integrality the lattice (Hermite)
basis of the class lattice always works and is used by the lifting
pipeline.
"""

from __future__ import annotations

import json
from math import gcd

from .exact import RAT, ZERO, ONE, Record, is_integral
from .complexes import SimplicialComplex, build_complex
from .homalg import euclid_step
from .linalg import RationalSolver, greedy_basis, scale_to_ints, transpose_rows


class TreeError(ValueError):
    pass


class BasisIntegralityError(TreeError):
    """Some cell class is not an integer combination of the chosen basis."""

    def __init__(self, offenders):
        self.offenders = offenders
        super().__init__(
            "classes of cells %s are not integer combinations of the basis; "
            "supply a different basis" % (offenders,))


class SpanningTree(Record):
    """k-spanning tree: X^(k-1) plus the listed k-cells."""

    _fields = ("X", "k", "cells")     # _rel, derived from them, is not one

    def __init__(self, X, k: int, cells: tuple, _rel: dict | None = None):
        self.X = X
        self.k = k
        self.cells = cells
        self._rel = _rel

    # -- relative homology data --------------------------------------------

    def rel_data(self):
        """dict with basis cells of H_k(X,T;Q) and every k-cell's class."""
        if self._rel is None:
            self._rel = _relative_classes(self.X, self.k, set(self.cells))
        return self._rel


class WrappingTree(Record):
    _fields = ("X", "k", "cells")

    def __init__(self, X, k: int, cells: tuple):
        self.X = X
        self.k = k
        self.cells = cells


def greedy_spanning_tree(X, k: int) -> SpanningTree:
    """Greedy k-spanning tree in canonical cell order.

    k = 0 is allowed and gives the empty tree (the degenerate case used by
    degree-zero lifts).  Both homology conditions are verified before return.
    """
    if k < 0 or k > X.dim:
        raise TreeError(f"k={k} out of range")
    if k == 0:
        return SpanningTree(X, 0, ())
    chosen, _ = greedy_basis(X.boundary_cols(k), X.n_cells(k - 1))
    T = SpanningTree(X, k, tuple(chosen))
    _verify_spanning(T)
    return T


def _verify_spanning(T):
    X, k = T.X, T.k
    cols = X.boundary_cols(k)
    sel = [cols[j] for j in T.cells]
    rank_T = RationalSolver(sel, X.n_cells(k - 1)).rank if sel else 0
    if rank_T != len(T.cells):
        raise TreeError("tree has rational k-cycles")
    rank_full = RationalSolver(cols, X.n_cells(k - 1)).rank
    if rank_T != rank_full:
        raise TreeError("H_{k-1} changes: tree boundaries do not span")


def wrapping_tree(X, k: int) -> WrappingTree:
    """Greedy k-wrapping tree: spanning tree plus a relative-class basis.

    For k = 0 this is the smallest vertex of each connected component.
    """
    T = greedy_spanning_tree(X, k)
    ext, _ = _greedy_extension(X, k, set(T.cells))
    U = WrappingTree(X, k, tuple(sorted(set(T.cells) | set(ext))))
    _verify_wrapping(U)
    return U


def _greedy_extension(X, k, tree_cells):
    """(ext, base): the k-cells whose relative classes greedily span
    H_k(X,T;Q), and the rank of the tree and (k+1)-boundary columns.

    One greedy pass over [tree units | (k+1)-boundaries | other units]; ext
    is the picks in the last block.  In degree 0 with T empty the greedy
    pick is the smallest vertex of each connected component, read off the
    union-find without any elimination (the edge boundaries then have rank
    n_0 minus the number of components).
    """
    nk = X.n_cells(k)
    if k == 0 and not tree_cells:
        ext = sorted(min(c) for c in _components(X))
        return ext, nk - len(ext)
    rest = [j for j in range(nk) if j not in tree_cells]
    head = [{j: ONE} for j in sorted(tree_cells)] + X.boundary_cols(k + 1)
    picks, rank = greedy_basis(head + [{j: ONE} for j in rest], nk)
    ext = [rest[i - len(head)] for i in picks if i >= len(head)]
    return ext, rank - len(ext)


def _verify_wrapping(U):
    X, k = U.X, U.k
    if k == 0:
        comps = _components(X)
        verts = set(U.cells)
        if len(verts) != len(comps) or any(not (verts & c) for c in comps):
            raise TreeError("0-wrapping tree must pick one vertex per component")
        return
    cols = X.boundary_cols(k)
    sel = [cols[j] for j in U.cells]
    sub = RationalSolver(sel, X.n_cells(k - 1))
    rank_full = RationalSolver(cols, X.n_cells(k - 1)).rank
    # H_{k-1} iso: boundaries of U span all boundaries
    if sub.rank != rank_full:
        raise TreeError("wrapping tree changes H_{k-1}")
    # H_k(U) -> H_k(X) iso: dim Z_k(U) = dim H_k(X) and no U-cycle bounds in X
    dim_zu = len(U.cells) - sub.rank
    up_cols = X.boundary_cols(k + 1)
    rank_up = RationalSolver(up_cols, X.n_cells(k)).rank if up_cols else 0
    dim_hx = X.n_cells(k) - rank_full - rank_up
    if dim_zu != dim_hx:
        raise TreeError("wrapping tree has wrong H_k rank")
    if dim_zu:
        zbasis = _cycles_of_subset(X, k, U.cells)
        _, rank = greedy_basis(up_cols + zbasis, X.n_cells(k))
        if rank != rank_up + len(zbasis):
            raise TreeError("a wrapping-tree cycle bounds in X")


def _cycles_of_subset(X, k, cells):
    cols = X.boundary_cols(k)
    rows = transpose_rows([cols[j] for j in cells], X.n_cells(k - 1))
    null = RationalSolver(rows, len(cells)).nullspace()
    out = []
    for vec in null:
        out.append({cells[pos]: v for pos, v in vec.items()})
    return out


def _components(X):
    n = X.n_cells(0)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in X.boundary_cols(1):     # the two vertices of each edge
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), set()).add(i)
    return list(comps.values())


# ---------------------------------------------------------------------------
# relative classes and gnarledness

def _relative_classes(X, k, tree_cells):
    """Basis cells of H_k(X,T;Q) and all k-cell classes in that basis.

    With M = [ext | tree | boundaries of (k+1)-cells] (rows are k-cells),
    the class of q is the ext-part of any solution of M x = e_q; it is
    unique because the columns of M span C_k and the ext columns are
    independent modulo the rest.  The class map q -> x_t is linear, so it
    is a row y_t of M's left inverse on the ext coordinates: M^T y_t = e_t,
    and class(q)_t = y_t[q].  One factorization of M^T and d solves thus
    give every class.  The rank of M comes from the greedy pass that chose
    ext, so with d = 0 nothing more is factored.
    """
    ext, base = _greedy_extension(X, k, tree_cells)
    d = len(ext)
    nk = X.n_cells(k)
    # ext completes the tree and the boundaries to a spanning set of C_k
    if base + d != nk:
        raise TreeError("relative class rank check failed: %d + %d != %d "
                        "k-cells" % (base, d, nk))
    if not d:
        return {"basis_cells": (), "classes": [()] * nk}
    cols = [{j: 1} for j in ext] + [{j: 1} for j in sorted(tree_cells)]
    cols += X.boundary_cols(k + 1)
    solver = RationalSolver(cols, nk)       # the rows of M^T
    if solver.rank != nk:
        raise TreeError("relative class solve failed")
    ys = []
    for t in range(d):
        y = solver.solve([1 if i == t else 0 for i in range(len(cols))])
        if y is None:
            raise TreeError("relative class solve failed")
        D, y = y
        ys.append([RAT(v, D) for v in y])
    classes = [tuple(y[q] for y in ys) for q in range(nk)]
    return {"basis_cells": tuple(ext), "classes": classes}


def _hnf_lattice_basis(vectors, d):
    """Columns of a Hermite-style basis of the lattice spanned by `vectors`.

    vectors: nonzero rational d-tuples.  Returns a list of d basis vectors
    (rational d-tuples) whose integer span contains every input vector.
    """
    denom, flat = scale_to_ints([x for v in vectors for x in v])
    cols = [flat[i:i + d] for i in range(0, len(flat), d)]

    def subtract(c, a, q):
        c[:] = [x - q * y for x, y in zip(c, a)]

    # integer column echelon: the Euclid step on each row in turn (unimodular,
    # so the integer span is preserved); cleared vectors go on to later rows
    basis = []
    work = [c[:] for c in cols]
    for row in range(d):
        rest = [c for c in work if not c[row]]
        piv, cleared = euclid_step([c for c in work if c[row]],
                                   lambda c: c[row], subtract)
        if piv is not None:
            basis.append(piv if piv[row] > 0 else [-x for x in piv])
        work = rest + cleared
    rank = RationalSolver([{i: v for i, v in enumerate(c) if v} for c in cols],
                          d).rank
    if len(basis) != rank:
        raise TreeError("lattice basis extraction failed")
    return [tuple(RAT(x, denom) for x in b) for b in basis]


def _coords_in_basis(classes, basis, d):
    """Coordinates of every class in the given basis (list of d-tuples)."""
    rows = transpose_rows([{i: v for i, v in enumerate(b) if v} for b in basis], d)
    solver = RationalSolver(rows, len(basis))
    out = []
    for cl in classes:
        if all(v == 0 for v in cl):
            out.append(tuple([ZERO] * len(basis)))
            continue
        D, y = scale_to_ints(cl)
        x = solver.solve(y)
        if x is None:
            raise TreeError("class outside the span of the basis")
        Dx, x = x
        out.append(tuple(RAT(v, D * Dx) for v in x))
    return out


def gnarledness_upper(T: SpanningTree, basis="greedy"):
    """max_a ||a||_1 over cell classes, an upper bound for the gnarledness.

    basis: "greedy" uses the greedy relative-class basis and raises
    BasisIntegralityError when some class is not an integer combination of
    it; "lattice" uses a Hermite basis of the class lattice, which always
    satisfies the integrality condition; an explicit list of d-tuples is
    used as-is (and verified).
    """
    rel = T.rel_data()
    d = len(rel["basis_cells"])
    if d == 0:
        return ZERO
    classes = rel["classes"]
    if basis == "greedy":
        coords = classes
    elif basis == "lattice":
        nonzero = [c for c in classes if any(v != 0 for v in c)]
        lat = _hnf_lattice_basis(nonzero, d)
        coords = _coords_in_basis(classes, lat, d)
    else:
        coords = _coords_in_basis(classes, list(basis), d)
    offenders = [q for q, c in enumerate(coords)
                 if not all(is_integral(v) for v in c)]
    if offenders:
        raise BasisIntegralityError(offenders)
    return max(sum(map(abs, c), ZERO) for c in coords)


def lifting_basis(T: SpanningTree):
    """(basis_vectors, G_upper, label) valid for the bounded-lift argument.

    Prefers the greedy basis; falls back to the lattice basis when greedy
    integrality fails.  basis_vectors are d-tuples in greedy coordinates.
    """
    rel = T.rel_data()
    d = len(rel["basis_cells"])
    if d == 0:
        return [], ZERO, "greedy"
    try:
        g = gnarledness_upper(T, basis="greedy")
        ident = [tuple(ONE if i == j else ZERO for i in range(d)) for j in range(d)]
        return ident, g, "greedy"
    except BasisIntegralityError:
        nonzero = [c for c in rel["classes"] if any(v != 0 for v in c)]
        lat = _hnf_lattice_basis(nonzero, d)
        g = gnarledness_upper(T, basis=lat)
        return lat, g, "lattice"


def gnarledness_exact_tiny(T: SpanningTree, denom_bound: int):
    """Minimum of max ||a||_1 over a finite family of candidate bases.

    Exhausts bases whose change-of-basis entries (relative to the lattice
    basis) have denominators <= denom_bound and numerators bounded by
    denom_bound times the largest class coordinate; only bases with every
    class an integer combination count.  Exact within that family; the
    family provably contains the optimum for rank <= 1.
    """
    rel = T.rel_data()
    d = len(rel["basis_cells"])
    if d == 0:
        return ZERO
    if d > 2:
        raise TreeError("exact gnarledness search supports rank <= 2 only")
    classes = rel["classes"]
    aset = sorted(set(c for c in classes if any(v != 0 for v in c)))
    if len(aset) > 8:
        raise TreeError("exact gnarledness search supports at most 8 classes")
    lat = _hnf_lattice_basis(aset, d)
    coords = _coords_in_basis(aset, lat, d)   # integer coordinates by construction
    maxco = max(max(abs(int(v)) for v in c) for c in coords)
    best = None
    nbound = denom_bound * max(1, maxco)
    if d == 1:
        cands = []
        for q in range(1, denom_bound + 1):
            for p in range(1, nbound + 1):
                if gcd(p, q) == 1:
                    cands.append(RAT(p, q))
        for v in sorted(set(cands)):
            vals = [c[0] / v for c in coords]
            if not all(is_integral(x) for x in vals):
                continue
            g = max(abs(x) for x in vals)
            if best is None or g < best:
                best = g
    else:
        rng = [RAT(p, q) for q in range(1, denom_bound + 1)
               for p in range(-nbound, nbound + 1)]
        rng = sorted(set(rng))
        for b00 in rng:
            for b01 in rng:
                for b10 in rng:
                    for b11 in rng:
                        det = b00 * b11 - b01 * b10
                        if not det:
                            continue
                        ok = True
                        g = ZERO
                        for c in coords:
                            x = (c[0] * b11 - c[1] * b01) / det
                            y = (-c[0] * b10 + c[1] * b00) / det
                            if not (is_integral(x) and is_integral(y)):
                                ok = False
                                break
                            n1 = abs(x) + abs(y)
                            if n1 > g:
                                g = n1
                        if ok and (best is None or g < best):
                            best = g
    if best is None:
        raise TreeError("search family is empty; raise denom_bound")
    return best


# ---------------------------------------------------------------------------
# the committed telescope complex (degree-two circle telescope)

def telescope_complex() -> SimplicialComplex:
    """12-vertex triangulation of S^1 x [0,1] / (x,1) ~ (-x,1).

    Bottom circle on vertices 0..7, top circle on 8..11; the cylinder wraps
    twice around the top.
    """
    from importlib import resources

    with resources.files("coiso.data").joinpath("telescope.json").open() as fh:
        data = json.load(fh)
    return build_complex([tuple(s) for s in data["simplices"]])


def telescope_circles_tree(X=None) -> SpanningTree:
    """Spanning tree keeping each boundary circle as a path: all but one
    edge of the bottom and top circles, plus one vertical connector."""
    if X is None:
        X = telescope_complex()
    edges = [(i, i + 1) for i in range(7)]          # bottom path, misses (0,7)
    edges += [(8, 9), (9, 10), (10, 11)]            # top path, misses (8,11)
    edges += [(0, 8)]
    idx = tuple(sorted(X.cell_index(1, e) for e in edges))
    T = SpanningTree(X, 1, idx)
    _verify_spanning(T)
    return T
