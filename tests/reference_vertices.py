"""Reference unit-ball vertices, kept as test oracles: the sign-facet
enumeration that found the vertices of {b in span(basis): ||b||_1 <= 1}
before the elementary-vector enumeration in `filling._vertices_one_ball`;
that elementary-vector enumeration as it was before it formed each vertex in
ints (every entry a RAT); the ell-infinity enumeration from before
`filling._vertices_inf_ball` formed basis . A^-1 once per coordinate set (one
solve per sign pattern); and both enumerations as they were before they were
read off the maximal minors of the basis (one solver per coordinate set).
`as_rats` turns the (q, ints) vertices of the enumerations into the RAT
tuples these oracles give."""

from itertools import combinations, product
from math import gcd

from coiso.exact import RAT, ONE, ZERO
from coiso.linalg import RationalSolver, scale_to_ints

from reference_solver import rat_solve


def as_rats(verts):
    """[tuple of RATs w / q] for the vertices (q, w) of an enumeration, after
    checking that each pair is reduced: int entries, q > 0 and
    gcd(q, *w) = 1."""
    out = []
    for q, w in verts:
        assert type(q) is int and q > 0 and all(type(v) is int for v in w)
        assert gcd(q, *w) == 1
        out.append(tuple(RAT(v, q) for v in w))
    return out


def vertices_one_ball_reference(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}, as a set of tuples.

    Facets are sign vectors eps with sum(eps_i b_i) = 1; a vertex activates d
    independent ones.  Sign classes are enumerated up to the antipodal pair.
    """
    d = len(basis)
    if d == 0:
        return set()
    all_eps = []
    for bits in product((1, -1), repeat=n - 1):
        all_eps.append((1,) + bits)
    rows_of = [{j: sum(RAT(e) * basis[j][i] for i, e in enumerate(eps) if basis[j][i])
                for j in range(d)} for eps in all_eps]
    rows_of = [{j: v for j, v in r.items() if v} for r in rows_of]
    verts = set()
    for picks in combinations(range(len(all_eps)), d):
        for orient in product((1, -1), repeat=d):
            rows = []
            for p, o in zip(picks, orient):
                rows.append({j: RAT(o) * v for j, v in rows_of[p].items()})
            solver = RationalSolver(rows, d)
            if solver.rank < d:
                continue
            x = rat_solve(solver, [ONE] * d)
            if x is None:
                continue
            b = [sum(basis[j][i] * x[j] for j in range(d)) for i in range(n)]
            if sum(v if v >= 0 else -v for v in b) <= 1:
                verts.add(tuple(b))
    return verts


def vertices_one_ball_elementary_reference(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}, as a set of tuples: the
    normalized elementary vectors, one kernel solve per (d-1)-set of
    coordinates, with b and its norm formed in RATs."""
    d = len(basis)
    if d == 0:
        return set()
    verts = set()
    for idxs in combinations(range(n), d - 1):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d - 1:
            continue
        x, = solver.nullspace()
        b = [sum((basis[j][i] * v for j, v in x.items()), ZERO) for i in range(n)]
        norm = sum(v if v >= 0 else -v for v in b)
        verts.add(tuple(v / norm for v in b))
        verts.add(tuple(-v / norm for v in b))
    return verts


def vertices_inf_ball_reference(basis, n):
    """Vertices of {w in span(basis): ||w||_inf <= 1}, as a set of tuples:
    one active-set solve per d-set of coordinates and sign pattern."""
    d = len(basis)
    if d == 0:
        return set()
    verts = set()
    for idxs in combinations(range(n), d):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d:
            continue
        for signs in product((1, -1), repeat=d):
            x = rat_solve(solver, [RAT(s) for s in signs])
            if x is None:
                continue
            w = [sum(basis[j][i] * x[j] for j in range(d)) for i in range(n)]
            if max(v if v >= 0 else -v for v in w) <= 1:
                verts.add(tuple(w))
    return verts


def vertices_inf_ball_per_set_reference(basis, n):
    """Vertices of {w in span(basis): ||w||_inf <= 1}, as a list: per d-set
    of coordinates with independent rows A, G = basis . A^-1 from one
    factorization and d unit solves, and each sign pattern's w the signed
    sum of the columns of G, in ints over one denominator."""
    d = len(basis)
    if d == 0:
        return []
    Db, bint = scale_to_ints([v for col in basis for v in col])
    bcols = [bint[j * n:(j + 1) * n] for j in range(d)]
    verts = set()
    for idxs in combinations(range(n), d):
        rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d:
            continue
        xs = [rat_solve(solver, [1 if s == t else 0 for s in range(d)])
              for t in range(d)]
        Dx, flat = scale_to_ints([v for x in xs for v in x])
        D = Db * Dx
        G = [[sum(bcols[j][i] * flat[t * d + j] for j in range(d)
                  if flat[t * d + j]) for i in range(n)] for t in range(d)]
        for signs in product((1, -1), repeat=d - 1):
            w = G[0]
            for s, g in zip(signs, G[1:]):
                w = [u + s * v for u, v in zip(w, g)]
            if max(v if v >= 0 else -v for v in w) <= D:
                q = gcd(D, *w)
                verts.add((D // q, tuple(v // q for v in w)))
                verts.add((D // q, tuple(-v // q for v in w)))
    return [[RAT(v, q) for v in w] for q, w in verts]


def vertices_one_ball_per_set_reference(basis, n):
    """Vertices of {b in span(basis): ||b||_1 <= 1}, as a list: one kernel
    solve per (d-1)-set of coordinates of rank d-1, each b formed in ints
    and kept over its reduced denominator."""
    d = len(basis)
    if d == 0:
        return []
    _, bint = scale_to_ints([v for col in basis for v in col])
    bcols = [bint[j * n:(j + 1) * n] for j in range(d)]
    verts = set()
    for idxs in combinations(range(n), d - 1):
        rows = [{j: bcols[j][i] for j in range(d) if bcols[j][i]} for i in idxs]
        solver = RationalSolver(rows, d)
        if solver.rank < d - 1:
            continue
        x, = solver.nullspace()
        _, xs = scale_to_ints(list(x.values()))
        terms = [(bcols[j], v) for j, v in zip(x, xs)]
        b = [sum(col[i] * v for col, v in terms) for i in range(n)]
        q = gcd(*b)
        norm = sum(v if v >= 0 else -v for v in b) // q
        verts.add((norm, tuple(v // q for v in b)))
        verts.add((norm, tuple(-v // q for v in b)))
    return [[RAT(v, q) for v in w] for q, w in verts]
