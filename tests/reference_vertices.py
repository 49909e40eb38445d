"""Reference unit-ball vertices, kept as test oracles: the sign-facet
enumeration that found the vertices of {b in span(basis): ||b||_1 <= 1}
before the elementary-vector enumeration in `filling._vertices_one_ball`;
that elementary-vector enumeration as it was before it formed each vertex in
ints (every entry a RAT); and the ell-infinity enumeration from before
`filling._vertices_inf_ball` formed basis . A^-1 once per coordinate set (one
solve per sign pattern)."""

from itertools import combinations, product

from coiso.exact import RAT, ONE, ZERO
from coiso.linalg import RationalSolver


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
            x = solver.solve([ONE] * d)
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
            x = solver.solve([RAT(s) for s in signs])
            if x is None:
                continue
            w = [sum(basis[j][i] * x[j] for j in range(d)) for i in range(n)]
            if max(v if v >= 0 else -v for v in w) <= 1:
                verts.add(tuple(w))
    return verts
