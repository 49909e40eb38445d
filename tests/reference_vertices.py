"""Reference ell-1 ball vertices: the sign-facet enumeration that found the
vertices of {b in span(basis): ||b||_1 <= 1} before the elementary-vector
enumeration in `filling._vertices_one_ball`, kept here as a test oracle."""

from itertools import combinations, product

from coiso.exact import RAT, ONE
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
