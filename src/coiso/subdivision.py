"""L-fold edgewise subdivision with regularity diagnostics.

Scheme for one n-simplex with ordered vertices v_0 < ... < v_n: in the
coordinates t_1 >= ... >= t_n (integer heights between 0 and L), the
subdivision is the unit-grid staircase triangulation restricted to the order
region.  Vertices are the lattice points of the region; top cells are the
monotone lattice paths c, c+e_{pi(1)}, ..., c+e_{pi(1)}+...+e_{pi(n)} whose
points all satisfy L >= t_1 >= ... >= t_n >= 0.  Equivalently, vertices are
integer barycentric weight vectors summing to L, which is the canonical name
used for gluing across shared faces.

This realizes an L-fold regular subdivision that is compositional (L after M
equals LM) and restricts to the same scheme on every face; both properties
are exercised by the test suite rather than assumed.
"""

from __future__ import annotations

from itertools import permutations, product

from .exact import RAT
from .complexes import SimplicialComplex, build_complex, top_cells

MAX_DIM = 3


class SubdivisionError(ValueError):
    pass


def _weights_from_heights(base_verts, t, L):
    """Integer barycentric weights of a lattice point, zeros dropped."""
    n = len(base_verts) - 1
    w = [L - t[0]] if n else [L]
    for i in range(n - 1):
        w.append(t[i] - t[i + 1])
    if n:
        w.append(t[n - 1])
    return tuple((v, wi) for v, wi in zip(base_verts, w) if wi)


def _staircase_tops(n, L):
    """Top cells of the order-region triangulation, as tuples of t-points."""
    if n == 0:
        return [((),)]
    def ok(t):
        return L >= t[0] and all(t[i] >= t[i + 1] for i in range(n - 1)) \
            and t[-1] >= 0
    tops = []
    for c in product(range(L), repeat=n):
        if not ok(c):       # every path starts at c
            continue
        for pi in permutations(range(n)):
            pts = [tuple(c)]
            for ax in pi:
                prev = pts[-1]
                pts.append(prev[:ax] + (prev[ax] + 1,) + prev[ax + 1:])
            if all(ok(p) for p in pts):
                tops.append(tuple(pts))
    return tops


class SubdividedComplex:
    """Result of edgewise_subdivide, with provenance back to the base.

    bary[v] maps base vertex id -> exact weight (denominator divides L) for
    every result vertex v.  provenance[(k, i)] is the (dim, index) of the
    smallest base cell carrying result cell i of dimension k.
    """

    def __init__(self, base, L, result, bary, provenance):
        self.base = base
        self.L = L
        self.result = result
        self.bary = bary
        self.provenance = provenance

    def carrier(self, k, i):
        return self.provenance[(k, i)]

    def provenance_json_dict(self):
        verts = []
        for w in self.bary:
            verts.append(sorted([v, int(wt * self.L)] for v, wt in w.items()))
        cells = {}
        for k in range(self.result.dim + 1):
            cells[str(k)] = [list(self.provenance[(k, i)])
                             for i in range(self.result.n_cells(k))]
        return {"L": self.L, "base": self.base.to_json_dict(),
                "vertices": verts, "cells": cells}


def edgewise_subdivide(X: SimplicialComplex, L: int) -> SubdividedComplex:
    """L-fold edgewise subdivision of a complex of dimension <= 3."""
    if L < 1:
        raise SubdivisionError(f"subdivision parameter must be >= 1, got {L}")
    if X.dim > MAX_DIM:
        raise SubdivisionError(f"dimension {X.dim} unsupported (cap {MAX_DIM})")

    top_keyed = []
    for c in top_cells(X):
        n = len(c) - 1
        for pts in _staircase_tops(n, L):
            top_keyed.append(tuple(sorted(_weights_from_heights(c, t, L)
                                          for t in pts)))

    # Vertex ids are assigned along a linear extension of the weight-shift
    # dominance order (suffix sums of weights over descending base vertices).
    # Within every cell this is the monotone-path order, which is exactly what
    # makes re-subdivision compose to the LM-fold subdivision.
    base_verts = sorted(v for (v,) in X.cells[0])
    desc = base_verts[::-1]

    def profile(key):
        w = dict(key)
        acc = 0
        out = []
        for u in desc:
            acc += w.get(u, 0)
            out.append(acc)
        return tuple(out)

    keys = sorted({k for cell in top_keyed for k in cell},
                  key=lambda k: (profile(k), k))
    key_id = {k: i for i, k in enumerate(keys)}

    coords = None
    if X.vertex_coords is not None:
        dim_amb = len(next(iter(X.vertex_coords.values())))
        coords = {}
        for key, i in key_id.items():
            pt = [RAT(0)] * dim_amb
            for v, w in key:
                cv = X.vertex_coords[v]
                for a in range(dim_amb):
                    pt[a] += RAT(w, L) * cv[a]
            coords[i] = tuple(pt)

    result = build_complex([tuple(sorted(key_id[k] for k in cell))
                            for cell in top_keyed], vertex_coords=coords)

    bary = [dict() for _ in range(result.n_cells(0))]
    support = {}
    for key, i in key_id.items():
        bary[i] = {v: RAT(w, L) for v, w in key}
        support[i] = frozenset(v for v, _ in key)

    base_index = {}
    for k in range(X.dim + 1):
        for i, c in enumerate(X.cells[k]):
            base_index[frozenset(c)] = (k, i)

    provenance = {}
    for k in range(result.dim + 1):
        for i, c in enumerate(result.cells[k]):
            sup = frozenset().union(*(support[v] for v in c))
            if sup not in base_index:
                raise SubdivisionError(f"no base carrier for cell {c}")
            provenance[(k, i)] = base_index[sup]

    return SubdividedComplex(X, L, result, bary, provenance)


def _sq_dist(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def regularity_report(S: SubdividedComplex) -> dict:
    """Edge-length and congruence-class statistics of a subdivision.

    Lengths are reported as exact squared ratios against the (common) base
    edge length, scaled by L^2, so a perfectly uniform subdivision reports
    min = max = 1.  Class counts must not depend on L for a regular scheme.
    """
    X = S.base
    if X.vertex_coords is None:
        raise SubdivisionError("regularity_report needs base vertex coordinates")
    base_sq = {_sq_dist(X.vertex_coords[a], X.vertex_coords[b])
               for a, b in X.cells[1]} if X.dim >= 1 else set()
    if len(base_sq) != 1:
        raise SubdivisionError("base edges must all have the same length")
    unit = next(iter(base_sq))

    R = S.result
    coords = R.vertex_coords
    Lsq = S.L * S.L
    edge_sq = sorted({_sq_dist(coords[a], coords[b]) * Lsq / unit
                      for a, b in R.cells[1]})
    tops = top_cells(R)
    classes = set()
    for c in tops:
        sqs = sorted(_sq_dist(coords[a], coords[b]) * Lsq / unit
                     for i, a in enumerate(c) for b in c[i + 1:])
        classes.add(tuple(sqs))

    return {
        "edge_length_classes": len(edge_sq),
        "min_edge_sq_times_L2": edge_sq[0],
        "max_edge_sq_times_L2": edge_sq[-1],
        "congruence_classes": len(classes),
    }

