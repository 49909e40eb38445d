import pytest

from coiso.exact import RAT
from coiso.complexes import (build_complex, build_grid_cube_complex,
                             cycle_complex, simplex_boundary, standard_simplex,
                             top_cells)
from coiso.homalg import betti_numbers
from coiso.subdivision import (SubdivisionError, edgewise_subdivide,
                               regularity_report)


def test_segment_by_three():
    S = edgewise_subdivide(standard_simplex(1), 3)
    assert [S.result.n_cells(k) for k in range(2)] == [4, 3]


def test_triangle_by_two_equilateral():
    S = edgewise_subdivide(standard_simplex(2), 2)
    assert len(top_cells(S.result)) == 4
    rep = regularity_report(S)
    assert rep["edge_length_classes"] == 1
    assert rep["min_edge_sq_times_L2"] == 1 == rep["max_edge_sq_times_L2"]


def test_tetrahedron_by_two_has_eight_cells():
    S = edgewise_subdivide(standard_simplex(3), 2)
    assert len(top_cells(S.result)) == 8


def test_tetrahedron_by_two_tiles_the_simplex():
    # brute-force check: rational sample points of the simplex each lie in
    # exactly one top cell (cells partition the simplex up to measure zero)
    S = edgewise_subdivide(standard_simplex(3), 2)
    coords = S.result.vertex_coords
    from coiso.linalg import RationalSolver
    from reference_solver import rat_solve
    samples = []
    for a in range(1, 7, 2):
        for b in range(1, 7 - a, 2):
            for c in range(1, 7 - a - b, 2):
                d = 7 - a - b - c
                if d > 0:
                    samples.append((RAT(a, 7), RAT(b, 7), RAT(c, 7), RAT(d, 7)))
    tops = top_cells(S.result)
    for pt in samples:
        owners = 0
        for cell in tops:
            rows = [dict() for _ in range(5)]
            for j, v in enumerate(cell):
                for i in range(4):
                    rows[i][j] = coords[v][i]
                rows[4][j] = RAT(1)
            sol = rat_solve(RationalSolver(rows, 4), list(pt) + [RAT(1)])
            if sol is not None and all(x > 0 for x in sol):
                owners += 1
        assert owners == 1, pt


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_top_cell_count_is_L_to_the_n(n):
    for L in range(1, 9 if n < 3 else 5):
        S = edgewise_subdivide(standard_simplex(n), L)
        assert len(top_cells(S.result)) == L ** n


def test_rejects_L_zero_and_high_dimension():
    with pytest.raises(SubdivisionError):
        edgewise_subdivide(standard_simplex(2), 0)
    with pytest.raises(SubdivisionError):
        edgewise_subdivide(build_complex([(0, 1, 2, 3, 4)]), 2)


# -- compositionality ----------------------------------------------------------

def combined_bary(outer, inner):
    out = []
    for w2 in outer.bary:
        acc = {}
        for u, wt in w2.items():
            for b, wb in inner.bary[u].items():
                acc[b] = acc.get(b, RAT(0)) + wt * wb
        out.append({b: v for b, v in acc.items() if v})
    return out


def canon_cells(X, keyof):
    return sorted(tuple(sorted(keyof[v] for v in c))
                  for k in range(X.dim + 1) for c in X.cells[k])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compositionality(n):
    for M in range(1, 5):
        for L in range(1, 5):
            if n == 3 and L * M > 8:
                continue
            S1 = edgewise_subdivide(standard_simplex(n), M)
            S2 = edgewise_subdivide(S1.result, L)
            comb = combined_bary(S2, S1)
            key2 = {i: tuple(sorted((b, int(v * L * M)) for b, v in w.items()))
                    for i, w in enumerate(comb)}
            SLM = edgewise_subdivide(standard_simplex(n), L * M)
            keyLM = {i: tuple(sorted((b, int(v * L * M)) for b, v in w.items()))
                     for i, w in enumerate(SLM.bary)}
            assert canon_cells(S2.result, key2) == canon_cells(SLM.result, keyLM)


@pytest.mark.parametrize("n,L", [(2, 3), (3, 2), (3, 3)])
def test_face_restriction(n, L):
    S = edgewise_subdivide(standard_simplex(n), L)
    for fdim in range(n):
        for f in S.base.cells[fdim]:
            carried = []
            for c in S.result.cells[fdim]:
                sup = set().union(*(set(S.bary[v]) for v in c))
                if sup <= set(f):
                    carried.append(c)
            face_sub = edgewise_subdivide(build_complex([f]), L)
            key = {i: tuple(sorted((b, int(v * L)) for b, v in w.items()))
                   for i, w in enumerate(S.bary)}
            key_f = {i: tuple(sorted((b, int(v * L)) for b, v in w.items()))
                     for i, w in enumerate(face_sub.bary)}
            got = sorted(tuple(sorted(key[v] for v in c)) for c in carried)
            want = sorted(tuple(sorted(key_f[v] for v in c))
                          for c in top_cells(face_sub.result))
            assert got == want


# -- regularity -----------------------------------------------------------------

def test_single_edge_class_for_triangles_any_L():
    for L in range(1, 7):
        rep = regularity_report(edgewise_subdivide(standard_simplex(2), L))
        assert rep["edge_length_classes"] == 1


def test_segment_normalized_lengths():
    for L in (1, 2, 5):
        rep = regularity_report(edgewise_subdivide(standard_simplex(1), L))
        assert rep["min_edge_sq_times_L2"] == 1 == rep["max_edge_sq_times_L2"]


def test_congruence_classes_stable_in_L_for_tetrahedra():
    r2 = regularity_report(edgewise_subdivide(standard_simplex(3), 2))
    r4 = regularity_report(edgewise_subdivide(standard_simplex(3), 4))
    assert r2["congruence_classes"] == r4["congruence_classes"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_edge_ratio_at_most_sqrt2(n):
    for L in range(1, 5):
        rep = regularity_report(edgewise_subdivide(standard_simplex(n), L))
        assert rep["max_edge_sq_times_L2"] <= 2 * rep["min_edge_sq_times_L2"]


def test_regularity_requires_coordinates():
    S = edgewise_subdivide(simplex_boundary(3), 2)
    with pytest.raises(SubdivisionError):
        regularity_report(S)


def test_regularity_refuses_unequal_base_edges():
    X = build_complex([(0, 1, 2)], vertex_coords={0: (0, 0), 1: (1, 0), 2: (0, 1)})
    with pytest.raises(SubdivisionError, match="base edges must all have the same length"):
        regularity_report(edgewise_subdivide(X, 2))


# -- provenance and gluing --------------------------------------------------------

def test_provenance_total_and_carriers_valid():
    S = edgewise_subdivide(simplex_boundary(3), 2)
    for k in range(S.result.dim + 1):
        for i in range(S.result.n_cells(k)):
            bk, bi = S.carrier(k, i)
            assert 0 <= bk <= S.base.dim
            assert 0 <= bi < S.base.n_cells(bk)


def test_subdividing_glued_complexes_preserves_homology():
    for X, betti in [(simplex_boundary(3), [1, 0, 1]),
                     (cycle_complex(4), [1, 1])]:
        for L in (2, 3):
            S = edgewise_subdivide(X, L)
            assert betti_numbers(S.result) == betti


def test_a_grid_is_refused():
    with pytest.raises(SubdivisionError, match="needs a simplicial complex, "
                       r"got GridCubeComplex\(n=2, r=2\)"):
        edgewise_subdivide(build_grid_cube_complex(2, 2), 2)


def test_a_subdivision_past_the_cap_is_refused_before_enumeration(monkeypatch):
    from coiso import subdivision

    def refuse(*args):
        raise AssertionError("cells were enumerated above the cap")
    monkeypatch.setattr(subdivision, "_staircase_tops", refuse)
    # L^2 top cells per triangle: 4 * 10^8 at L = 10^4, and 4 * 158^2 = 99856
    # is the largest dDelta3 under the cap
    for L in (10 ** 4, 159, 10 ** 30):
        with pytest.raises(SubdivisionError, match="subdivision cap of 100000"):
            edgewise_subdivide(simplex_boundary(3), L)


def test_the_subdivision_cap_counts_top_cells_per_dimension(monkeypatch):
    from coiso import subdivision

    # a triangle and an edge at L = 3: 9 + 3 top cells
    X = build_complex([(0, 1, 2), (2, 3)])
    monkeypatch.setattr(subdivision, "SUBDIVISION_CAP", 12)
    assert len(top_cells(edgewise_subdivide(X, 3).result)) == 12
    monkeypatch.setattr(subdivision, "SUBDIVISION_CAP", 11)
    with pytest.raises(SubdivisionError, match="would have 12 top cells"):
        edgewise_subdivide(X, 3)


def test_the_face_cap_admits_every_subdivision_under_the_cap():
    from coiso import complexes, subdivision

    # a top of a subdivided complex of dimension <= MAX_DIM has at most
    # 2^(MAX_DIM+1) - 1 faces
    worst = 2 ** (subdivision.MAX_DIM + 1) - 1
    assert subdivision.SUBDIVISION_CAP * worst <= complexes.FACE_CAP


def test_rp2_at_32_is_under_the_cap():
    rp2 = build_complex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                         (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])
    assert len(top_cells(edgewise_subdivide(rp2, 32).result)) == 10 * 32 ** 2
