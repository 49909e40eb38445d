import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coiso.complexes import (ComplexError, build_complex,
                             build_grid_cube_complex, complex_from_json_dict,
                             cycle_complex, incidence_sign, simplex_boundary,
                             standard_simplex, top_cells)


def cell_counts(X):
    return [X.n_cells(k) for k in range(X.dim + 1)]


def test_face_closure_of_triangle():
    X = build_complex([(0, 1, 2)])
    assert cell_counts(X) == [3, 3, 1]


def test_cycle_c4():
    X = build_complex([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cell_counts(X) == [4, 4]


def test_boundary_of_three_simplex():
    X = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert cell_counts(X) == [4, 6, 4]


def test_duplicate_top_simplex_rejected_with_index():
    with pytest.raises(ComplexError, match="#2"):
        build_complex([(0, 1), (1, 2), (2, 1)])


def test_repeated_vertices_rejected():
    with pytest.raises(ComplexError, match="repeated"):
        build_complex([(0, 0, 1)])


@pytest.mark.parametrize("v", [1.7, 1.0, "1"], ids=["float", "integral-float", "str"])
def test_non_integer_vertex_id_rejected_with_index(v):
    with pytest.raises(ComplexError, match="#1 is not a list of integer vertex ids"):
        build_complex([(0, 2, 3), (0, v, 2)])


def test_numpy_integer_vertex_ids_accepted():
    X = build_complex([tuple(np.arange(3))])
    assert X.cells[0] == [(0,), (1,), (2,)]
    assert all(type(v) is int for c in X.cells[2] for v in c)


def test_incidence_signs():
    X = build_complex([(0, 1, 2)])
    assert incidence_sign(X, (0, 1, 2), (0, 2)) == -1
    assert incidence_sign(X, (0, 1, 2), (0, 1)) == 1
    assert incidence_sign(X, (0, 1, 2), (1, 2)) == 1


def test_incidence_non_face_is_zero():
    X = build_complex([(0, 1, 2), (3, 4)])
    assert incidence_sign(X, (0, 1, 2), (3, 4)) == 0


def test_incidence_dimension_mismatch_rejected():
    X = build_complex([(0, 1, 2)])
    with pytest.raises(ComplexError):
        incidence_sign(X, (0, 1, 2), (0,))


def test_cells_are_lexicographically_ordered_and_indexed():
    X = simplex_boundary(3)
    for k in range(X.dim + 1):
        assert X.cells[k] == sorted(X.cells[k])
        for i, c in enumerate(X.cells[k]):
            assert X.cell_index(k, c) == i


def test_face_closure_invariant_exhaustive():
    for X in [simplex_boundary(3), cycle_complex(5), build_complex([(0, 1, 2, 3)])]:
        for k in range(1, X.dim + 1):
            for c in X.cells[k]:
                for drop in range(len(c)):
                    face = c[:drop] + c[drop + 1:]
                    assert face in X.index[k - 1]


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_incidence_composition_is_zero(tris):
    tops = []
    seen = set()
    for t in tris:
        t = tuple(sorted(set(t)))
        if len(t) == 3 and t not in seen:
            seen.add(t)
            tops.append(t)
    if not tops:
        return
    X = build_complex(tops)
    for sigma in X.cells[2]:
        for mu in X.cells[0]:
            total = 0
            for tau in X.cells[1]:
                total += incidence_sign(X, sigma, tau) * incidence_sign(X, tau, mu)
            assert total == 0


# -- grid cubulations --------------------------------------------------------

def test_grid_1_3():
    G = build_grid_cube_complex(1, 3)
    assert [G.n_cells(k) for k in range(2)] == [4, 3]


def test_grid_2_2():
    G = build_grid_cube_complex(2, 2)
    assert [G.n_cells(k) for k in range(3)] == [9, 12, 4]


def test_grid_3_2_two_cells():
    assert build_grid_cube_complex(3, 2).n_cells(2) == 36


def brute_force_grid_count(n, r, k):
    # independent enumeration: every axis is a point 0..r or an interval
    count = 0
    options = [("p", j) for j in range(r + 1)] + [("i", j) for j in range(r)]
    for combo in product(options, repeat=n):
        if sum(1 for kind, _ in combo if kind == "i") == k:
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_grid_counts_match_brute_force(n, r):
    from math import comb
    G = build_grid_cube_complex(n, r)
    for k in range(n + 1):
        expected = comb(n, k) * r ** k * (r + 1) ** (n - k)
        assert G.n_cells(k) == expected == brute_force_grid_count(n, r, k)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ComplexError):
        build_grid_cube_complex(0, 2)
    with pytest.raises(ComplexError):
        build_grid_cube_complex(2, 0)


def test_grid_incidence_dimension_mismatch():
    G = build_grid_cube_complex(2, 1)
    sq = G.cells[2][0]
    v = G.cells[0][0]
    with pytest.raises(ComplexError):
        G.incidence_sign(sq, v)


def test_json_roundtrip():
    X = simplex_boundary(3)
    Y = complex_from_json_dict(json.loads(json.dumps(X.to_json_dict())))
    assert Y.cells == X.cells
    G = build_grid_cube_complex(2, 3)
    H = complex_from_json_dict(G.to_json_dict())
    assert H.cells == G.cells


def test_top_cells_of_mixed_complex():
    X = build_complex([(0, 1, 2), (2, 3)])
    assert top_cells(X) == [(2, 3), (0, 1, 2)]


def test_standard_simplex_coords_unit_edges():
    X = standard_simplex(2)
    c = X.vertex_coords
    for a, b in X.cells[1]:
        d = sum((x - y) ** 2 for x, y in zip(c[a], c[b]))
        assert d == 2
