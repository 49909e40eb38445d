import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coiso.complexes import (ComplexError, build_complex,
                             build_grid_cube_complex, complex_from_json_dict,
                             cycle_complex, incidence_sign, load_complex,
                             simplex_boundary, standard_simplex, top_cells)
from coiso import complexes
from coiso.homalg import boundary_matrix
from coiso.trees import telescope_complex

INPUTS = Path(__file__).parent / "golden" / "inputs"


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


def test_empty_top_dimensions_are_trimmed():
    X = complexes.SimplicialComplex([[(0,), (1,)], [(0, 1)], [], []])
    assert X.dim == 1 and cell_counts(X) == [2, 1]
    assert complexes.SimplicialComplex([[(0,)], []]).dim == 0


def test_a_missing_face_is_refused():
    with pytest.raises(ComplexError, match=r"face \(1,\) of \(0, 1\) is missing"):
        complexes.SimplicialComplex([[(0,)], [(0, 1)]])


def test_duplicate_top_simplex_rejected_with_index():
    with pytest.raises(ComplexError, match="#2"):
        build_complex([(0, 1), (1, 2), (2, 1)])


def test_repeated_vertices_rejected():
    with pytest.raises(ComplexError, match="repeated"):
        build_complex([(0, 0, 1)])


@pytest.mark.parametrize("v", [1.7, 1.0, "1", True, False, np.True_],
                         ids=["float", "integral-float", "str", "true", "false",
                              "numpy-bool"])
def test_non_integer_vertex_id_rejected_with_index(v):
    with pytest.raises(ComplexError, match="#1 is not a list of integer vertex ids"):
        build_complex([(0, 2, 3), (0, v, 2)])


def test_boolean_vertex_ids_are_not_vertices_0_and_1():
    with pytest.raises(ComplexError, match="#0 is not a list of integer vertex ids"):
        build_complex([(False, True, 2)])


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


def test_incidence_of_a_cell_above_the_top_dimension_is_refused():
    X = build_complex([(0, 1)])
    with pytest.raises(ComplexError, match="do not belong"):
        incidence_sign(X, (0, 1, 2), (0, 1))
    with pytest.raises(ComplexError, match="do not belong"):
        incidence_sign(X, (0,), ())


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


def test_a_grid_past_the_cell_cap_is_refused_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("cells were enumerated above the cap")
    monkeypatch.setattr(complexes, "product", refuse)
    # (2r+1)^n cells: 100001 for (1, 50000); n = 10^20 stops after 11 axes
    for n, r in [(1, 50000), (2, 10 ** 30), (10 ** 20, 1)]:
        with pytest.raises(ComplexError, match="grid cap of 100000 cells"):
            build_grid_cube_complex(n, r)
    with pytest.raises(ComplexError, match="grid cap"):
        complex_from_json_dict({"n": 2, "r": 10 ** 30})
    # the largest grids of the tests and of cube_tree are well inside it
    assert (2 * 4 + 1) ** 4 <= complexes.GRID_CELL_CAP


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


# -- one interface for both kinds --------------------------------------------

def _simplicial_corpus():
    """name -> complex: hand-built ones and every simplicial golden input."""
    out = {"triangle": build_complex([(0, 1, 2)]),
           "triangle-and-edge": build_complex([(0, 1, 2), (2, 3)]),
           "four-components": build_complex([(5, 6, 7), (0, 1, 2), (3, 4), (8,)]),
           "C4": cycle_complex(4), "dDelta3": simplex_boundary(3),
           "dDelta4": simplex_boundary(4), "Delta3": build_complex([(0, 1, 2, 3)]),
           "telescope": telescope_complex()}
    for f in sorted(INPUTS.glob("*.json")):
        if "simplices" in json.loads(f.read_text()):
            out[f.stem] = load_complex(f)
    return out


SIMPLICIAL = _simplicial_corpus()


def _old_boundary_entries(X, k):
    # the simplicial formula before faces_of: drop vertex pos, sign (-1)^pos
    lower = X.index[k - 1]
    for j, c in enumerate(X.cells[k]):
        for pos in range(len(c)):
            yield lower[c[:pos] + c[pos + 1:]], j, (-1) ** pos


def _old_boundary_cols_and_rows(X, k):
    cols = [{} for _ in range(X.n_cells(k))]
    rows = [{} for _ in range(X.n_cells(k - 1))]
    for i, j, sgn in _old_boundary_entries(X, k):
        cols[j][i] = rows[i][j] = sgn
    return cols, rows


def _old_top_cells(X):
    covered = {c[:i] + c[i + 1:] for k in range(1, X.dim + 1)
               for c in X.cells[k] for i in range(len(c))}
    return [c for k in range(X.dim + 1) for c in X.cells[k] if c not in covered]


@pytest.mark.parametrize("name", SIMPLICIAL)
def test_simplicial_boundaries_and_tops_equal_the_vertex_drop_formulas(name):
    X = SIMPLICIAL[name]
    for k in range(1, X.dim + 1):
        cols, rows = _old_boundary_cols_and_rows(X, k)
        assert X.boundary_cols(k) == cols
        assert all(list(c) == sorted(c) for c in X.boundary_cols(k))
        assert boundary_matrix(X, k).rows == rows
    assert top_cells(X) == _old_top_cells(X)


@pytest.mark.parametrize("name", SIMPLICIAL)
def test_simplicial_faces_of_drops_each_vertex_in_turn(name):
    X = SIMPLICIAL[name]
    for k in range(X.dim + 1):
        for c in X.cells[k]:
            assert X.cell_dim(c) == k
            assert X.faces_of(c) == [(c[:i] + c[i + 1:], (-1) ** i)
                                     for i in range(k + 1)]
            if k:
                assert [incidence_sign(X, c, f) for f, _ in X.faces_of(c)] \
                    == [(-1) ** i for i in range(k + 1)]


def test_top_cells_of_a_grid_are_its_top_dimensional_cubes():
    assert top_cells(build_grid_cube_complex(2, 1)) == [((0, 1), (0, 1))]
    G = build_grid_cube_complex(3, 2)
    assert top_cells(G) == G.cells[3]


def test_grid_incidence_through_the_module_function():
    G = build_grid_cube_complex(2, 1)
    sq = G.cells[2][0]
    signs = {f: incidence_sign(G, sq, f) for f in G.cells[1]}
    assert signs == dict(G.faces_of(sq))
    assert sorted(signs.values()) == [-1, -1, 1, 1]
    with pytest.raises(ComplexError, match="do not belong"):
        incidence_sign(G, ((0, 1), (0, 1), (0, 0)), ((0, 1), (0, 0), (0, 0)))


def test_a_closure_past_the_face_cap_is_refused_before_any_face(monkeypatch):
    def refuse(*args):
        raise AssertionError("faces were made above the cap")
    monkeypatch.setattr(complexes, "combinations", refuse)
    # one simplex on 40 vertex ids lists 2^40 - 1 faces
    with pytest.raises(ComplexError, match=r"would list 1099511627775 faces by "
                                           r"simplex #0, more than the face cap "
                                           r"of 1500000"):
        build_complex([list(range(40))])
    with pytest.raises(ComplexError, match="face cap"):
        complex_from_json_dict({"simplices": [list(range(21))]})


def test_the_face_cap_counts_every_top_with_repeats(monkeypatch):
    # a triangle lists 7 faces, an edge 3: 10 in all, the shared vertex twice
    monkeypatch.setattr(complexes, "FACE_CAP", 10)
    assert cell_counts(build_complex([(0, 1, 2), (2, 3)])) == [4, 4, 1]
    monkeypatch.setattr(complexes, "FACE_CAP", 9)
    with pytest.raises(ComplexError, match=r"10 faces by simplex #1, more than "
                                           r"the face cap of 9"):
        build_complex([(0, 1, 2), (2, 3)])


@pytest.mark.parametrize("n", [0, 1, 2])
def test_a_cycle_needs_three_vertices(n):
    with pytest.raises(ComplexError, match="at least 3 vertices"):
        cycle_complex(n)
