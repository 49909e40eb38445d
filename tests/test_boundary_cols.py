"""The boundary columns a complex keeps: built once per degree, shared by
every module, and left as built by every caller."""

import random
import sys
from collections import Counter

import pytest

from coiso import homalg
from coiso.complexes import (SimplicialComplex, build_grid_cube_complex,
                             simplex_boundary)
from coiso.exact import RAT
from coiso.filling import (FillingError, coiso_constants_tiny, get_fill_context,
                          integral_fill, sample_integral_coboundary)
from coiso.homalg import Cochain, apply_coboundary, norm_inf
from coiso.scheduler import degree_schedule
from coiso.subdivision import edgewise_subdivide
from coiso.trees import wrapping_tree


def _fresh_cols(X, k):
    """The k-th boundary columns from a new walk of faces_of."""
    if not 1 <= k <= X.dim:
        return [{} for _ in range(X.n_cells(k))]
    return [{X.cell_index(k - 1, f): sgn for f, sgn in X.faces_of(c)}
            for c in X.cells[k]]


def _complexes():
    return {"sphere-L4": edgewise_subdivide(simplex_boundary(3), 4).result,
            "grid-3-2": build_grid_cube_complex(3, 2),
            "dDelta3": simplex_boundary(3)}


@pytest.mark.parametrize("name", sorted(_complexes()))
def test_no_caller_mutates_the_shared_columns(name):
    X = _complexes()[name]
    degrees = range(-1, X.dim + 2)
    shared = {k: X.boundary_cols(k) for k in degrees}
    rng = random.Random(name)
    for k in range(1, X.dim + 1):
        # omega is the coboundary of a seeded integer cochain
        omega = apply_coboundary(X, Cochain(k - 1, {
            i: rng.randint(-2, 2) for i in range(X.n_cells(k - 1))}, "int"))
        fill = integral_fill(X, omega)
        get_fill_context(X, k).lift_data()
        if k == X.dim:
            layers = max(1, int(norm_inf(fill.alpha)))
            assert degree_schedule(X, omega, fill.alpha, layers)[1]["all_passed"]
        try:
            coiso_constants_tiny(X, k)
        except FillingError as e:       # past the duality caps
            assert "cap" in str(e)
    for k in range(X.dim):
        wrapping_tree(X, k)
    for k in degrees:
        assert X.boundary_cols(k) is shared[k]
        assert X.boundary_cols(k) == _fresh_cols(X, k)
        assert all(list(c) == sorted(c) for c in X.boundary_cols(k))


def _count_calls(monkeypatch, name="boundary_matrix"):
    """The list that records every call of homalg's name, by whichever coiso
    module makes it."""
    built = []
    original = getattr(homalg, name)

    def counting(*args):
        built.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "coiso" \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return built


def test_a_sweep_set_up_walks_each_cell_once_and_builds_no_boundary_matrix(
        monkeypatch):
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    walked = Counter()
    built = _count_calls(monkeypatch)
    faces_of = SimplicialComplex.faces_of

    def counting_faces_of(c):
        walked[c] += 1
        return faces_of(c)

    monkeypatch.setattr(SimplicialComplex, "faces_of",
                        staticmethod(counting_faces_of))
    ctx = get_fill_context(X, 2)
    ctx.integral_system()
    ctx.lift_data()
    integral_fill(X, sample_integral_coboundary(X, 2, random.Random(0)))
    assert built == []
    assert walked == Counter(X.cells[1] + X.cells[2])


def test_a_duality_check_builds_no_boundary_matrix(monkeypatch):
    # both sides read the ell-infinity problem's rows and columns; the check
    # used to build B_k once for the ell-1 side
    built = _count_calls(monkeypatch)
    assert coiso_constants_tiny(simplex_boundary(3), 2) == (RAT(1, 2), RAT(1, 2))
    assert built == []


def test_an_integral_fill_builds_no_coboundary_matrix(monkeypatch):
    # the integral system eliminates the shared columns boundary_cols(k)
    # as its rows, so no copy of them is made
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    built = _count_calls(monkeypatch, "coboundary_matrix")
    res = integral_fill(X, sample_integral_coboundary(X, 2, random.Random(0)))
    assert res.alpha.ring == "int" and not res.certificate.entries
    assert built == []
