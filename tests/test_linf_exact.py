"""LinfProblem.solve_exact in its shifted (m + n) x (2n + 1) form against
the (m + 2n) x (4n + 1) formulation of reference_linf.py: the same certified
optimum, with D alpha = omega and ||alpha||_inf = t; and its own check of
the answer, which fails loudly."""

import pytest
from hypothesis import given, settings, strategies as st

from coiso import lp
from coiso.complexes import cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import coiso_constants_tiny, sample_integral_coboundary, trial_rng
from coiso.homalg import boundary_matrix
from coiso.linalg import scale_to_ints
from coiso.lp import LinfProblem, LPError
from coiso.subdivision import edgewise_subdivide
from reference_linf import linf_against_reference
from reference_vertices import as_rats
from test_simplex import DUALITY_CORPUS


@pytest.mark.parametrize("X,k", DUALITY_CORPUS, ids=["C4-1", "Delta2-1", "dDelta3-1",
                                                     "dDelta3-2", "dDelta4-2"])
def test_duality_corpus_vertices_match_the_reference(monkeypatch, X, k):
    # each vertex's optimum from the one tableau of LinfProblem.optima is
    # solve_exact's, which matches the reference's
    real = LinfProblem.optima
    omegas = []

    def checked(self, ws):
        ws = list(ws)
        omegas.extend(ws)
        values = real(self, ws)
        assert values == [linf_against_reference(self, scale_to_ints(w))[1]
                          for w in as_rats(ws)]
        return values

    monkeypatch.setattr(LinfProblem, "optima", checked)
    co, fi = coiso_constants_tiny(X, k)
    assert co == fi
    assert omegas


@pytest.mark.parametrize("L", [1, 2, 3])
def test_sampled_sphere_omegas_match_the_reference(L):
    X = edgewise_subdivide(simplex_boundary(3), L).result
    delta = boundary_matrix(X, 2).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    for trial in range(10):
        om = sample_integral_coboundary(X, 2, trial_rng(17, L, trial))
        _, t = linf_against_reference(P, om.ints(X.n_cells(2), ValueError, "omega"))
        assert t > 0


_X = st.one_of(st.integers(-3, 3),
               st.builds(RAT, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def small_images(draw):
    """A small integer D as sparse rows, and omega = D x for a drawn x."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dense = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    x = draw(st.lists(_X, min_size=n, max_size=n))
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    omega = [sum((v * x[j] for j, v in r.items()), RAT(0)) for r in rows]
    return rows, n, omega


@given(small_images())
@settings(max_examples=150, deadline=None)
def test_hypothesis_images_match_the_reference(data):
    rows, n, omega = data
    linf_against_reference(LinfProblem(rows, n), scale_to_ints(omega))


def _cycle_problem():
    # on a cycle every row of delta sums to 0, so D alpha = omega does not
    # see a shift of alpha by a constant
    delta = boundary_matrix(cycle_complex(4), 1).transpose()
    return LinfProblem(delta.rows, delta.ncols), (1, [1, 0, 0, -1])


def test_solve_exact_refuses_an_alpha_off_the_preimage(monkeypatch):
    # solve_exact reads its answer off the verified tableau
    real = lp._Tableau.verified

    def moved(self):
        (Dx, xs), value = real(self)
        return (Dx, [xs[0] + Dx] + xs[1:]), value

    P, om = _cycle_problem()
    assert P.solve_exact(om)[1] == RAT(1, 2)
    monkeypatch.setattr(lp._Tableau, "verified", moved)
    with pytest.raises(LPError, match="fails D alpha = omega"):
        P.solve_exact(om)


def test_solve_exact_refuses_a_norm_other_than_t(monkeypatch):
    real = lp._Tableau.verified

    def halved(self):
        x, value = real(self)
        return x, value / 2

    P, om = _cycle_problem()
    monkeypatch.setattr(lp._Tableau, "verified", halved)
    with pytest.raises(LPError, match=r"\|\|alpha\|\|_inf = t"):
        P.solve_exact(om)
