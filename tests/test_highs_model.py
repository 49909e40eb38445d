"""LinfProblem's HiGHS model against scipy.optimize.linprog as the oracle,
and the bulk sign draw of the sampler against random.choice."""

import random

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from coiso.complexes import cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import (_draw_signs, get_fill_context, integral_fill,
                           sample_integral_coboundary, trial_rng)
from coiso import filling
from coiso.homalg import boundary_matrix
from coiso.lp import _ATTEMPTS, LinfProblem
from coiso.subdivision import edgewise_subdivide

METHODS = [method for method, _ in _ATTEMPTS]


def linprog_reference(P, omega, method):
    """The LP of P for omega through linprog, as LinfProblem set it up
    before it built its own HiGHS model."""
    n, m = P.n, P.m
    data, ri, ci = [], [], []
    for i, r in enumerate(P.rows):
        for j, v in r.items():
            ri.append(i)
            ci.append(j)
            data.append(float(v))
    A_eq = sparse.csr_matrix((data, (ri, ci)), shape=(m, n + 1))
    ri2, ci2, d2 = [], [], []
    for j in range(n):
        ri2 += [2 * j, 2 * j, 2 * j + 1, 2 * j + 1]
        ci2 += [j, n, j, n]
        d2 += [1.0, -1.0, -1.0, -1.0]
    A_ub = sparse.csr_matrix((d2, (ri2, ci2)), shape=(2 * n, n + 1))
    cvec = np.zeros(n + 1)
    cvec[n] = 1.0
    return linprog(cvec, A_ub=A_ub, b_ub=np.zeros(2 * n), A_eq=A_eq,
                   b_eq=np.array([float(v) for v in omega]),
                   bounds=[(None, None)] * n + [(0, None)], method=method)


def _sphere(L):
    return edgewise_subdivide(simplex_boundary(3), L).result


@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_highs_model_matches_linprog_bitwise(L):
    X = _sphere(L)
    P = get_fill_context(X, 2).lp
    for t in range(25):
        omega = sample_integral_coboundary(X, 2, trial_rng(31, L, t)).dense(X.n_cells(2))
        for method in METHODS:
            got = P._float_solve(omega, method)
            want = linprog_reference(P, omega, method)
            assert want.status == got.status == 0
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.marginals, want.ineqlin.marginals)


def test_highs_model_matches_linprog_on_rational_right_hand_sides():
    X = cycle_complex(5)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    rng = random.Random(4)
    for _ in range(10):
        # a coboundary with denominators: delta of a rational 0-cochain
        a = [RAT(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)]
        omega = [sum(v * a[j] for j, v in r.items()) for r in P.rows]
        for method in METHODS:
            got = P._float_solve(omega, method)
            want = linprog_reference(P, omega, method)
            assert (got.status == 0) == (want.status == 0)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.marginals, want.ineqlin.marginals)


def test_one_highs_instance_per_method_over_twenty_solves(monkeypatch):
    made = []
    real = _core._Highs

    def counted():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(_core, "_Highs", counted)
    X = _sphere(2)
    ctx = get_fill_context(X, 2)
    P = LinfProblem(ctx.delta.rows, ctx.delta.ncols)
    for t in range(20):
        omega = sample_integral_coboundary(X, 2, trial_rng(32, 2, t)).dense(X.n_cells(2))
        for method in METHODS:
            P._float_solve(omega, method)
        P.solve(omega)
    assert len(made) == len(METHODS)
    assert sorted(P._solvers) == sorted(METHODS)
    assert all(any(h is m for m in made) for h in P._solvers.values())


def test_omega_beyond_float_range_raises_overflow_and_keeps_the_model():
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    big = 10 ** 400
    for method in METHODS:
        with pytest.raises(OverflowError):
            P._float_solve([big, 0, 0, -big], method)
    _, t, mode = P.solve([big, 0, 0, -big])
    assert (mode, t) == ("simplex", RAT(big, 2))
    _, t, mode = P.solve([1, 0, 0, -1])
    assert (mode, t) == ("reconstructed", RAT(1, 2))


@pytest.mark.parametrize("n", [0, 1, 7, 96, 1024, 5000])
def test_draw_signs_is_random_choice_drawn_in_bulk(n):
    for seed in range(300):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = [want_rng.choice((-1, 0, 1)) for _ in range(n)]
        got = _draw_signs(got_rng, n)
        assert got == want
        assert all(type(v) is int for v in got)
        assert got_rng.getstate() == want_rng.getstate()


def test_sampler_draws_what_the_choice_loop_drew():
    X = _sphere(4)
    nk = X.n_cells(2)
    for t in range(20):
        rng = trial_rng(33, 4, t)
        omega = sample_integral_coboundary(X, 2, rng)
        # the same stream through choice: the first accepted draw, then the
        # generator where the sampler left it
        ref = trial_rng(33, 4, t)
        ctx = get_fill_context(X, 2)
        while True:
            vals = [ref.choice((-1, 0, 1)) for _ in range(nk)]
            if (any(vals) and ctx.coboundary_witness(vals) is None
                    and ctx.integral_system().solve(vals) is not None):
                break
        assert omega.dense(nk) == vals
        assert rng.getstate() == ref.getstate()


def test_integral_fill_checks_the_coboundary_once(monkeypatch):
    X = _sphere(2)
    omega = sample_integral_coboundary(X, 2, trial_rng(34, 2, 0))
    calls = []
    real = filling.FillContext.coboundary_witness

    def counted(self, dense):
        calls.append(1)
        return real(self, dense)

    monkeypatch.setattr(filling.FillContext, "coboundary_witness", counted)
    integral_fill(X, omega)
    assert len(calls) == 1
