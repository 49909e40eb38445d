"""The warm re-solve of exact_optima against cold exact_simplex runs: the
same certified value for every right-hand side, or the same error; the
values of the duality corpus against the cold ell-infinity and ell-1
solves; and the pivots a duality check saves."""

import random

import pytest

from coiso import lp
from coiso.complexes import simplex_boundary
from coiso.exact import RAT
from coiso.filling import (_image_basis, _inf_problem, _one_per_pair,
                           _vertices_inf_ball, _vertices_one_ball,
                           coiso_constants_tiny)
from coiso.homalg import boundary_matrix
from coiso.lp import Infeasible, LPError, exact_optima, exact_simplex, l1_min, l1_optima
from reference_linf import linf_against_reference
from test_simplex import DUALITY_CORPUS


def _entry(rng):
    u = rng.random()
    if u < 0.35:
        return 0
    if u < 0.8:
        return rng.randint(-3, 3)
    return RAT(rng.randint(-5, 5), rng.randint(1, 4))


def _random_family(rng):
    """(A, c, bs): a small dense A, often with a row that is a multiple of
    another (rank-deficient), a cost c that is mostly >= 0, and right-hand
    sides A x for x >= 0 with rational entries, one of them often replaced
    by a b with no solution."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    A = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        A[-1] = [rng.choice((-2, 1, RAT(1, 2))) * v for v in A[0]]
    c = [abs(_entry(rng)) if rng.random() < 0.8 else _entry(rng) for _ in range(n)]
    bs = []
    for _ in range(rng.randint(2, 8)):
        x = [abs(_entry(rng)) for _ in range(n)]
        bs.append([sum((a * v for a, v in zip(row, x)), 0) for row in A])
    if rng.random() < 0.3:
        bs.insert(rng.randrange(1, len(bs)), [_entry(rng) for _ in range(m)])
    return A, c, bs


def _cold(A, b, c):
    try:
        return exact_simplex(A, b, c)[1]
    except LPError as e:
        return type(e)


def test_random_families_match_cold_solves(monkeypatch):
    rng = random.Random("exact-optima")
    kinds = {}
    warm = 0
    # pivots of the dual simplex, made inside _Tableau.resolve
    inside = []
    dual_pivots = []
    resolve, pivot = lp._Tableau.resolve, lp._pivot

    def traced_resolve(self, b):
        inside.append(True)
        try:
            return resolve(self, b)
        finally:
            inside.pop()

    def traced_pivot(*args):
        if inside:
            dual_pivots.append(args[2:4])
        return pivot(*args)

    monkeypatch.setattr(lp._Tableau, "resolve", traced_resolve)
    monkeypatch.setattr(lp, "_pivot", traced_pivot)
    for _ in range(600):
        A, c, bs = _random_family(rng)
        cold = [_cold(A, b, c) for b in bs]
        errors = [v for v in cold if isinstance(v, type)]
        if not errors:
            assert exact_optima(A, c, bs) == cold
            kinds["optimal"] = kinds.get("optimal", 0) + 1
            warm += len(bs) - 1
            continue
        # the first refused right-hand side raises its cold error; the ones
        # before it keep their cold values
        k = cold.index(errors[0])
        with pytest.raises(errors[0]):
            exact_optima(A, c, bs)
        assert exact_optima(A, c, bs[:k]) == cold[:k]
        kinds[errors[0].__name__] = kinds.get(errors[0].__name__, 0) + 1
        warm += k
    assert set(kinds) == {"optimal", "Infeasible", "Unbounded"}
    assert min(kinds.values()) >= 30
    assert warm >= 1500 and len(dual_pivots) >= 500


def test_values_do_not_depend_on_the_order():
    rng = random.Random("exact-optima-order")
    for _ in range(100):
        A, c, bs = _random_family(rng)
        try:
            values = exact_optima(A, c, bs)
        except LPError:
            continue
        order = list(range(len(bs)))
        rng.shuffle(order)
        assert exact_optima(A, c, [bs[i] for i in order]) == [values[i] for i in order]


def test_a_row_that_keeps_its_artificial_refuses_an_inconsistent_b():
    # x0 + x1 = b0 and 2 x0 + 2 x1 = b1: the second row keeps its artificial
    A, c = [[1, 1], [2, 2]], [1, 2]
    tab = lp._Tableau(A, [1, 2], c)
    assert tab.basis[1] >= 2
    with pytest.raises(Infeasible):
        tab.resolve([1, 3])
    assert _cold(A, [1, 3], c) is Infeasible
    # the tableau still answers the next right-hand side
    tab.resolve([RAT(5, 2), 5])
    assert tab.verified() == exact_simplex(A, [RAT(5, 2), 5], c)


def test_a_leaving_row_without_a_negative_entry_is_infeasible():
    A, c = [[1, 1]], [1, 1]
    tab = lp._Tableau(A, [1], c)
    with pytest.raises(Infeasible):
        tab.resolve([-1])
    assert _cold(A, [-1], c) is Infeasible


def test_a_warm_answer_is_verified():
    A, c = [[1, 2, 1], [1, -1, 0]], [3, 1, 1]
    tab = lp._Tableau(A, [2, 1], c)
    tab.resolve([4, 1])
    assert tab.verified()[1] == 6 == exact_simplex(A, [4, 1], c)[1]
    # one more on the basic variable of row 0: A x = b fails
    T = tab.T
    T[0][-1] += T[0][tab.basis[0]]
    with pytest.raises(LPError, match="primal verification failed"):
        tab.verified()
    # one more on y_0: y.b = value fails
    tab.resolve([4, 1])
    tab.z[0][tab.n] += tab.z[1]
    with pytest.raises(LPError, match="dual objective mismatch"):
        tab.verified()


def test_a_right_hand_side_per_row_on_resolve():
    tab = lp._Tableau([[1, 1]], [1], [1, 1])
    with pytest.raises(LPError, match="1 constraint rows but 2 right-hand sides"):
        tab.resolve([1, 2])


# -- the duality corpus ------------------------------------------------------------

@pytest.mark.parametrize("X,k", DUALITY_CORPUS, ids=["C4-1", "Delta2-1", "dDelta3-1",
                                                     "dDelta3-2", "dDelta4-2"])
def test_every_corpus_vertex_matches_the_cold_solves(X, k):
    Bk = boundary_matrix(X, k)
    problem = _inf_problem(Bk.transpose())
    ws = _vertices_inf_ball(_image_basis(problem.rows, problem.n, problem.m), problem.m)
    assert problem.optima(ws) == [linf_against_reference(problem, w)[1] for w in ws]
    bs = _vertices_one_ball(_image_basis(Bk.rows, Bk.ncols, Bk.nrows), Bk.nrows)
    assert (l1_optima(Bk.rows, Bk.ncols, bs)
            == [l1_min(Bk.rows, Bk.ncols, b)[1] for b in bs])
    assert len(_one_per_pair(ws)) < len(ws) and len(_one_per_pair(bs)) < len(bs)


def test_a_duality_check_on_dDelta3_takes_at_most_40_pivots(monkeypatch):
    # 72 when each vertex's LP was a cold two-phase solve; 30 with one tableau
    # per side
    real = lp._pivot
    pivots = []

    def counted(*args):
        pivots.append(args[2:4])
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    assert coiso_constants_tiny(simplex_boundary(3), 2) == (RAT(1, 2), RAT(1, 2))
    assert 0 < len(pivots) <= 40
