"""The warm re-solve of exact_optima against cold exact_simplex runs: the
same value for every right-hand side, or the same error; the same pivots
and values as the re-solve that rescaled every row (reference_simplex's
`reference_optima`); the values of the duality corpus against the cold
ell-infinity and ell-1 solves; the pivots a duality check saves; and the
one dual that exact_optima checks, at its largest value."""

import random

import pytest

from coiso import lp
from coiso.complexes import simplex_boundary
from coiso.exact import RAT
from coiso.filling import (_image_basis, _inf_problem, _one_per_pair,
                           _vertices_inf_ball, _vertices_one_ball,
                           coiso_constants_tiny)
from coiso.homalg import boundary_matrix
from coiso.linalg import scale_to_ints
from coiso.lp import Infeasible, LPError, exact_optima, exact_simplex, l1_min, l1_optima
from reference_linf import linf_against_reference
from reference_simplex import optima_against_reference
from reference_vertices import as_rats
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


def _pairs(bs):
    """The right-hand sides as the (D, ints) pairs exact_optima reads."""
    return [scale_to_ints(b) for b in bs]


def _verified_rats(tab):
    """tab.verified() with x as RATs, as exact_simplex returns it."""
    (Dx, xs), value = tab.verified()
    return [RAT(v, Dx) for v in xs], value


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
            assert exact_optima(A, c, _pairs(bs)) == cold
            kinds["optimal"] = kinds.get("optimal", 0) + 1
            warm += len(bs) - 1
            continue
        # the first refused right-hand side raises its cold error; the ones
        # before it keep their cold values
        k = cold.index(errors[0])
        with pytest.raises(errors[0]):
            exact_optima(A, c, _pairs(bs))
        assert exact_optima(A, c, _pairs(bs[:k])) == cold[:k]
        kinds[errors[0].__name__] = kinds.get(errors[0].__name__, 0) + 1
        warm += k
    assert set(kinds) == {"optimal", "Infeasible", "Unbounded"}
    assert min(kinds.values()) >= 30
    assert warm >= 1500 and len(dual_pivots) >= 500


def test_random_families_keep_the_rescaling_pivots():
    # the 600 families above, against the re-solve that rescaled every row
    rng = random.Random("exact-optima")
    outcomes = {}
    denominators = 0
    for _ in range(600):
        A, c, bs = _random_family(rng)
        pairs = _pairs(bs)
        denominators += sum(D > 1 for D, _ in pairs[1:])
        try:
            optima_against_reference(A, c, pairs)
            kind = "optimal"
        except LPError as e:
            kind = type(e).__name__
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"optimal", "Infeasible", "Unbounded"}
    assert min(outcomes.values()) >= 30 and denominators >= 300


def test_values_do_not_depend_on_the_order():
    rng = random.Random("exact-optima-order")
    for _ in range(100):
        A, c, bs = _random_family(rng)
        try:
            values = exact_optima(A, c, _pairs(bs))
        except LPError:
            continue
        order = list(range(len(bs)))
        rng.shuffle(order)
        assert (exact_optima(A, c, _pairs([bs[i] for i in order]))
                == [values[i] for i in order])


def test_a_row_that_keeps_its_artificial_refuses_an_inconsistent_b():
    # x0 + x1 = b0 and 2 x0 + 2 x1 = b1: the second row keeps its artificial
    A, c = [[1, 1], [2, 2]], [1, 2]
    tab = lp._Tableau(A, (1, [1, 2]), c)
    assert tab.basis[1] >= 2
    with pytest.raises(Infeasible):
        tab.resolve((1, [1, 3]))
    assert _cold(A, [1, 3], c) is Infeasible
    # the tableau still answers the next right-hand side
    tab.resolve((2, [5, 10]))
    assert _verified_rats(tab) == exact_simplex(A, [RAT(5, 2), 5], c)


def test_a_leaving_row_without_a_negative_entry_is_infeasible():
    A, c = [[1, 1]], [1, 1]
    tab = lp._Tableau(A, (1, [1]), c)
    with pytest.raises(Infeasible):
        tab.resolve((1, [-1]))
    assert _cold(A, [-1], c) is Infeasible


def test_a_warm_answer_is_verified():
    A, c = [[1, 2, 1], [1, -1, 0]], [3, 1, 1]
    tab = lp._Tableau(A, (1, [2, 1]), c)
    tab.resolve((1, [4, 1]))
    assert tab.verified()[1] == 6 == exact_simplex(A, [4, 1], c)[1]
    # one more on the basic variable of row 0: A x = b fails
    T = tab.T
    T[0][-1] += T[0][tab.basis[0]]
    with pytest.raises(LPError, match="primal verification failed"):
        tab.verified()
    # one more on y_0: y.b = value fails
    tab.resolve((1, [4, 1]))
    tab.z[0][tab.n] += tab.z[1]
    with pytest.raises(LPError, match="dual objective mismatch"):
        tab.verified()


def test_a_basis_past_the_ratio_test_fails_the_sign_check():
    # min x0 s.t. x0 + x1 = 1, 2 x0 + x2 = 1: the optimum is x1 = x2 = 1.
    # x0 enters; the ratio test picks the row of x2 (1/2 < 1), so pivoting
    # on the row of x1 gives a basis with x0 = 1, x2 = -1: A x = b holds,
    # x >= 0 does not
    A, c = [[1, 1, 0], [2, 0, 1]], [1, 0, 0]
    tab = lp._Tableau(A, (1, [1, 1]), c)
    assert tab.basis == [1, 2] and tab.verified()[1] == 0
    lp._pivot(tab.T, tab.basis, 0, 0, (tab.z,))
    with pytest.raises(LPError, match="negativity crept in"):
        tab.verified()
    with pytest.raises(LPError, match="negativity crept in"):
        tab.primal()


def test_a_right_hand_side_per_row_on_resolve():
    tab = lp._Tableau([[1, 1]], (1, [1]), [1, 1])
    with pytest.raises(LPError, match="1 constraint rows but 2 right-hand sides"):
        tab.resolve((1, [1, 2]))


# -- the duality corpus ------------------------------------------------------------

@pytest.mark.parametrize("X,k", DUALITY_CORPUS, ids=["C4-1", "Delta2-1", "dDelta3-1",
                                                     "dDelta3-2", "dDelta4-2"])
def test_every_corpus_vertex_matches_the_cold_solves(X, k):
    Bk = boundary_matrix(X, k)
    problem = _inf_problem(Bk.transpose().rows)
    ws = _vertices_inf_ball(_image_basis(problem.cols, problem.m), problem.m)
    assert (problem.optima(ws)
            == [linf_against_reference(problem, scale_to_ints(w))[1]
                for w in as_rats(ws)])
    bs = _vertices_one_ball(_image_basis(Bk.col_dicts(), Bk.nrows), Bk.nrows)
    assert (l1_optima(Bk.rows, Bk.ncols, bs)
            == [l1_min(Bk.rows, Bk.ncols, b)[1] for b in as_rats(bs)])
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


# -- one dual per call: the one at the largest value ------------------------------

# min x0 + 3 x1 s.t. x0 + x1 = b: the optimum is b, at x0 = b
ONE_ROW = ([[1, 1]], [1, 3])


def _doctored_dual(monkeypatch, at):
    """Make _Tableau.dual read y doubled at the right-hand side `at`."""
    real = lp._Tableau.dual

    def doubled(self):
        Dy, ys = real(self)
        return (Dy, [2 * v for v in ys]) if self.b is at else (Dy, ys)

    monkeypatch.setattr(lp._Tableau, "dual", doubled)


def test_a_doctored_dual_at_the_largest_value_raises(monkeypatch):
    A, c = ONE_ROW
    bs = [(1, [1]), (1, [2]), (1, [2]), (1, [1])]
    assert exact_optima(A, c, bs) == [1, 2, 2, 1]
    # the first of the two largest values is the one whose dual is checked
    _doctored_dual(monkeypatch, bs[1])
    with pytest.raises(LPError, match="dual objective mismatch"):
        exact_optima(A, c, bs)
    monkeypatch.undo()
    _doctored_dual(monkeypatch, bs[2])
    assert exact_optima(A, c, bs) == [1, 2, 2, 1]


def test_a_doctored_dual_below_the_largest_value_is_not_read(monkeypatch):
    A, c = ONE_ROW
    bs = [(1, [1]), (1, [2])]
    _doctored_dual(monkeypatch, bs[0])
    # the dual at b = 1 was the largest so far and is wrong, but b = 2 has
    # the larger value, and only its dual certifies the maximum
    assert exact_optima(A, c, bs) == [1, 2]
    with pytest.raises(LPError, match="dual objective mismatch"):
        exact_optima(A, c, bs[:1])


def test_a_feasible_primal_above_the_maximum_fails_its_own_dual(monkeypatch):
    A, c = ONE_ROW
    bs = [(1, [2]), (1, [1])]
    assert exact_optima(A, c, bs) == [2, 1]
    real = lp._Tableau.primal

    def not_optimal(self):
        # at b = 1, swap x0 for x1: x = (0, 1) still meets A x = b, x >= 0,
        # and costs 3, above the true maximum 2
        if self.b is bs[1]:
            lp._pivot(self.T, self.basis, 0, 1, (self.z,))
        return real(self)

    monkeypatch.setattr(lp._Tableau, "primal", not_optimal)
    with pytest.raises(LPError, match="dual feasibility failed"):
        exact_optima(A, c, bs)


def test_every_value_has_its_primal_checked(monkeypatch):
    # a primal that fails A x = b is refused at its own right-hand side,
    # though its value is not the largest
    A, c = ONE_ROW
    bs = [(1, [2]), (1, [1]), (1, [3])]
    real = lp._Tableau.primal
    seen = []

    def off_by_one(self):
        seen.append(self.b)
        if self.b is bs[1]:
            self.T[0][-1] += self.T[0][self.basis[0]] * self.Dr
        return real(self)

    monkeypatch.setattr(lp._Tableau, "primal", off_by_one)
    with pytest.raises(LPError, match="primal verification failed"):
        exact_optima(A, c, bs)
    assert seen == bs[:2]


@pytest.mark.parametrize("X,k", DUALITY_CORPUS, ids=["C4-1", "Delta2-1", "dDelta3-1",
                                                     "dDelta3-2", "dDelta4-2"])
def test_the_duality_corpus_keeps_the_rescaling_pivots(monkeypatch, X, k):
    real = lp.exact_optima
    sides = []

    def checked(A, c, bs):
        sides.append(len(A))
        return optima_against_reference(A, c, bs, real)

    monkeypatch.setattr(lp, "exact_optima", checked)
    co, fi = coiso_constants_tiny(X, k)
    assert co == fi and len(sides) == 2
