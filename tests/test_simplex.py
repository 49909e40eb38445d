"""The integer-row exact simplex against the all-RAT reference tableau in
reference_simplex.py: the same (x, value) or the same error, after the
same pivots; its own dual check; and the input checks of exact_simplex and
l1_min."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coiso import lp
from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import coiso_constants_tiny
from coiso.homalg import boundary_matrix
from coiso.lp import LPError, Unbounded, exact_simplex, l1_min
from reference_simplex import outcome_and_pivots, simplex_against_reference


def _entry(rng):
    u = rng.random()
    if u < 0.35:
        return 0
    if u < 0.8:
        return rng.randint(-3, 3)
    return RAT(rng.randint(-5, 5), rng.randint(1, 4))


def random_lp(rng):
    """Small dense LPs: ints and rationals, b of both signs, and often a
    repeated row (a degenerate basis, ties in the ratio test)."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    A = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    b = [_entry(rng) for _ in range(m)]
    c = [_entry(rng) for _ in range(n)]
    if m > 1 and rng.random() < 0.3:
        A[-1], b[-1] = list(A[0]), b[0]
    return A, b, c


def test_random_lps_match_the_reference():
    rng = random.Random("exact-simplex")
    kinds = {}
    flips = rational = 0
    for _ in range(1500):
        A, b, c = random_lp(rng)
        try:
            simplex_against_reference(A, b, c)
            kind = "optimal"
        except LPError as e:
            kind = type(e).__name__
        kinds[kind] = kinds.get(kind, 0) + 1
        flips += any(v < 0 for v in b)
        rational += any(type(v) is RAT for row in A for v in row)
    assert set(kinds) == {"optimal", "Infeasible", "Unbounded"}
    assert min(kinds.values()) >= 200
    assert flips >= 500 and rational >= 500


# Beale's example: Dantzig's rule cycles on it, Bland's rule does not
BEALE = ([[RAT(1, 4), -60, RAT(-1, 25), 9, 1, 0, 0],
          [RAT(1, 2), -90, RAT(-1, 50), 3, 0, 1, 0],
          [0, 0, 1, 0, 0, 0, 1]],
         [0, 0, 1],
         [RAT(-3, 4), 150, RAT(-1, 50), 6, 0, 0, 0])


def test_degenerate_beale_lp_matches_the_reference():
    _, value = simplex_against_reference(*BEALE)
    assert value == RAT(-1, 20)
    _, pivots = outcome_and_pivots(exact_simplex, *BEALE)
    assert len(pivots) > 3


_ENTRY = st.one_of(st.integers(-3, 3),
                   st.builds(RAT, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def small_lps(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(_ENTRY, min_size=m, max_size=m))
    c = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    return A, b, c


@given(small_lps())
@settings(max_examples=150, deadline=None)
def test_hypothesis_lps_match_the_reference(lp_data):
    try:
        simplex_against_reference(*lp_data)
    except LPError:
        pass


# every LP of the tier-1 duality corpus: the ell-1 LPs of l1_optima and the
# ell-infinity LPs of LinfProblem.optima, one exact_optima call per side
DUALITY_CORPUS = [
    (cycle_complex(4), 1),
    (build_complex([(0, 1, 2)]), 1),
    (simplex_boundary(3), 1),
    (simplex_boundary(3), 2),
    (simplex_boundary(4), 2),
]


@pytest.mark.parametrize("X,k", DUALITY_CORPUS, ids=["C4-1", "Delta2-1", "dDelta3-1",
                                                     "dDelta3-2", "dDelta4-2"])
def test_duality_corpus_lps_match_the_reference(monkeypatch, X, k):
    # each right-hand side is solved cold by exact_simplex against the
    # reference (same pivots), and the values of exact_optima's one tableau
    # must be those
    real = lp.exact_optima
    calls = []

    def checked(A, c, bs):
        bs = list(bs)
        calls.append((len(A), len(c)))
        cold = [simplex_against_reference(A, b, c)[1] for b in bs]
        values = real(A, c, bs)
        assert values == cold
        return values

    monkeypatch.setattr(lp, "exact_optima", checked)
    co, fi = coiso_constants_tiny(X, k)
    assert co == fi
    # rows of the k-th boundary: the (k-1)-cells; the ell-infinity LP keeps
    # those in some k-cell's boundary
    Bk = boundary_matrix(X, k)
    n = sum(1 for r in Bk.rows if r)
    linf = (Bk.ncols + n, 2 * n + 1)
    l1 = (Bk.nrows, 2 * Bk.ncols)
    assert linf in calls and l1 in calls
    assert set(calls) == {linf, l1}


# -- the dual check fires, though y is not returned -------------------------------

# min x0 s.t. x0 + x1 = 1: phase 1 pivots x0 in, at a cost of 1; phase 2
# swaps it for x1, at 0
TWO_COLUMNS = ([[1, 1]], [1], [1, 0])


def test_a_cost_row_that_misses_an_update_fails_the_dual_objective(monkeypatch):
    real = lp._pivot

    def skipped(T, basis, leave, enter, costs):
        # phase 1 carries (z1, z2); drop z2, the phase-2 cost row
        return real(T, basis, leave, enter, costs[:1])

    assert exact_simplex(*TWO_COLUMNS) == ([0, 1], 0)
    monkeypatch.setattr(lp, "_pivot", skipped)
    with pytest.raises(LPError, match="dual objective mismatch"):
        exact_simplex(*TWO_COLUMNS)


def test_phase_two_stopped_early_fails_dual_feasibility(monkeypatch):
    real = lp._pivot
    n = len(TWO_COLUMNS[2])

    def priced_out(T, basis, leave, enter, costs):
        # no reduced cost of the phase-2 row stays positive, so phase 2
        # stops at phase 1's basis; the dual read off it still meets
        # y.b = value
        real(T, basis, leave, enter, costs)
        z = costs[-1][0]
        z[:n] = [min(v, 0) for v in z[:n]]

    monkeypatch.setattr(lp, "_pivot", priced_out)
    with pytest.raises(LPError, match="dual feasibility failed"):
        exact_simplex(*TWO_COLUMNS)


# -- mis-shaped input is an LPError, never reinterpreted --------------------------

def test_no_rows_still_sees_every_variable():
    with pytest.raises(Unbounded):
        exact_simplex([], [], [-1])
    assert exact_simplex([], [], [1, 0]) == ([0, 0], 0)


def test_ragged_rows_are_refused():
    with pytest.raises(LPError, match="every constraint row needs 2 entries"):
        exact_simplex([[1, 2], [1]], [1, 1], [0, 0])


def test_a_right_hand_side_per_row():
    with pytest.raises(LPError, match="1 constraint rows but 2 right-hand sides"):
        exact_simplex([[1]], [1, 2], [0])
    with pytest.raises(LPError, match="2 constraint rows but 1 right-hand sides"):
        exact_simplex([[1], [1]], [1], [0])


def test_a_cost_per_column():
    with pytest.raises(LPError, match="every constraint row needs 1 entries"):
        exact_simplex([[1, 2]], [1], [0])


def test_l1_min_refuses_a_target_of_the_wrong_length():
    with pytest.raises(LPError, match="1 constraint rows but 2 right-hand sides"):
        l1_min([{0: 1}], 2, [1, 2])


def test_l1_min_refuses_a_column_outside_the_variables():
    with pytest.raises(LPError, match="column 2 outside the 2 variables"):
        l1_min([{2: 1}], 2, [1])
