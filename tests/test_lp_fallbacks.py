"""The LP fast path can always fail over to slower exact routes; these tests
force each fallback and check it reproduces the certified optimum."""

import pytest

from coiso.exact import RAT
from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.homalg import Cochain, boundary_matrix
from coiso import lp
from coiso.lp import LinfProblem, LPError, exact_simplex, Infeasible, l1_min
from coiso.filling import integral_fill, sample_integral_coboundary, trial_rng
from coiso.subdivision import edgewise_subdivide
from coiso.trees import gnarledness_exact_tiny, gnarledness_upper, greedy_spanning_tree
from reference_simplex import simplex_against_reference


@pytest.fixture(autouse=True)
def simplex_checked_against_reference(monkeypatch):
    """Every exact-simplex call made through the module, from l1_min and
    LinfProblem's fallback, matches the all-RAT reference and its pivots."""
    real = lp.exact_simplex
    monkeypatch.setattr(lp, "exact_simplex",
                        lambda A, b, c: simplex_against_reference(A, b, c, real))


def _reference_problem(L):
    X = edgewise_subdivide(simplex_boundary(3), L).result
    delta = boundary_matrix(X, 2).transpose()
    om = sample_integral_coboundary(X, 2, trial_rng(21, L, 0)).dense(X.n_cells(2))
    return delta, om


def test_forced_fallback_small_uses_exact_simplex(monkeypatch):
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    monkeypatch.setattr(LinfProblem, "_reconstruct", lambda *a, **k: None)
    alpha, t, mode = P.solve([RAT(1), RAT(0), RAT(0), RAT(-1)])
    assert mode == "simplex"
    assert t == RAT(1, 2)


def test_forced_fallback_on_the_subdivided_sphere_uses_exact_simplex(monkeypatch):
    # L=2: a 64x97 tableau, under the cap
    delta, om = _reference_problem(2)
    P = LinfProblem(delta.rows, delta.ncols)
    _, t_ref, mode = P.solve(om)
    assert mode == "reconstructed"
    monkeypatch.setattr(LinfProblem, "_reconstruct", lambda *a, **k: None)
    alpha, t, mode = P.solve(om)
    assert (mode, t) == ("simplex", t_ref)
    assert max(abs(v) for v in alpha) <= t


def test_forced_fallback_on_the_finer_sphere_raises_at_the_cap(monkeypatch):
    # L=8: a 1024x1537 tableau, over the cap
    delta, om = _reference_problem(8)
    P = LinfProblem(delta.rows, delta.ncols)
    monkeypatch.setattr(LinfProblem, "_reconstruct", lambda *a, **k: None)
    with pytest.raises(LPError, match=r"1024x1537 tableau \(1573888 entries\), "
                                      r"above the cap of 100000"):
        P.solve(om)


def _raise_bug(*a, **k):
    raise RuntimeError("bug in our own code")


def test_bug_in_reconstruction_surfaces_instead_of_falling_back(monkeypatch):
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    monkeypatch.setattr(LinfProblem, "_primal_at", _raise_bug)
    with pytest.raises(RuntimeError, match="bug in our own code"):
        P.solve([RAT(1), RAT(0), RAT(0), RAT(-1)])


def test_one_highs_run_per_method(monkeypatch):
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    methods = []
    float_solve = LinfProblem._float_solve

    def counted(self, omega, method):
        methods.append(method)
        return float_solve(self, omega, method)

    monkeypatch.setattr(LinfProblem, "_float_solve", counted)
    monkeypatch.setattr(LinfProblem, "_dual_certificate", lambda *a, **k: None)
    _, t, mode = P.solve([RAT(1), RAT(0), RAT(0), RAT(-1)])
    assert (mode, t) == ("simplex", RAT(1, 2))
    assert methods == ["highs-ipm", "highs-ds"]


def test_omega_beyond_float_range_falls_back_to_exact_simplex():
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    P = LinfProblem(delta.rows, delta.ncols)
    big = 10 ** 400
    _, t, mode = P.solve([big, 0, 0, -big])
    assert (mode, t) == ("simplex", RAT(big, 2))


def _cycle_problem(n):
    """LinfProblem of delta on the n-cycle, and the coboundary of a vertex."""
    delta = boundary_matrix(cycle_complex(n), 1).transpose()
    om = [0] * delta.nrows
    for i, v in delta.col_dicts()[0].items():
        om[i] = v
    return LinfProblem(delta.rows, delta.ncols), om


def _force_simplex(monkeypatch):
    monkeypatch.setattr(LinfProblem, "_reconstruct", lambda *a, **k: None)


def test_exact_simplex_past_the_cap_raises(monkeypatch):
    # 100 edges, 100 vertices: a 300 x 401 tableau, 120,300 entries
    P, om = _cycle_problem(100)
    _force_simplex(monkeypatch)
    with pytest.raises(LPError, match=r"300x401 tableau \(120300 entries\), "
                                      r"above the cap of 100000"):
        P.solve(om)


def test_exact_simplex_at_the_cap_answers(monkeypatch):
    # 12 edges, 12 vertices: a 36 x 49 tableau, 1764 entries
    P, om = _cycle_problem(12)
    _, t_fast, mode = P.solve(om)
    assert mode == "reconstructed"
    _force_simplex(monkeypatch)
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 1764)
    alpha, t, mode = P.solve(om)
    assert (mode, t) == ("simplex", t_fast)
    assert max(abs(v) for v in alpha) <= t
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 1763)
    with pytest.raises(LPError, match="above the cap of 1763"):
        P.solve(om)


def test_primal_on_a_degenerate_face_takes_the_guess():
    # min ||a||_inf s.t. a0 + a1 = 2: free a1 = 0 gives a = (2, 0), over the
    # bound 1; the float guess (1, 1) puts a1 on the face
    P = LinfProblem([{0: 1, 1: 1}], 2)
    assert P._primal_at([RAT(2)], {}, RAT(1)) is None
    alpha = P._primal_at([RAT(2)], {}, RAT(1), [0.9999999, 1.0000001, 1.0])
    assert alpha == [1, 1] and all(type(v) is RAT for v in alpha)
    assert P._primal_at([RAT(2)], {}, RAT(1), [0.2, 1.8, 1.0]) is None


def _degenerate_sweep_omega():
    """An L=16 sweep draw whose pinned system has free variables at 0
    outside the optimal face (trial 29 of seed 302)."""
    X = edgewise_subdivide(simplex_boundary(3), 16).result
    om = sample_integral_coboundary(X, 2, trial_rng(302, 16, 29))
    delta = boundary_matrix(X, 2).transpose()
    return LinfProblem(delta.rows, delta.ncols), om.dense(X.n_cells(2))


def test_degenerate_sweep_draw_is_reconstructed(monkeypatch):
    P, om = _degenerate_sweep_omega()
    alpha, t, mode = P.solve(om)
    assert (mode, t) == ("reconstructed", RAT(64, 39))
    assert max(abs(v) for v in alpha) == t
    # without the guess, every reconstruction attempt fails
    primal_at = LinfProblem._primal_at
    monkeypatch.setattr(LinfProblem, "_primal_at",
                        lambda self, omega, fixed, bound, guess=None:
                        primal_at(self, omega, fixed, bound))
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 0)
    with pytest.raises(LPError, match="above the cap of 0"):
        P.solve(om)


def test_exact_simplex_infeasible():
    with pytest.raises(Infeasible):
        exact_simplex([[RAT(1)], [RAT(1)]], [RAT(1), RAT(2)], [RAT(0)])


def test_l1_min_is_exact_on_c4():
    B = boundary_matrix(cycle_complex(4), 1)
    tau, v = l1_min(B.rows, B.ncols, [1, -1, 0, 0])
    assert v == 1
    assert B.mat_vec([int(x) for x in tau]) == [1, -1, 0, 0]


# -- corners of the surrounding machinery --------------------------------------

def test_integral_fill_on_disconnected_complex():
    from coiso.homalg import apply_coboundary
    X = build_complex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    om = apply_coboundary(X, Cochain(0, {0: 1, 4: -2}, "int")).map(int, "int")
    res = integral_fill(X, om)
    assert not res.certificate.entries
    assert res.alpha.ring == "int"


def test_exact_gnarledness_rank_two():
    X = build_complex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    T = greedy_spanning_tree(X, 1)
    assert len(T.rel_data()["basis_cells"]) == 2
    assert gnarledness_upper(T) == 1
    assert gnarledness_exact_tiny(T, 1) == 1
