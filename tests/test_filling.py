"""Filling-engine tests with independent optimality oracles.

The oracle for the minimal-infinity fill enumerates candidate vertices of
the feasible polytope directly (every subset of d+1 active bound constraints
over the solution affine space), so it shares no code path with the LP.
"""

import os
import random
import subprocess
import sys
import threading
from itertools import combinations, product
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coiso.exact import RAT, ZERO, ONE, is_integral
from coiso.complexes import (build_complex, build_grid_cube_complex,
                             cycle_complex, load_complex, simplex_boundary)
from coiso.homalg import Cochain, apply_coboundary, boundary_matrix, norm_inf
from coiso.linalg import RationalSolver, scale_to_ints
from coiso import linalg, lp
from coiso.lp import Infeasible, LinfProblem, LPError, l1_min
from coiso import filling
from coiso.filling import (DualityMismatch, FillingError, LiftData, LiftError,
                           NotACoboundary, bounded_lift, coiso_constants_tiny,
                           estimate_cip, get_fill_context, integral_fill,
                           linf_fill_rational, sample_integral_coboundary,
                           trial_rng, _any_cocycle_lift, _check_lift,
                           _image_basis, _inf_problem, _one_per_pair,
                           _vertices_inf_ball, _vertices_one_ball)
from coiso.subdivision import SubdivisionError, edgewise_subdivide
from coiso.trees import (SpanningTree, WrappingTree, greedy_spanning_tree,
                         lifting_basis, wrapping_tree, telescope_complex)
from reference_lift import ReferenceLiftData, random_mod_z_cocycle
from reference_solver import (ReferenceSolver, rat_solve, reference_mat_vec,
                              reference_witness)
from reference_vertices import (as_rats, vertices_inf_ball_per_set_reference,
                                vertices_inf_ball_reference,
                                vertices_one_ball_elementary_reference,
                                vertices_one_ball_per_set_reference,
                                vertices_one_ball_reference)
from test_simplex import DUALITY_CORPUS
from test_torsion import rp2


def linf_oracle(rows, ncols, om):
    """Exhaustive vertex enumeration for min ||a||_inf s.t. D a = om."""
    S = RationalSolver(rows, ncols)
    a0 = rat_solve(S, om)
    assert a0 is not None
    N = S.nullspace()
    d = len(N)
    if d == 0:
        return max((abs(v) for v in a0), default=ZERO)
    best = None
    for sub in combinations(range(ncols), d + 1):
        for signs in product((1, -1), repeat=d + 1):
            rows2, rhs2 = [], []
            for s, i in zip(signs, sub):
                row = {j: RAT(s) * N[j].get(i, ZERO) for j in range(d)}
                row[d] = RAT(-1)
                rows2.append({k: v for k, v in row.items() if v})
                rhs2.append(RAT(-s) * a0[i])
            S2 = RationalSolver(rows2, d + 1)
            if S2.rank < d + 1:
                continue
            sol = rat_solve(S2, rhs2)
            if sol is None or sol[d] < 0:
                continue
            a = list(a0)
            for j in range(d):
                if sol[j]:
                    for i, v in N[j].items():
                        a[i] += v * sol[j]
            if max(abs(v) for v in a) <= sol[d]:
                if best is None or sol[d] < best:
                    best = sol[d]
    return best


def test_zero_cochain_fills_to_zero():
    X = cycle_complex(4)
    res = linf_fill_rational(X, Cochain(1, {}, "int"))
    assert res.norm_inf_alpha == 0 and not res.alpha.entries
    assert not apply_coboundary(X, res.alpha).entries


def test_c4_optimal_half():
    X = cycle_complex(4)
    om = Cochain(1, {0: 1, 3: -1}, "int")   # +1 on (0,1), -1 on (2,3)
    res = linf_fill_rational(X, om)
    assert res.norm_inf_alpha == RAT(1, 2)
    delta = boundary_matrix(X, 1).transpose()
    D, ws = om.ints(4, ValueError, "omega")
    assert linf_oracle(delta.rows, delta.ncols, [RAT(w, D) for w in ws]) == RAT(1, 2)


def test_sphere_adjacent_pm_fill_certified():
    X = simplex_boundary(3)
    om = Cochain(2, {0: 1, 2: -1}, "int")   # adjacent triangles, coboundary
    res = linf_fill_rational(X, om)
    delta = boundary_matrix(X, 2).transpose()
    D, ws = om.ints(4, ValueError, "omega")
    assert res.norm_inf_alpha == linf_oracle(delta.rows, delta.ncols,
                                             [RAT(w, D) for w in ws])
    assert res.details["optimal"]


def test_not_a_coboundary_rejected_with_witness():
    X = cycle_complex(4)
    om = Cochain(1, {0: 1}, "int")
    with pytest.raises(NotACoboundary) as ei:
        linf_fill_rational(X, om)
    z = ei.value.witness
    # the witness is a genuine cycle pairing nontrivially with omega
    B = boundary_matrix(X, 1)
    dense = [z.get(i, ZERO) for i in range(4)]
    assert all(v == 0 for v in B.mat_vec(dense))
    assert ei.value.pairing != 0


# -- bounded lifting -----------------------------------------------------------

def test_lift_of_zero_is_zero():
    X = cycle_complex(3)
    z = bounded_lift(Cochain(1, {}, "rat"), greedy_spanning_tree(X, 1),
                     wrapping_tree(X, 0))
    assert not z.entries


def test_lift_on_triangle_boundary_thirds():
    X = cycle_complex(3)
    T = greedy_spanning_tree(X, 1)
    U = wrapping_tree(X, 0)
    z = Cochain(1, {i: RAT(1, 3) for i in range(3)}, "rat")
    zl = bounded_lift(z, T, U)
    _, g, _ = lifting_basis(T)
    assert norm_inf(zl) <= 1 + 1 + g
    for i in range(3):
        assert (zl(i) - z(i)).denominator == 1


def test_lift_rejects_an_index_outside_the_cells():
    X = cycle_complex(3)
    z = Cochain(1, {0: RAT(1, 3), 3: RAT(1, 3)}, "rat")
    with pytest.raises(FillingError, match=r"z has entries at indices \[3\]"):
        bounded_lift(z, greedy_spanning_tree(X, 1), wrapping_tree(X, 0))


def test_lift_on_sphere_halves():
    X = simplex_boundary(3)
    T = greedy_spanning_tree(X, 2)
    U = wrapping_tree(X, 1)
    z = Cochain(2, {i: RAT(1, 2) for i in range(4)}, "rat")
    zl = bounded_lift(z, T, U)
    _, g, _ = lifting_basis(T)
    assert norm_inf(zl) <= 2 + 1 + g
    for i in range(4):
        assert (zl(i) - z(i)).denominator == 1


LIFT_CORPUS = [
    (cycle_complex(4), 1),
    (build_complex([(0, 1, 2)]), 1),
    (simplex_boundary(3), 2),
    (telescope_complex(), 1),
    (telescope_complex(), 2),
]


@pytest.mark.parametrize("X,k", LIFT_CORPUS, ids=lambda v: repr(v))
def test_lift_bound_never_violated(X, k):
    T = greedy_spanning_tree(X, k)
    U = wrapping_tree(X, k - 1)
    _, g, _ = lifting_basis(T)
    bound = k + 1 + g
    for t in range(12):
        rng = trial_rng(11, k, t)
        z = random_mod_z_cocycle(X, k, rng)
        zl = bounded_lift(z, T, U)
        assert norm_inf(zl) <= bound
        for i in range(X.n_cells(k)):
            assert (zl(i) - z(i)).denominator == 1


def test_lift_checks_raise_on_corrupted_lifts():
    # degree 1 of the sphere, checked against the coboundary of its 2-context
    X = simplex_boundary(3)
    up = get_fill_context(X, 2)
    n = X.n_cells(1)
    zero = [ZERO] * n
    _check_lift(up, scale_to_ints(zero), scale_to_ints(zero), RAT(0))
    one_edge = [ONE] + [ZERO] * (n - 1)
    with pytest.raises(LiftError, match="not a cocycle"):
        _check_lift(up, scale_to_ints(zero), scale_to_ints(one_edge), RAT(3))
    with pytest.raises(LiftError, match="mod Z"):
        _check_lift(up, scale_to_ints(zero),
                    scale_to_ints([RAT(1, 2)] + [ZERO] * (n - 1)), RAT(3))
    with pytest.raises(LiftError, match="exceeds the bound"):
        _check_lift(up, scale_to_ints(zero), scale_to_ints(one_edge), RAT(1, 2))
    with pytest.raises(LiftError, match="not a cocycle mod Z"):
        _any_cocycle_lift(up, (2, [1] + [0] * (n - 1)))
    # an integral cochain lifts to a cocycle through the context's solver
    D, lifted = _any_cocycle_lift(up, scale_to_ints(one_edge))
    assert not any(reference_mat_vec(X.boundary_cols(2), lifted))
    assert all(is_integral(RAT(a, D) - b) for a, b in zip(lifted, one_edge))


# -- the safety checks of the lift data, each on corrupted trees -------------------

@pytest.mark.parametrize("Lift", [LiftData, ReferenceLiftData],
                         ids=["tree-system", "per-cell-oracle"])
def test_lift_data_refuses_a_wrapping_tree_of_the_wrong_size(Lift):
    # C4 with no wrapping vertex: 4 vertices outside U against 3 tree edges
    X = cycle_complex(4)
    T = greedy_spanning_tree(X, 1)
    with pytest.raises(LiftError, match="count mismatch: 4 cells outside the "
                                        "wrapping tree vs 3 tree cells"):
        Lift(X, 1, T, WrappingTree(X, 0, ()))


@pytest.mark.parametrize("Lift", [LiftData, ReferenceLiftData],
                         ids=["tree-system", "per-cell-oracle"])
def test_lift_data_refuses_a_singular_tree_system(Lift):
    # two triangles; U holds two vertices of the first and none of the second,
    # so the second's two tree edges cannot reach its three vertices
    X = build_complex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    T = greedy_spanning_tree(X, 1)
    assert wrapping_tree(X, 0).cells == (0, 3)
    with pytest.raises(LiftError, match="tree filling system is singular"):
        Lift(X, 1, T, WrappingTree(X, 0, (0, 1)))


@pytest.mark.parametrize("Lift", [LiftData, ReferenceLiftData],
                         ids=["tree-system", "per-cell-oracle"])
def test_lift_data_refuses_a_lifted_basis_element_that_is_no_cycle(Lift):
    # the sphere with a 2-cell "tree" of two triangles and a 1-cell U holding
    # the bounding cycle (0,2), (0,3), (2,3): the system is square and
    # nonsingular, but the lift of triangle 3 keeps a boundary on U
    X = simplex_boundary(3)
    rel = greedy_spanning_tree(X, 2).rel_data()
    T = SpanningTree(X, 2, (0, 1), _rel=rel)
    assert rel["basis_cells"] == (3,)
    with pytest.raises(LiftError, match="lifted basis element is not a cycle"):
        Lift(X, 2, T, WrappingTree(X, 1, (0, 1, 2, 5)))


@pytest.mark.parametrize("Lift", [LiftData, ReferenceLiftData],
                         ids=["tree-system", "per-cell-oracle"])
def test_lift_data_refuses_coordinates_that_miss_the_cocycle(Lift):
    # a tree triangle as the basis cell: its lift is 0, so the coordinates
    # lose the one dimension of H^2 of the sphere
    X = simplex_boundary(3)
    T = greedy_spanning_tree(X, 2)
    bad = SpanningTree(X, 2, T.cells, _rel={"basis_cells": (T.cells[0],),
                                            "classes": T.rel_data()["classes"]})
    with pytest.raises(LiftError, match="do not determine the cocycle"):
        Lift(X, 2, bad, wrapping_tree(X, 1))


@pytest.mark.parametrize("Lift", [LiftData, ReferenceLiftData],
                         ids=["tree-system", "per-cell-oracle"])
def test_lift_refuses_an_inconsistent_system(Lift):
    # the telescope with a basis of two cells for its rank-one H_1: the
    # second lifts to twice the first, so their targets frac(2s) and frac(s)
    # disagree whenever frac(s) >= 1/2
    X = telescope_complex()
    T = greedy_spanning_tree(X, 1)
    rel = T.rel_data()
    e0, = rel["basis_cells"]
    e2 = next(q for q, c in enumerate(rel["classes"]) if c == (2,))
    bad = SpanningTree(X, 1, T.cells, _rel={
        "basis_cells": (e0, e2), "classes": [(c, 0) for c, in rel["classes"]]})
    data = Lift(X, 1, bad, wrapping_tree(X, 0))
    up = get_fill_context(X, 2)
    for t, consistent in [(0, True), (1, False)]:
        z0 = _any_cocycle_lift(up, random_mod_z_cocycle(
            X, 1, trial_rng(5, 1, t)).ints(X.n_cells(1), ValueError, "z"))
        s = sum(v * RAT(z0[1][j], z0[0]) for j, v in data.b_tilde[0].items())
        assert (s - s.numerator // s.denominator < RAT(1, 2)) == consistent
        if consistent:
            data.lift(z0)
        else:
            with pytest.raises(LiftError, match="lift system inconsistent"):
                data.lift(z0)


# -- integral filling ------------------------------------------------------------

def test_c4_integral_fill_norm_one_and_optimal():
    X = cycle_complex(4)
    om = Cochain(1, {0: 1, 3: -1}, "int")
    res = integral_fill(X, om)
    assert res.alpha.ring == "int"
    assert res.norm_inf_alpha == 1
    assert apply_coboundary(X, res.alpha).entries == om.entries
    # brute force over integer boxes: norm 1 is optimal and attained
    delta = boundary_matrix(X, 1).transpose()
    D, target = om.ints(4, ValueError, "omega")
    assert D == 1
    best = None
    for cand in product(range(-2, 3), repeat=4):
        if delta.mat_vec(list(cand)) == target:
            m = max(abs(v) for v in cand)
            best = m if best is None else min(best, m)
    assert best == 1


def test_integral_fill_zero():
    res = integral_fill(cycle_complex(4), Cochain(1, {}, "int"))
    assert res.norm_inf_alpha == 0


def test_integral_fill_on_subdivided_sphere():
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    rng = trial_rng(3, 2, 0)
    om = sample_integral_coboundary(X, 2, rng)
    res = integral_fill(X, om)
    # exact residual and the rounding-proximity bound
    assert apply_coboundary(X, res.alpha).entries == om.entries
    diff = res.norm_inf_alpha - res.details["rational_norm"]
    assert diff <= 2 + 1 + res.details["g_upper"]
    assert res.norm_inf_alpha <= res.details["rational_norm"] + 2 + 1 + res.details["g_upper"]


@pytest.mark.parametrize("n, r, k", [(n, r, k) for n, r in ((2, 2), (2, 3), (3, 2))
                                     for k in range(1, n + 1)])
def test_integral_fill_on_a_grid(n, r, k):
    # omega is the coboundary of a seeded integer cochain: the sampler's
    # {-1, 0, 1} draws hit no coboundary on the (2, 3) grid in degree 1
    X = build_grid_cube_complex(n, r)
    rng = random.Random(100 * n + 10 * r + k)
    omega = apply_coboundary(X, Cochain(k - 1, {
        i: rng.randint(-2, 2) for i in range(X.n_cells(k - 1))}, "int"))
    assert omega.entries
    res = filling.integral_fill(X, omega)
    n = X.n_cells(k)
    assert (apply_coboundary(X, res.alpha).ints(n, ValueError, "delta alpha")
            == omega.ints(n, ValueError, "omega"))
    d = res.details
    assert d["rational_norm"] == filling.linf_fill_rational(X, omega).norm_inf_alpha
    assert res.norm_inf_alpha <= d["rational_norm"] + k + 1 + d["g_upper"]


def test_integral_fill_requires_integral_omega():
    with pytest.raises(FillingError):
        integral_fill(cycle_complex(4), Cochain(1, {0: RAT(1, 2)}, "rat"))


def test_integral_fill_rejects_non_coboundary():
    with pytest.raises(NotACoboundary):
        integral_fill(cycle_complex(4), Cochain(1, {0: 1}, "int"))


# -- the lift data built on a second thread during the first fill ---------------

def _lift_builds(monkeypatch):
    """The threads on which FillContext builds its lift data, one entry per
    build, from now on."""
    real = filling.FillContext._build_lift_data
    threads = []

    def recorded(self):
        threads.append(threading.current_thread())
        return real(self)

    monkeypatch.setattr(filling.FillContext, "_build_lift_data", recorded)
    return threads


LIFT_THREAD_CASES = {
    **{f"dDelta3-L{L}-k{k}": (lambda L=L: edgewise_subdivide(simplex_boundary(3), L).result, k)
       for L in (4, 8) for k in (1, 2)},
    "RP2-L2-k1": (lambda: rp2(2), 1),
    "RP2-L2-k2": (lambda: rp2(2), 2),
    "C4-k1": (lambda: cycle_complex(4), 1),
}


@pytest.mark.parametrize("case", sorted(LIFT_THREAD_CASES))
def test_fills_are_identical_with_the_lift_built_before_or_on_the_thread(case, monkeypatch):
    make, k = LIFT_THREAD_CASES[case]
    builds = _lift_builds(monkeypatch)
    out = {}
    for before in (True, False):
        X = make()
        rng = random.Random(f"lift-thread/{case}")
        omegas = [apply_coboundary(X, Cochain(k - 1, {
            i: rng.randint(-2, 2) for i in range(X.n_cells(k - 1))}, "int"))
            for _ in range(3)]
        assert all(om.entries for om in omegas)
        if before:
            get_fill_context(X, k).lift_data()
        out[before] = [repr(integral_fill(X, om)) for om in omegas]
    assert out[True] == out[False]
    # one build each; the second on its own thread, and no later fill
    # starts another
    main = threading.main_thread()
    assert builds[0] is main and builds[1] is not main and len(builds) == 2


def test_a_lift_error_on_the_thread_surfaces_after_the_lp_as_today(monkeypatch):
    def broken(self):
        raise LiftError("tree filling system is singular")

    monkeypatch.setattr(LiftData, "_build", broken)
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    om = sample_integral_coboundary(X, 2, trial_rng(7, 2, 0))
    # today's error: the lift data built in the caller
    with pytest.raises(LiftError) as today:
        get_fill_context(edgewise_subdivide(simplex_boundary(3), 2).result, 2).lift_data()
    builds = _lift_builds(monkeypatch)
    real_solve = LinfProblem.solve
    solved = []

    def solve(self, omega):
        out = real_solve(self, omega)
        solved.append(omega)
        return out

    monkeypatch.setattr(LinfProblem, "solve", solve)
    before = threading.active_count()
    for _ in range(2):      # nothing is kept: the next fill builds again
        with pytest.raises(LiftError) as got:
            integral_fill(X, om)
        assert type(got.value) is type(today.value)
        assert str(got.value) == str(today.value)
    assert len(solved) == 2 and threading.active_count() == before
    assert len(builds) == 2 and threading.main_thread() not in builds


def test_no_lift_thread_outlives_a_fill(monkeypatch):
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    om = sample_integral_coboundary(X, 2, trial_rng(7, 4, 0))
    before = threading.active_count()
    integral_fill(X, om)
    assert threading.active_count() == before

    # the LP raises while the thread is still building
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    real_build = LiftData._build
    started, release = threading.Event(), threading.Event()
    running = []

    def held_build(self):
        started.set()
        release.wait(5)
        real_build(self)

    def failing_solve(self, omega):
        assert started.wait(5)
        running.append(threading.active_count())
        release.set()
        raise LPError("no guess")

    monkeypatch.setattr(LiftData, "_build", held_build)
    monkeypatch.setattr(LinfProblem, "solve", failing_solve)
    with pytest.raises(LPError, match="^no guess$"):
        integral_fill(X, om)
    assert running == [before + 1]
    assert threading.active_count() == before
    # the thread's lift data is kept for the next fill
    assert get_fill_context(X, 2)._lift is not None


def test_no_lift_thread_without_a_float_guess(monkeypatch):
    # an entry of magnitude 1e15 or more: HiGHS would refuse the model, so
    # no instance is built and no guess runs
    P = LinfProblem([{0: 10 ** 15, 1: -1}], 2)
    assert P.prepare_guess() is False and not P._solvers
    P = LinfProblem([{0: 10 ** 15 - 1, 1: -1}], 2)
    assert P.prepare_guess() is True and list(P._solvers) == ["ipm"]

    builds = _lift_builds(monkeypatch)
    X = cycle_complex(4)
    ctx = get_fill_context(X, 1)
    monkeypatch.setattr(ctx.lp, "_highs_reads", False)
    res = integral_fill(X, Cochain(1, {0: 1, 3: -1}, "int"))
    assert res.details["lp_mode"] == "simplex" and res.norm_inf_alpha == 1
    assert builds == [threading.main_thread()] and not ctx.lp._solvers


# -- guards and certification checks, each reached on purpose ---------------------

@pytest.mark.parametrize("k", [0, 3])
def test_a_fill_context_refuses_a_degree_out_of_range(k):
    with pytest.raises(FillingError, match=f"^k={k} out of range for dim 2$"):
        get_fill_context(simplex_boundary(3), k)


def test_lift_data_refuses_trees_of_the_wrong_degree():
    X = simplex_boundary(3)
    T, U = greedy_spanning_tree(X, 2), wrapping_tree(X, 1)
    with pytest.raises(LiftError, match="^spanning tree has degree 2, expected 1$"):
        LiftData(X, 1, T, wrapping_tree(X, 0))
    with pytest.raises(LiftError, match="^wrapping tree has degree 0, expected 1$"):
        LiftData(X, 2, T, wrapping_tree(X, 0))
    assert LiftData(X, 2, T, U).k == 2


def test_bounded_lift_refuses_a_cochain_of_another_degree():
    X = simplex_boundary(3)
    with pytest.raises(LiftError, match="^cochain degree 1 does not match the "
                                        "tree degree 2$"):
        bounded_lift(Cochain(1, {0: RAT(1, 2)}, "rat"),
                     greedy_spanning_tree(X, 2), wrapping_tree(X, 1))


def test_a_torsion_cochain_does_not_lift_to_a_rational_cocycle():
    # on RP^2, omega = e0 is a rational but not an integral coboundary, and
    # 2 omega is one, 2 omega = delta(c): so delta(c / 2) = omega is integral,
    # c / 2 is a cocycle mod Z, and no integral eta makes c / 2 + eta a cocycle
    X = rp2(1)
    up = get_fill_context(X, 2)
    omega = [1] + [0] * (X.n_cells(2) - 1)
    assert up.integral_system().solve(omega) is None
    c = up.integral_system().solve([2 * v for v in omega])
    with pytest.raises(LiftError, match="^cochain does not lift to a rational cocycle$"):
        _any_cocycle_lift(up, (2, c))


def _no_nonzero_draw(monkeypatch):
    """Every draw of the sampler is zero, so it never finds a coboundary;
    the draws are counted."""
    draws = []

    def zeros(rng, n):
        draws.append(n)
        return [0] * n

    monkeypatch.setattr(filling, "_draw_signs", zeros)
    return draws


def test_the_sampler_gives_up_after_max_sample_tries(monkeypatch):
    draws = _no_nonzero_draw(monkeypatch)
    with pytest.raises(FillingError, match="^no nonzero integral coboundary found "
                                           "in 5000 draws$"):
        sample_integral_coboundary(simplex_boundary(3), 2, trial_rng(0, 1, 0))
    assert len(draws) == filling.MAX_SAMPLE_TRIES == 5000


def test_estimate_cip_records_a_trial_that_samples_nothing_as_an_error_row(monkeypatch):
    _no_nonzero_draw(monkeypatch)
    out = estimate_cip(simplex_boundary(3), 2, [1, 2], 2, 3)
    error = "no nonzero integral coboundary found in 5000 draws"
    assert out == {"rows": [{"L": L, "trial": t, "error": error}
                            for L in (1, 2) for t in range(2)],
                   "summary": {1: None, 2: None}}


def test_a_rational_fill_whose_residual_is_nonzero_is_refused(monkeypatch):
    # the LP answers alpha = 0 for a nonzero omega: the residual check, in
    # ints, refuses it and names the cells
    X = cycle_complex(4)
    ctx = get_fill_context(X, 1)
    monkeypatch.setattr(ctx.lp, "solve", lambda omega: ((1, [0] * 4), RAT(1, 2),
                                                        "reconstructed"))
    with pytest.raises(FillingError, match=r"^residual is nonzero: \[0, 3\]$"):
        linf_fill_rational(X, Cochain(1, {0: 1, 3: -1}, "int"))


def test_an_integral_fill_above_its_guaranteed_bound_is_refused(monkeypatch):
    # the rational fill claims an optimum 10 below its alpha's norm: the
    # integral fill's norm then exceeds t + k + 1 + G_upper
    real = filling._rational_fill

    def understated(ctx, Dw, ws):
        alpha, t, mode = real(ctx, Dw, ws)
        return alpha, t - 10, mode

    X = edgewise_subdivide(simplex_boundary(3), 2).result
    om = sample_integral_coboundary(X, 2, trial_rng(7, 2, 0))
    monkeypatch.setattr(filling, "_rational_fill", understated)
    with pytest.raises(FillingError, match="^integral fill norm exceeds the "
                                           "guaranteed bound$"):
        integral_fill(X, om)


# -- the sweep -------------------------------------------------------------------

def test_estimate_cip_shape_single_row():
    out = estimate_cip(simplex_boundary(3), 2, [1], 1, 12)
    rows = out["rows"]
    assert len(rows) == 1 and rows[0]["L"] == 1
    assert rows[0]["ratio"] >= 0


def test_estimate_cip_deterministic():
    a = estimate_cip(simplex_boundary(3), 2, [2, 4], 4, 99)
    b = estimate_cip(simplex_boundary(3), 2, [2, 4], 4, 99)
    assert a["summary"] == b["summary"]
    assert [(r["L"], r["trial"], r.get("ratio")) for r in a["rows"]] == \
           [(r["L"], r["trial"], r.get("ratio")) for r in b["rows"]]


def test_estimate_cip_refuses_an_over_cap_scale_before_any_sample(monkeypatch):
    # L=2 was subdivided, sampled and filled before L=10000 was refused
    def refuse(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(filling, "sample_integral_coboundary", refuse)
    with pytest.raises(SubdivisionError, match="the 10000-fold subdivision would "
                                               "have 400000000 top cells"):
        estimate_cip(simplex_boundary(3), 2, [2, 10000], 1, 0)


def test_estimate_cip_rejects_zero_trials():
    with pytest.raises(FillingError):
        estimate_cip(simplex_boundary(3), 2, [1], 0, 1)


def test_sampler_yields_integral_coboundaries():
    X = simplex_boundary(3)
    ctx = get_fill_context(X, 2)
    for t in range(6):
        om = sample_integral_coboundary(X, 2, trial_rng(5, 1, t))
        D, ws = om.ints(4, ValueError, "omega")
        assert D == 1 and any(ws) and all(v in (-1, 0, 1) for v in ws)
        assert ctx.coboundary_witness(D, ws) is None


def test_int_difference_over_mixed_denominators():
    half, third = RAT(1, 2), RAT(1, 3)
    def diff(a, b):
        return filling._int_difference(scale_to_ints(a), scale_to_ints(b))
    got = diff([half, 5 * third, 2, ZERO], [-half, 2 * third, RAT(0), -3])
    assert got == [1, 1, 2, 3] and all(type(v) is int for v in got)
    assert diff([half, third], [half, -third]) is None
    assert diff([half], [third]) is None


class _Incidence:
    """A one-dimensional cell complex given by boundary entries that need
    not be +-1, so that its cycles need not be integral."""

    dim = 1

    def __init__(self, rows):
        self.rows = rows

    def n_cells(self, k):
        return len(self.rows) if k == 0 else 1 + max(j for r in self.rows for j in r)

    def boundary_cols(self, k):
        cols = [{} for _ in range(self.n_cells(1))]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                cols[j][i] = v
        return cols


def _witness_omegas(rng, n):
    for _ in range(60):
        yield [rng.choice([0, 1, -1, 2, RAT(1, 2), RAT(-2, 3), RAT(3, 5)])
               for _ in range(n)]


def test_witness_with_non_unit_cycle_denominators_like_the_rat_loop():
    X = _Incidence([{0: 2, 1: 3}, {1: 1, 2: 1, 3: 5}, {3: 2, 4: 3, 5: -1}])
    ctx = filling.FillContext(X, 1)
    B = boundary_matrix(X, 1)
    assert ctx.cycles == ReferenceSolver(B.rows, B.ncols).nullspace()
    assert any(v.denominator != 1 for z in ctx.cycles for v in z.values())
    pairings = []
    for omega in _witness_omegas(random.Random(3), X.n_cells(1)):
        got = ctx.coboundary_witness(*scale_to_ints(omega))
        assert got == reference_witness(ctx.cycles, omega)
        if got is not None:
            assert type(got[1]) is RAT
            pairings.append(got[1])
    assert any(p.denominator != 1 for p in pairings)
    assert ctx.coboundary_witness(1, [0] * X.n_cells(1)) is None


def test_witness_on_sampler_draws_like_the_rat_loop():
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    ctx = get_fill_context(X, 2)
    rng = random.Random(8)
    found = 0
    for _ in range(40):
        vals = [rng.choice((-1, 0, 1)) for _ in range(X.n_cells(2))]
        got = ctx.coboundary_witness(1, vals)
        assert got == reference_witness(ctx.cycles, vals)
        dense = [RAT(v, 3) for v in vals]
        assert ctx.coboundary_witness(3, vals) == reference_witness(ctx.cycles, dense)
        found += got is not None
    assert 0 < found < 40


# -- duality ---------------------------------------------------------------------

GOLDEN = [
    (cycle_complex(4), 1, RAT(1)),
    (build_complex([(0, 1, 2)]), 1, RAT(1, 2)),
    (simplex_boundary(3), 2, RAT(1, 2)),
    (simplex_boundary(4), 2, RAT(3, 5)),
]


@pytest.mark.parametrize("X,k,value", GOLDEN, ids=lambda v: repr(v))
def test_duality_constants_equal_and_golden(X, k, value):
    co, fi = coiso_constants_tiny(X, k)
    assert co == fi
    assert co == value


def test_duality_size_cap():
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    with pytest.raises(FillingError):
        coiso_constants_tiny(X, 2)


def test_duality_checks_k_before_the_size():
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    with pytest.raises(FillingError, match="out of range"):
        coiso_constants_tiny(X, 3)


def test_duality_size_cap_builds_no_enumeration(monkeypatch):
    def refuse(basis, n):
        raise AssertionError("enumeration ran above the cap")
    monkeypatch.setattr(filling, "_vertices_inf_ball", refuse)
    monkeypatch.setattr(filling, "_vertices_one_ball", refuse)
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    with pytest.raises(FillingError, match="enumeration cap"):
        coiso_constants_tiny(X, 2)


def test_duality_cap_message_names_what_it_counts():
    # dDelta3 at L=2, k=2: 16 triangles over 24 edges, B_2 of rank 15
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    with pytest.raises(FillingError) as e:
        coiso_constants_tiny(X, 2)
    assert comb(24, 14) == 1961256 and comb(16, 15) * 2 ** 15 == 524288
    assert str(e.value) == (
        "complex exceeds the duality enumeration cap of 20000 candidates: "
        "1961256 coordinate sets on the ell-1 side, 524288 coordinate sets "
        "times sign patterns on the ell-infinity side")


def test_duality_cap_counts_only_cells_in_some_boundary():
    # 200 isolated vertices: the ell-1 enumeration still reads the minors of
    # the 3 x 4 basis, so the cap counts C(4, 2), not C(204, 2) = 20706
    X = build_complex(list(combinations(range(4), 3))
                      + [(v,) for v in range(4, 204)])
    assert coiso_constants_tiny(X, 1) == (RAT(1, 2), RAT(1, 2))


def test_duality_tableau_cap_builds_no_enumeration(monkeypatch):
    # dDelta3, k=2: 4 triangles over 6 edges, a 10x13 ell-infinity tableau
    def refuse(basis, n):
        raise AssertionError("enumeration ran above the cap")
    monkeypatch.setattr(filling, "_vertices_inf_ball", refuse)
    monkeypatch.setattr(filling, "_vertices_one_ball", refuse)
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 129)
    with pytest.raises(FillingError, match=r"duality LP cap: the exact simplex "
                                           r"needs a 10x13 tableau \(130 entries\), "
                                           r"above the cap of 129"):
        coiso_constants_tiny(simplex_boundary(3), 2)


def test_duality_at_the_tableau_cap_answers(monkeypatch):
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 130)
    assert coiso_constants_tiny(simplex_boundary(3), 2) == (RAT(1, 2), RAT(1, 2))


def test_cells_in_no_boundary_leave_the_ell_infinity_lp():
    # 297 isolated vertices: the full LP would need a 303x601 tableau, above
    # the cap; without them it is 6x7
    X = build_complex([(0, 1, 2)] + [(i,) for i in range(3, 300)])
    delta = boundary_matrix(X, 1).transpose()
    with pytest.raises(LPError, match="303x601 tableau"):
        LinfProblem(delta.rows, delta.ncols).check_simplex_cap()
    problem = _inf_problem(delta.rows)
    assert (problem.m, problem.n) == (3, 3)
    assert coiso_constants_tiny(X, 1) == (RAT(1, 2), RAT(1, 2))


def _triangle_and_isolated_vertices(count):
    return build_complex([(0, 1, 2)] + [(i,) for i in range(3, 3 + count)])


def test_zero_rows_leave_the_ell_one_lp(monkeypatch):
    # 800 isolated vertices: with their zero rows the ell-1 tableau would be
    # 803x810, above the cap; without them every LP is 3 rows over 6 columns
    X = _triangle_and_isolated_vertices(800)
    B = boundary_matrix(X, 1)
    assert sum(1 for r in B.rows if r) == 3
    real = lp.exact_optima
    l1_shapes = []

    def recorded(A, c, bs):
        bs = list(bs)
        if len(c) == 2 * B.ncols:
            l1_shapes.extend((len(A), len(b[1]), len(c)) for b in bs)
        return real(A, c, bs)

    monkeypatch.setattr(lp, "exact_optima", recorded)
    assert coiso_constants_tiny(X, 1) == (RAT(1, 2), RAT(1, 2))
    assert l1_shapes and set(l1_shapes) == {(3, 3, 6)}


def test_l1_min_drops_zero_rows_only_on_a_zero_target():
    assert l1_min([{0: 1}, {}], 1, [2, 0]) == ([2], 2)
    with pytest.raises(Infeasible):
        l1_min([{0: 1}, {}], 1, [2, 1])


def test_l1_min_refuses_a_tableau_over_the_cap(monkeypatch):
    # 3 nonzero rows over 6 variables, with 3 artificials and the right-hand
    # side: 3x10; the 800 zero rows do not count
    B = boundary_matrix(_triangle_and_isolated_vertices(800), 1)
    target = [1, -1] + [0] * (B.nrows - 2)
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 30)
    assert l1_min(B.rows, B.ncols, target)[1] == 1
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 29)
    with pytest.raises(LPError, match=r"3x10 tableau \(30 entries\), "
                                      r"above the cap of 29"):
        l1_min(B.rows, B.ncols, target)


def test_duality_ell_one_tableau_cap_builds_no_enumeration(monkeypatch):
    # the ell-infinity tableau over the same cells is the larger one (6x7
    # here), so its check is lifted to reach the ell-1 refusal
    def refuse(basis, n):
        raise AssertionError("enumeration ran above the cap")
    monkeypatch.setattr(filling, "_vertices_inf_ball", refuse)
    monkeypatch.setattr(filling, "_vertices_one_ball", refuse)
    monkeypatch.setattr(LinfProblem, "check_simplex_cap", lambda self: None)
    monkeypatch.setattr(lp, "SIMPLEX_CAP", 29)
    with pytest.raises(FillingError, match=r"duality LP cap: the exact simplex "
                                           r"needs a 3x10 tableau \(30 entries\), "
                                           r"above the cap of 29"):
        coiso_constants_tiny(_triangle_and_isolated_vertices(800), 1)


@pytest.mark.parametrize("X,k,value", GOLDEN, ids=lambda v: repr(v))
def test_duality_makes_no_float_solve(monkeypatch, X, k, value):
    def refuse(self, omega, method):
        raise AssertionError("a float LP ran in the duality check")
    monkeypatch.setattr(LinfProblem, "_float_solve", refuse)
    assert coiso_constants_tiny(X, k) == (value, value)


def test_duality_never_imports_scipy():
    code = ("import sys\n"
            "from coiso import coiso_constants_tiny, simplex_boundary\n"
            "assert coiso_constants_tiny(simplex_boundary(3), 2)[0] == 1 / 2\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = str(Path(filling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_duality_mismatch_raises_when_the_sides_disagree(monkeypatch):
    real = filling._vertices_one_ball

    def shrunk(basis, n):       # points inside the ell-1 ball, no vertex
        return [(2 * q, b) for q, b in real(basis, n)]
    monkeypatch.setattr(filling, "_vertices_one_ball", shrunk)
    with pytest.raises(DualityMismatch, match="cofilling 1 != filling 1/2"):
        coiso_constants_tiny(cycle_complex(4), 1)


# -- the ell-1 ball's vertices against the old sign-facet enumeration -------------

def _one_ball(basis, n):
    verts = as_rats(_vertices_one_ball(basis, n))
    assert len(verts) == len(set(verts))
    return set(verts)


@pytest.mark.parametrize("X,k,count", [
    (cycle_complex(4), 1, 12),
    (build_complex([(0, 1, 2)]), 1, 6),
    (simplex_boundary(3), 1, 12),
    (simplex_boundary(3), 2, 14),
], ids=["C4-1", "Delta2-1", "dDelta3-1", "dDelta3-2"])
def test_one_ball_vertices_match_sign_facets_on_corpus(X, k, count):
    # the telescope (2^11 and 2^27 sign facets) is beyond the old enumeration
    Bk = boundary_matrix(X, k)
    basis = _image_basis(Bk.col_dicts(), Bk.nrows)
    verts = _one_ball(basis, Bk.nrows)
    assert len(verts) == count
    assert verts == vertices_one_ball_reference(basis, Bk.nrows)


@pytest.mark.parametrize("X,k", [
    (cycle_complex(4), 1),
    (build_complex([(0, 1, 2)]), 1),
    (simplex_boundary(3), 1),
    (simplex_boundary(3), 2),
    (simplex_boundary(4), 2),
    (simplex_boundary(4), 3),
], ids=["C4-1", "Delta2-1", "dDelta3-1", "dDelta3-2", "dDelta4-2", "dDelta4-3"])
def test_one_ball_vertices_match_the_rational_enumeration(X, k):
    Bk = boundary_matrix(X, k)
    basis = _image_basis(Bk.col_dicts(), Bk.nrows)
    verts = _one_ball(basis, Bk.nrows)
    assert all(type(v) is RAT for w in verts for v in w)
    assert verts == vertices_one_ball_elementary_reference(basis, Bk.nrows)


def random_coordinate_basis(rng, n, d):
    """d independent integer columns over n coordinates; coordinate rows are
    repeated, rescaled or zero often, so some (d-1)-sets are dependent."""
    while True:
        rows = []
        for _ in range(n):
            u = rng.random()
            if rows and u < 0.2:
                rows.append(list(rng.choice(rows)))
            elif rows and u < 0.35:
                s = rng.choice((-3, -2, 2, 3))
                rows.append([s * v for v in rng.choice(rows)])
            elif u < 0.45:
                rows.append([0] * d)
            else:
                rows.append([rng.randint(-3, 3) for _ in range(d)])
        if RationalSolver([dict(enumerate(r)) for r in rows], d).rank == d:
            return [[RAT(rows[i][j]) for i in range(n)] for j in range(d)]


RANDOM_SHAPES = [(n, d, seed) for d, ns in ((1, range(1, 8)), (2, range(2, 7)),
                                            (3, range(3, 6)))
                 for n in ns for seed in (0, 1)]


@pytest.mark.parametrize("n,d,seed", RANDOM_SHAPES, ids=str)
def test_one_ball_vertices_match_sign_facets_on_random_bases(n, d, seed):
    basis = random_coordinate_basis(random.Random(f"{n}/{d}/{seed}"), n, d)
    verts = _one_ball(basis, n)
    assert verts == vertices_one_ball_reference(basis, n)
    assert verts == vertices_one_ball_elementary_reference(basis, n)
    for b in verts:
        assert sum(abs(v) for v in b) == 1


def test_random_bases_have_dependent_coordinate_sets():
    dependent = 0
    for n, d, seed in RANDOM_SHAPES:
        basis = random_coordinate_basis(random.Random(f"{n}/{d}/{seed}"), n, d)
        for idxs in combinations(range(n), d - 1):
            rows = [{j: basis[j][i] for j in range(d) if basis[j][i]} for i in idxs]
            dependent += RationalSolver(rows, d).rank < d - 1
    assert dependent >= 10


# -- the ell-infinity ball's vertices against one solve per sign pattern ----------

def _inf_ball(X, k):
    delta = boundary_matrix(X, k).transpose()
    basis = _image_basis(delta.col_dicts(), delta.nrows)
    verts = as_rats(_vertices_inf_ball(basis, delta.nrows))
    assert len(verts) == len(set(verts))
    return basis, delta.nrows, set(verts)


@pytest.mark.parametrize("X,k,count", [
    (simplex_boundary(3), 1, 14),
    (simplex_boundary(3), 2, 6),
    (simplex_boundary(4), 2, 24),
    (simplex_boundary(4), 3, 30),
    (cycle_complex(4), 1, 6),
    (cycle_complex(5), 1, 30),
], ids=["dDelta3-1", "dDelta3-2", "dDelta4-2", "dDelta4-3", "C4-1", "C5-1"])
def test_inf_ball_vertices_match_per_pattern_solves(X, k, count):
    basis, n, verts = _inf_ball(X, k)
    assert len(verts) == count
    assert verts == vertices_inf_ball_reference(basis, n)


@pytest.mark.parametrize("n,d,seed", RANDOM_SHAPES, ids=str)
def test_inf_ball_vertices_match_per_pattern_solves_on_random_bases(n, d, seed):
    basis = random_coordinate_basis(random.Random(f"inf/{n}/{d}/{seed}"), n, d)
    verts = set(as_rats(_vertices_inf_ball(basis, n)))
    assert verts == vertices_inf_ball_reference(basis, n)
    for w in verts:
        assert max(abs(v) for v in w) == 1


def _exact_against_highs(X, k):
    """Every ell-infinity vertex's optimum from solve_exact on the duality's
    LP (zero columns dropped) equals the HiGHS-reconstruction path's on the
    full FillContext LP."""
    delta = boundary_matrix(X, k).transpose()
    problem = _inf_problem(delta.rows)
    ctx = get_fill_context(X, k)
    basis = _image_basis(delta.col_dicts(), delta.nrows)
    verts = as_rats(_vertices_inf_ball(basis, delta.nrows))
    for w in verts:
        (Da, a), t = problem.solve_exact(scale_to_ints(w))
        assert t == ctx.lp.solve(scale_to_ints(w))[1]
        alpha = [RAT(v, Da) for v in a]
        assert max((abs(v) for v in alpha), default=0) == t
        assert reference_mat_vec(problem.rows, alpha) == list(w)
    return len(verts)


@pytest.mark.parametrize("X,k", [(X, k) for X, k, _ in GOLDEN]
                         + [(simplex_boundary(3), 1), (simplex_boundary(4), 3)],
                         ids=["C4-1", "Delta2-1", "dDelta3-2", "dDelta4-2",
                              "dDelta3-1", "dDelta4-3"])
def test_exact_ell_infinity_optima_match_highs_on_corpus(X, k):
    assert _exact_against_highs(X, k) > 0


def test_one_per_pair_keeps_one_vertex_of_each_antipodal_pair():
    _, _, verts = _inf_ball(simplex_boundary(4), 2)
    half = as_rats(_one_per_pair([scale_to_ints(w) for w in verts]))
    assert 2 * len(half) == len(verts)
    assert set(half) | {tuple(-v for v in w) for w in half} == verts


# -- duality on random small complexes ----------------------------------------------

@st.composite
def small_complexes(draw):
    """Face closures of 1-4 random top cells on at most 6 vertices, of
    dimension at most 3, with a degree k in [1, dim]."""
    tops = draw(st.lists(st.sets(st.integers(0, 5), min_size=2, max_size=4)
                         .map(lambda s: tuple(sorted(s))),
                         min_size=1, max_size=4, unique=True))
    X = build_complex(tops)
    return X, draw(st.integers(1, X.dim))


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_duality_holds_on_random_small_complexes(Xk):
    X, k = Xk
    try:
        co, fi = coiso_constants_tiny(X, k)
    except FillingError as e:
        assert "enumeration cap" in str(e)
        return
    assert co == fi


@given(small_complexes())
@settings(max_examples=40, deadline=None)
def test_one_lp_per_antipodal_pair_gives_the_max_over_all_vertices(Xk):
    X, k = Xk
    Bk = boundary_matrix(X, k)
    delta = Bk.transpose()
    d = Bk.rank()
    if comb(Bk.ncols, d) * 2 ** d > 2000:     # keep the per-vertex LPs few
        return
    problem = _inf_problem(delta.rows)
    for fill, rows, basis in (
            (lambda w: problem.solve_exact(scale_to_ints(w))[1], delta,
             _vertices_inf_ball),
            (lambda b: l1_min(Bk.rows, Bk.ncols, b)[1], Bk,
             _vertices_one_ball)):
        verts = basis(_image_basis(rows.col_dicts(), rows.nrows), rows.nrows)
        value = {w: fill(w) for w in as_rats(verts)}
        for w, t in value.items():
            assert value[tuple(-v for v in w)] == t
        assert (max((value[w] for w in as_rats(_one_per_pair(verts))), default=0)
                == max(value.values(), default=0))


@given(small_complexes())
@settings(max_examples=40, deadline=None)
def test_exact_ell_infinity_optima_match_highs_on_random_complexes(Xk):
    X, k = Xk
    Bk = boundary_matrix(X, k)
    if comb(Bk.ncols, Bk.rank()) * 2 ** Bk.rank() > 2000:
        return
    _exact_against_highs(X, k)


# -- both enumerations against one solver per coordinate set ----------------------

def _same_vertices_as_the_per_set_solvers(X, k):
    """Each side of the duality check on X in degree k enumerates the vertex
    set of the per-set solvers, with no vertex twice; returns the two
    counts."""
    Bk = boundary_matrix(X, k)
    problem = _inf_problem(Bk.transpose().rows)
    counts = []
    for enumerate_, reference, basis, n in (
            (_vertices_inf_ball, vertices_inf_ball_per_set_reference,
             _image_basis(problem.cols, problem.m), problem.m),
            (_vertices_one_ball, vertices_one_ball_per_set_reference,
             _image_basis(Bk.col_dicts(), Bk.nrows), Bk.nrows)):
        got = as_rats(enumerate_(basis, n))
        assert len(got) == len(set(got))
        assert set(got) == {tuple(w) for w in reference(basis, n)}
        counts.append(len(got))
    return counts


@pytest.mark.parametrize("X,k", DUALITY_CORPUS + [
    (cycle_complex(5), 1), (cycle_complex(6), 1), (simplex_boundary(4), 1),
    (simplex_boundary(4), 3),
], ids=["C4-1", "Delta2-1", "dDelta3-1", "dDelta3-2", "dDelta4-2", "C5-1", "C6-1",
        "dDelta4-1", "dDelta4-3"])
def test_vertices_match_the_per_set_solvers_on_corpus(X, k):
    assert min(_same_vertices_as_the_per_set_solvers(X, k)) > 0


@pytest.mark.parametrize("X,k", DUALITY_CORPUS + [
    (load_complex(Path(__file__).parent / "golden" / "inputs" / "rp2.json"), 2),
], ids=["C4-1", "Delta2-1", "dDelta3-1", "dDelta3-2", "dDelta4-2", "RP2-2"])
def test_the_duality_check_hands_its_lps_reduced_int_vertices(X, k):
    # the bases coiso_constants_tiny reads: im delta over the k-cells, and
    # im B_k over the (k-1)-cells in some k-cell's boundary
    problem = _inf_problem(X.boundary_cols(k))
    for verts, n in (
            (_vertices_inf_ball(_image_basis(problem.cols, problem.m), problem.m),
             problem.m),
            (_vertices_one_ball(_image_basis(problem.rows, problem.n), problem.n),
             problem.n)):
        assert verts
        for q, w in verts:
            assert type(q) is int and q > 0 and len(w) == n
            assert all(type(v) is int for v in w) and gcd(q, *w) == 1


def test_vertices_match_the_per_set_solvers_on_rp2():
    # torsion, and no 2-cycle: the ell-1 side spans all 10 triangles
    X = load_complex(Path(__file__).parent / "golden" / "inputs" / "rp2.json")
    assert min(_same_vertices_as_the_per_set_solvers(X, 2)) > 0


@pytest.mark.parametrize("n,d,seed", RANDOM_SHAPES, ids=str)
def test_vertices_match_the_per_set_solvers_on_random_bases(n, d, seed):
    for side, enumerate_, reference in (
            ("inf", _vertices_inf_ball, vertices_inf_ball_per_set_reference),
            ("one", _vertices_one_ball, vertices_one_ball_per_set_reference)):
        basis = random_coordinate_basis(random.Random(f"{side}/{n}/{d}/{seed}"), n, d)
        assert (set(as_rats(enumerate_(basis, n)))
                == {tuple(w) for w in reference(basis, n)})


def random_face_closure(rng):
    """The face closure of 1-4 random top cells on at most 6 vertices, of
    dimension at most 3."""
    tops = {tuple(sorted(rng.sample(range(6), rng.randint(2, 4))))
            for _ in range(rng.randint(1, 4))}
    return build_complex(sorted(tops))


def test_vertices_match_the_per_set_solvers_on_random_complexes():
    compared = 0
    for seed in range(150):
        X = random_face_closure(random.Random(f"closure/{seed}"))
        for k in range(1, X.dim + 1):
            Bk = boundary_matrix(X, k)
            d = Bk.rank()
            if max(comb(Bk.nrows, d - 1) if d else 0,
                   comb(Bk.ncols, d) * 2 ** d) > filling.ENUMERATION_CAP:
                continue
            _same_vertices_as_the_per_set_solvers(X, k)
            compared += 1
    assert compared >= 300


def test_a_duality_check_on_dDelta3_builds_two_eliminations(monkeypatch):
    # the two greedy bases; 21 when each coordinate set had its own solver
    real = linalg._Echelon.__init__
    built = []

    def counted(self, rows, ncols):
        built.append(type(self).__name__)
        real(self, rows, ncols)

    monkeypatch.setattr(linalg._Echelon, "__init__", counted)
    assert coiso_constants_tiny(simplex_boundary(3), 2) == (RAT(1, 2), RAT(1, 2))
    assert built == ["_LowestRowEchelon"] * 2
