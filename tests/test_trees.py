import random

import pytest
from hypothesis import given, settings, strategies as st

from coiso.exact import RAT
from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.filling import (LiftData, _any_cocycle_lift, get_fill_context,
                           linf_fill_rational, sample_integral_coboundary,
                           trial_rng)
from coiso.homalg import boundary_matrix
from coiso.linalg import RationalSolver, scale_to_ints
from coiso.subdivision import edgewise_subdivide
from coiso import trees
from coiso.trees import (BasisIntegralityError, SpanningTree, TreeError,
                         WrappingTree, gnarledness_exact_tiny,
                         gnarledness_upper, greedy_spanning_tree,
                         lifting_basis, telescope_complex,
                         telescope_circles_tree, wrapping_tree,
                         _relative_classes, _verify_wrapping)

from reference_lattice import reference_lattice_basis
from reference_lift import ReferenceLiftData, random_mod_z_cocycle
from reference_rank import IncrementalRank

CORPUS = [
    (build_complex([(0, 1, 2)]), 1),
    (cycle_complex(4), 1),
    (simplex_boundary(3), 1),
    (simplex_boundary(3), 2),
    (telescope_complex(), 1),
    (telescope_complex(), 2),
]


@pytest.fixture(autouse=True)
def lattice_basis_checked_against_the_reference(monkeypatch):
    """Every lattice basis a tree test builds equals the frozen loop's."""
    live = trees._hnf_lattice_basis

    def checked(vectors, d):
        got = live(vectors, d)
        assert got == reference_lattice_basis(vectors, d)
        return got

    monkeypatch.setattr(trees, "_hnf_lattice_basis", checked)


def _random_lattice_input(rng):
    """1-8 nonzero rational d-tuples, d in 1..4, with small numerators and
    denominators, so that ties in |entry| and dependent vectors are common."""
    d, n = rng.randint(1, 4), rng.randint(1, 8)
    vectors = []
    while len(vectors) < n:
        v = tuple(RAT(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                  if rng.random() < 0.7 else RAT(0) for _ in range(d))
        if any(v):
            vectors.append(v)
    return vectors, d


def test_lattice_basis_equals_the_reference_on_seeded_inputs():
    for seed in range(400):
        vectors, d = _random_lattice_input(random.Random(f"lattice/{seed}"))
        assert trees._hnf_lattice_basis(vectors, d) == \
            reference_lattice_basis(vectors, d), (seed, vectors)


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=6)
                for _ in range(d)]).filter(any), min_size=1, max_size=6)))
@settings(max_examples=100, deadline=None)
def test_lattice_basis_equals_the_reference(vectors):
    vectors = [tuple(RAT(x) for x in v) for v in vectors]
    d = len(vectors[0])
    assert trees._hnf_lattice_basis(vectors, d) == \
        reference_lattice_basis(vectors, d)


def homology_conditions_hold(T):
    """Independent check of both spanning-tree conditions by exact ranks."""
    X, k = T.X, T.k
    if k == 0:
        return T.cells == ()
    cols = boundary_matrix(X, k).col_dicts()
    sel = [cols[j] for j in T.cells]
    rank_T = RationalSolver(sel, X.n_cells(k - 1)).rank if sel else 0
    if rank_T != len(T.cells):          # H_k(T) = 0
        return False
    rank_full = RationalSolver(cols, X.n_cells(k - 1)).rank
    return rank_T == rank_full          # H_{k-1} unchanged


def test_c4_spanning_tree_is_three_edges():
    T = greedy_spanning_tree(cycle_complex(4), 1)
    assert len(T.cells) == 3
    assert homology_conditions_hold(T)


def test_sphere_two_tree_is_three_triangles():
    T = greedy_spanning_tree(simplex_boundary(3), 2)
    assert len(T.cells) == 3
    assert homology_conditions_hold(T)


def test_disk_one_tree_is_two_edges():
    T = greedy_spanning_tree(build_complex([(0, 1, 2)]), 1)
    assert len(T.cells) == 2


@pytest.mark.parametrize("X,k", CORPUS, ids=lambda v: repr(v))
def test_greedy_tree_conditions_on_corpus(X, k):
    assert homology_conditions_hold(greedy_spanning_tree(X, k))


def test_adding_any_cell_creates_a_cycle():
    X = simplex_boundary(3)
    T = greedy_spanning_tree(X, 2)
    cols = boundary_matrix(X, 2).col_dicts()
    for q in range(X.n_cells(2)):
        if q in T.cells:
            continue
        sel = [cols[j] for j in T.cells] + [cols[q]]
        assert RationalSolver(sel, X.n_cells(1)).rank < len(sel)


def test_wrapping_tree_examples():
    assert len(wrapping_tree(simplex_boundary(3), 2).cells) == 4
    assert len(wrapping_tree(cycle_complex(4), 1).cells) == 4
    D = build_complex([(0, 1, 2)])
    assert wrapping_tree(D, 1).cells == greedy_spanning_tree(D, 1).cells


def test_zero_dimensional_trees():
    X = cycle_complex(4)
    assert greedy_spanning_tree(X, 0).cells == ()
    U0 = wrapping_tree(X, 0)
    assert len(U0.cells) == 1


# -- gnarledness ----------------------------------------------------------------

def test_sphere_tree_gnarledness_one():
    T = greedy_spanning_tree(simplex_boundary(3), 2)
    assert gnarledness_upper(T) == 1
    # exhaustive sign/basis search confirms it exactly
    assert gnarledness_exact_tiny(T, 4) == 1


def test_rank_zero_convention():
    T = greedy_spanning_tree(build_complex([(0, 1, 2)]), 1)
    assert gnarledness_upper(T) == 0
    assert gnarledness_exact_tiny(T, 4) == 0


def test_telescope_circles_tree_is_two_gnarled():
    X = telescope_complex()
    T = telescope_circles_tree(X)
    # the greedy basis hits the half-integer class, so it must be reported
    with pytest.raises(BasisIntegralityError):
        gnarledness_upper(T, basis="greedy")
    assert gnarledness_upper(T, basis="lattice") == 2
    assert gnarledness_exact_tiny(T, 4) == 2


def test_telescope_greedy_tree_also_two_gnarled():
    X = telescope_complex()
    T = greedy_spanning_tree(X, 1)
    _, g, _ = lifting_basis(T)
    assert g >= 2
    assert gnarledness_exact_tiny(T, 4) == 2


def test_exact_tiny_never_exceeds_upper():
    for X, k in CORPUS:
        T = greedy_spanning_tree(X, k)
        _, g_up, _ = lifting_basis(T)
        if len(T.rel_data()["basis_cells"]) <= 2 and len(set(T.rel_data()["classes"])) <= 9:
            assert gnarledness_exact_tiny(T, 4) <= g_up


def test_gnarledness_bounded_across_subdivisions():
    # boundedness surrogate on edgewise subdivisions of the sphere
    values = {}
    for L in (1, 2, 4):
        X = edgewise_subdivide(simplex_boundary(3), L).result
        T = greedy_spanning_tree(X, 2)
        values[L] = gnarledness_upper(T)
    assert values[4] <= values[1] + 2
    assert values == {1: 1, 2: 1, 4: 1}


def test_explicit_basis_argument():
    T = greedy_spanning_tree(simplex_boundary(3), 2)
    assert gnarledness_upper(T, basis=[(RAT(1),)]) == 1
    assert gnarledness_upper(T, basis=[(RAT(1, 2),)]) == 2
    with pytest.raises(BasisIntegralityError):
        gnarledness_upper(T, basis=[(RAT(2),)])


def test_exact_tiny_guards():
    X = telescope_complex()
    T = greedy_spanning_tree(X, 1)
    big = SpanningTree(X, 1, T.cells)
    # guards are on rank and class count, exercised via a fake wide basis
    with pytest.raises(TreeError):
        gnarledness_exact_tiny(_fake_rank3_tree(), 2)


def _fake_rank3_tree():
    # three disjoint circles: H_1(X, T) has rank 3 for a spanning forest
    tris = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)]
    X = build_complex(tris)
    return greedy_spanning_tree(X, 1)


def test_telescope_complex_shape():
    X = telescope_complex()
    assert [X.n_cells(k) for k in range(3)] == [12, 28, 16]
    from coiso.homalg import betti_numbers
    assert betti_numbers(X) == [1, 1, 0]


# -- relative classes and the 0-wrapping tree against the per-cell rule --------

def _classes_by_cell_solves(T):
    """Reference classes: one solve of [ext | tree | boundaries] x = e_q per
    k-cell q, keeping the ext-part x[:d]."""
    X, k = T.X, T.k
    ext = T.rel_data()["basis_cells"]
    d = len(ext)
    cols = [{j: 1} for j in ext] + [{j: 1} for j in sorted(T.cells)]
    if k + 1 <= X.dim:
        cols += boundary_matrix(X, k + 1).col_dicts()
    rows = [dict() for _ in range(X.n_cells(k))]
    for c, col in enumerate(cols):
        for i, v in col.items():
            rows[i][c] = v
    solver = RationalSolver(rows, len(cols))
    return [tuple(solver.solve([int(i == q) for i in range(len(rows))])[:d])
            for q in range(len(rows))]


def _reference_tree(T):
    """The same tree, its relative classes taken from the per-cell rule."""
    rel = {"basis_cells": T.rel_data()["basis_cells"],
           "classes": _classes_by_cell_solves(T)}
    return SpanningTree(T.X, T.k, T.cells, _rel=rel)


REL_CORPUS = [
    (_fake_rank3_tree().X, 1),
    (telescope_complex(), 1),
    (telescope_complex(), 2),
    (edgewise_subdivide(simplex_boundary(3), 2).result, 1),
    (edgewise_subdivide(simplex_boundary(3), 2).result, 2),
    (edgewise_subdivide(simplex_boundary(3), 4).result, 1),
    (edgewise_subdivide(simplex_boundary(3), 4).result, 2),
]


@pytest.mark.parametrize("X,k", REL_CORPUS, ids=lambda v: repr(v))
def test_relative_classes_match_per_cell_solves(X, k):
    T = greedy_spanning_tree(X, k)
    assert T.rel_data()["classes"] == _classes_by_cell_solves(T)


def test_relative_classes_of_telescope_circles_tree():
    T = telescope_circles_tree()
    assert len(T.rel_data()["basis_cells"]) > 0
    assert T.rel_data()["classes"] == _classes_by_cell_solves(T)


@pytest.mark.parametrize("X,k", REL_CORPUS, ids=lambda v: repr(v))
def test_lift_data_matches_the_per_cell_oracle(X, k):
    T = greedy_spanning_tree(X, k)
    U = wrapping_tree(X, k - 1)
    _lifts_match_the_oracle(LiftData(X, k, T, U), ReferenceLiftData(X, k, T, U),
                            _mod_z_draws(X, k, 6))


def test_lift_data_matches_the_per_cell_oracle_on_a_lattice_basis():
    T = telescope_circles_tree()
    X = T.X
    assert lifting_basis(T)[2] == "lattice"
    U = wrapping_tree(X, 0)
    _lifts_match_the_oracle(LiftData(X, 1, T, U), ReferenceLiftData(X, 1, T, U),
                            _mod_z_draws(X, 1, 6))


def test_lift_data_matches_the_per_cell_oracle_on_sweep_draws():
    # the lifts integral_fill makes in the k=2 sweep at L=8: alpha - eta, in
    # degree 1
    X, k = edgewise_subdivide(simplex_boundary(3), 8).result, 2
    ctx = get_fill_context(X, k)
    got = ctx.lift_data()
    want = ReferenceLiftData(X, k - 1, got.T, got.U)
    z0s = []
    for t in range(4):
        omega = sample_integral_coboundary(X, k, trial_rng(17, 8, t))
        eta = ctx.integral_system().solve([int(v) for v in
                                           omega.dense(X.n_cells(k))])
        alpha = linf_fill_rational(X, omega).alpha.dense(X.n_cells(k - 1))
        z0s.append([a - e for a, e in zip(alpha, eta)])
    _lifts_match_the_oracle(got, want, z0s)


def test_zero_wrapping_tree_is_smallest_vertex_per_component():
    X = build_complex([(5, 6, 7), (0, 1, 2), (3, 4), (8,)])
    assert wrapping_tree(X, 0).cells == (0, 3, 5, 8)


@pytest.mark.parametrize("X", [X for X, _ in CORPUS + REL_CORPUS],
                         ids=lambda v: repr(v))
def test_zero_wrapping_tree_matches_greedy_rank_rule(X):
    # reference: after all edge boundaries, keep each vertex that raises the rank
    rk = IncrementalRank()
    if X.dim >= 1:
        for col in boundary_matrix(X, 1).col_dicts():
            rk.try_add(col)
    greedy = tuple(v for v in range(X.n_cells(0)) if rk.try_add({v: 1}))
    assert wrapping_tree(X, 0).cells == greedy


def _lifts_match_the_oracle(got, want, z0s):
    """b~ and every lift of the tree-system LiftData equal the per-cell
    oracle's; each z0 is lifted as given and as ints over its denominator."""
    assert got.b_tilde == want.b_tilde
    assert got.bound == want.bound
    for z0 in z0s:
        lifted = got.lift(z0)
        assert lifted == want.lift(z0)
        assert all(type(v) is RAT for v in lifted)
        D, ints = scale_to_ints(z0)
        assert got.lift(ints, D) == lifted


def _mod_z_draws(X, k, count, seed=13):
    """Rational cocycles from random_mod_z_cocycle draws."""
    up = get_fill_context(X, k + 1) if k + 1 <= X.dim else None
    return [_any_cocycle_lift(up, random_mod_z_cocycle(
                X, k, trial_rng(seed, k, t)).dense(X.n_cells(k)))
            for t in range(count)]


@pytest.mark.parametrize("k", [1, 2])
def test_lift_data_unchanged_against_per_cell_classes(k):
    X = edgewise_subdivide(simplex_boundary(3), 4).result
    T = greedy_spanning_tree(X, k)
    ref = _reference_tree(T)
    assert lifting_basis(T) == lifting_basis(ref)
    U = wrapping_tree(X, k - 1)
    got, want = LiftData(X, k, T, U), ReferenceLiftData(X, k, ref, U)
    _lifts_match_the_oracle(got, want, _mod_z_draws(X, k, 4))
    assert got.g_upper == want.g_upper
    if k == 2:
        assert got.b_tilde


# -- the exact checks still raise on corrupted data ------------------------------

def _drop_last_pivot(greedy_basis):
    """greedy_basis as if the kernel had lost its last pivot."""
    def corrupted(vectors, n):
        picks, rank = greedy_basis(vectors, n)
        return picks[:-1], rank - 1
    return corrupted


@pytest.mark.parametrize("X,k,d", [
    (edgewise_subdivide(simplex_boundary(3), 2).result, 1, 0),
    (simplex_boundary(3), 2, 1),
    (telescope_complex(), 1, 1),
], ids=["sphere-L2-k1", "sphere-k2", "telescope-k1"])
def test_relative_class_rank_check_raises(X, k, d, monkeypatch):
    tree = set(greedy_spanning_tree(X, k).cells)
    assert len(_relative_classes(X, k, tree)["basis_cells"]) == d
    monkeypatch.setattr(trees, "greedy_basis",
                        _drop_last_pivot(trees.greedy_basis))
    with pytest.raises(TreeError, match="rank check"):
        _relative_classes(X, k, tree)


def test_wrapping_check_catches_a_cycle_that_bounds():
    # T plus one non-tree edge has one cycle, as H_1 of the telescope needs;
    # the tree is a wrapping tree exactly when that cycle does not bound
    X = telescope_complex()
    T = greedy_spanning_tree(X, 1)
    rk = IncrementalRank()
    for c in [{j: 1} for j in T.cells] + boundary_matrix(X, 2).col_dicts():
        rk.try_add(c)
    bounding = 0
    for e in range(X.n_cells(1)):
        if e in T.cells:
            continue
        U = WrappingTree(X, 1, tuple(sorted(T.cells + (e,))))
        if rk.reduce({e: 1})[1] is not None:     # e is independent
            _verify_wrapping(U)
        else:
            bounding += 1
            with pytest.raises(TreeError, match="bounds in X"):
                _verify_wrapping(U)
    assert bounding
