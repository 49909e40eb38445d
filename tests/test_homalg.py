import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coiso.exact import RAT
from coiso.complexes import (build_complex, build_grid_cube_complex,
                             cycle_complex, simplex_boundary)
from coiso.homalg import (Chain, Cochain, HomalgError, IntegerMatrix,
                          IntegralSystem, apply_coboundary, betti_numbers, boundary_matrix,
                          euclid_step, norm_inf, pairing, smith_normal_form,
                          solve_integral_linear, volume_norm)
from coiso.lp import LinfProblem, LPError
from coiso.subdivision import edgewise_subdivide

from intmatrix import matmul
from reference_solver import reference_smith_normal_form

CORPUS = [
    build_complex([(0, 1, 2)]),
    cycle_complex(4),
    simplex_boundary(3),
    build_grid_cube_complex(2, 2),
    build_grid_cube_complex(3, 2),
]


def test_single_edge_boundary_column():
    X = build_complex([(0, 1)])
    B = boundary_matrix(X, 1)
    assert B.dense() == [[-1], [1]]


def test_sphere_boundary_rank():
    B = boundary_matrix(simplex_boundary(3), 2)
    assert (B.nrows, B.ncols) == (6, 4)
    assert B.rank() == 3


def test_dd_zero_on_triangle():
    X = build_complex([(0, 1, 2)])
    assert not any(matmul(boundary_matrix(X, 1), boundary_matrix(X, 2)).rows)


@pytest.mark.parametrize("X", CORPUS, ids=lambda X: repr(X))
def test_dd_zero_everywhere(X):
    for k in range(2, X.dim + 1):
        assert not any(matmul(boundary_matrix(X, k - 1), boundary_matrix(X, k)).rows)


@pytest.mark.parametrize("k", [1, 2])
def test_transpose_twice_is_the_matrix_with_nonzero_int_rows(k):
    X = edgewise_subdivide(simplex_boundary(3), 16).result
    B = boundary_matrix(X, k)
    T = B.transpose()
    assert (T.nrows, T.ncols) == (B.ncols, B.nrows)
    assert T.transpose() == B
    assert all(type(j) is int and type(v) is int and v
               for M in (B, T) for r in M.rows for j, v in r.items())
    assert T.rows == IntegerMatrix(B.ncols, B.nrows, B.col_dicts()).rows


def test_boundary_k_out_of_range():
    with pytest.raises(HomalgError):
        boundary_matrix(cycle_complex(4), 2)


def test_betti_examples():
    assert betti_numbers(simplex_boundary(3)) == [1, 0, 1]
    assert betti_numbers(cycle_complex(4)) == [1, 1]
    assert betti_numbers(build_complex([(0, 1, 2)])) == [1, 0, 0]


def test_betti_grid_is_contractible():
    assert betti_numbers(build_grid_cube_complex(2, 2)) == [1, 0, 0]
    assert betti_numbers(build_grid_cube_complex(3, 2)) == [1, 0, 0, 0]


# -- Smith normal form --------------------------------------------------------

def assert_valid_snf(M):
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    assert D == reference_smith_normal_form(M)[1]
    diag = [D[i, i] for i in range(min(M.nrows, M.ncols))]
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    for i, row in enumerate(D.rows):
        assert all(i == j for j in row)
    # unimodularity: integer inverses exist
    for W in (U, V):
        for i in range(W.nrows):
            e = [1 if t == i else 0 for t in range(W.nrows)]
            assert solve_integral_linear(W, e) is not None
    return diag


def test_snf_diag_2_3():
    d = assert_valid_snf(IntegerMatrix(2, 2, [{0: 2}, {1: 3}]))
    assert [x for x in d if x] == [1, 6]


def test_snf_zero_and_identity():
    assert assert_valid_snf(IntegerMatrix(2, 3)) == [0, 0]
    d = assert_valid_snf(IntegerMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}]))
    assert d == [1, 1, 1]


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_snf_random(m, n, seed):
    rng = random.Random(seed)
    M = IntegerMatrix(m, n, [{j: rng.randint(-6, 6) for j in range(n)
                              if rng.random() < 0.7} for _ in range(m)])
    assert_valid_snf(M)


def test_euclid_step_leaves_one_entry_in_first_among_equals_order():
    vecs = {"a": [6, 1], "b": [-4, 0], "c": [4, 5], "d": [3, 0]}

    def subtract(k, p, q):
        vecs[k] = [x - q * y for x, y in zip(vecs[k], vecs[p])]

    piv, cleared = euclid_step("abcd", lambda k: vecs[k][0], subtract)
    # d (3) leaves b = 2 and c = 1 and clears a; then c clears b and d
    assert (piv, cleared) == ("c", ["a", "b", "d"])
    assert vecs == {"a": [0, 1], "b": [0, -10], "c": [1, 5], "d": [0, -15]}
    # a tie keeps the first key: x clears y
    vecs.update(x=[2, 0], y=[-2, 1])
    assert euclid_step("xy", lambda k: vecs[k][0], subtract) == ("x", ["y"])
    assert euclid_step([], None, None) == (None, [])
    assert euclid_step(["x"], None, None) == ("x", [])


def test_snf_agrees_with_betti_on_corpus():
    # rank from the SNF diagonal equals the rational rank used by betti
    for X in CORPUS:
        for k in range(1, X.dim + 1):
            B = boundary_matrix(X, k)
            _, D, _ = smith_normal_form(B)
            snf_rank = sum(1 for i in range(min(B.nrows, B.ncols)) if D[i, i])
            assert snf_rank == B.rank()


# -- integral solving ----------------------------------------------------------

def test_parity_obstruction():
    assert solve_integral_linear(IntegerMatrix(1, 1, [{0: 2}]), [3]) is None


def test_simple_solvable():
    M = IntegerMatrix(1, 2, [{0: 1, 1: 1}])
    x = solve_integral_linear(M, [1])
    assert x is not None and M.mat_vec(x) == [1]


def test_c4_coboundary_solvable():
    X = cycle_complex(4)
    delta = boundary_matrix(X, 1).transpose()
    b = [1, 0, -1, 0]
    x = solve_integral_linear(delta, b)
    assert x is not None
    assert delta.mat_vec(x) == b
    # brute-force confirmation that integer solutions exist in a small box
    found = False
    for cand in product(range(-2, 3), repeat=4):
        if delta.mat_vec(list(cand)) == b:
            found = True
            break
    assert found


# an integer matrix sends integer vectors to integer vectors, so a rhs that
# is not integral has no integer solution; it is never truncated to one
@pytest.mark.parametrize("rows,b,block", [
    ([{0: 1}], [RAT(1, 2)], (0, 0)),
    ([{0: 1}, {1: 1}], [1, RAT(-1, 3)], (0, 0)),
    ([{0: 2}], [RAT(5, 2)], (1, 1)),
    # no +-1 entry: no unit pivot, and the Smith form of the whole block solves
    ([{0: 2, 1: 3}, {0: 4, 1: 5}], [RAT(1, 2), 0], (2, 2)),
    ([{0: 2, 1: 3}, {0: 4, 1: 5}], [0, RAT(7, 3)], (2, 2)),
], ids=["unit", "unit-2x2", "snf-1x1", "snf-2x2-a", "snf-2x2-b"])
def test_non_integral_rhs_has_no_integer_solution(rows, b, block):
    M = IntegerMatrix(len(rows), max(j for r in rows for j in r) + 1, rows)
    assert IntegralSystem(M.rows, M.ncols).block_shape == block
    assert solve_integral_linear(M, b) is None


@pytest.mark.parametrize("rows,b,x", [
    ([{0: 1}, {1: 1}], [RAT(3), RAT(-1)], [3, -1]),
    ([{0: 2}], [RAT(6)], [3]),
    ([{0: 2, 1: 3}, {0: 4, 1: 5}], [RAT(1), RAT(1)], [-1, 1]),
], ids=["unit", "snf-1x1", "snf-2x2"])
def test_integral_rationals_in_the_rhs_still_solve(rows, b, x):
    M = IntegerMatrix(len(rows), len(x), rows)
    got = solve_integral_linear(M, b)
    assert got == x and all(type(v) is int for v in got)


# every integer-matrix constructor reads its entries by one rule: an int or
# an integral rational is kept as an int, and anything else raises, since a
# truncated entry changes the matrix (an LP row 3/2 a0 + a1 read as a0 + a1
# certifies the wrong optimum)
CONSTRUCTORS = {
    "IntegerMatrix": (lambda rows: IntegerMatrix(len(rows), 2, rows).rows,
                      HomalgError),
    "IntegralSystem": (lambda rows: IntegralSystem(rows, 2).rows, HomalgError),
    "LinfProblem": (lambda rows: LinfProblem(rows, 2).rows, LPError),
}


@pytest.mark.parametrize("bad", [RAT(1, 2), 1.7, RAT(3, 2), True],
                         ids=["half", "float", "three-halves", "bool"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_integer_matrix_constructors_refuse_a_non_integer_entry(name, bad):
    build, error = CONSTRUCTORS[name]
    with pytest.raises(error, match=rf"^{name}: entry .* at row 1, column 0 "
                                    r"is not an integer$"):
        build([{0: 1, 1: 1}, {0: bad, 1: 1}])


@pytest.mark.parametrize("bad", [1.7, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_integer_matrix_constructors_refuse_a_non_integer_column(name, bad):
    # int() would read 1.7 as column 1, and True is not the index 1
    build, error = CONSTRUCTORS[name]
    with pytest.raises(error, match=rf"^{name}: column .* of row 0 is not an "
                                    r"integer index$"):
        build([{0: 1, bad: 2}])


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_integer_matrix_constructors_keep_integral_rationals_as_ints(name):
    build, _ = CONSTRUCTORS[name]
    rows = build([{0: RAT(2), 1: RAT(0)}, {0: 0, 1: RAT(-3)}])
    assert rows == [{0: 2}, {1: -3}]
    assert all(type(v) is int for r in rows for v in r.values())


def test_integral_solve_dimension_mismatch():
    with pytest.raises(HomalgError):
        solve_integral_linear(IntegerMatrix(2, 2), [1])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_integral_solve_vs_brute_force(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    M = IntegerMatrix(m, n, [{j: rng.randint(-3, 3) for j in range(n)
                              if rng.random() < 0.8} for _ in range(m)])
    b = [rng.randint(-3, 3) for _ in range(m)]
    x = solve_integral_linear(M, b)
    if x is not None:
        assert M.mat_vec(x) == b
    else:
        for cand in product(range(-9, 10), repeat=n):
            assert M.mat_vec(list(cand)) != b


# -- norms, pairing, cochain plumbing ------------------------------------------

def test_norms():
    c = Cochain(1, {0: 1, 1: -3, 2: 2}, "int")
    assert norm_inf(c) == 3
    assert volume_norm(Chain(1, {0: 1, 1: -3, 2: 2}, "int")) == 6
    assert norm_inf(Cochain(0, {}, "int")) == 0
    assert norm_inf(Cochain(0, {0: RAT(1, 2), 1: RAT(-1, 2)}, "rat")) == RAT(1, 2)


def test_pairing_and_coboundary():
    X = build_complex([(0, 1, 2)])
    alpha = Cochain(1, {0: 2, 1: -1}, "int")
    d = apply_coboundary(X, alpha)
    # delta(alpha)(012) = a(12) - a(02) + a(01)
    assert d(0) == 2 * 1 + (-1) * (-1)
    c = Chain(1, {0: 1, 2: 5}, "int")
    assert pairing(alpha, c) == 2


def test_cochain_json_roundtrip():
    c = Cochain(2, {3: RAT(1, 2), 0: -2}, "rat")
    d = Cochain.from_json_dict(c.to_json_dict())
    assert d.k == c.k and d.entries == c.entries and d.ring == c.ring


@pytest.mark.parametrize("entries", [[[0, "1"], [0, "-1"]],
                                     [[0, "1"], [2, "1/2"], [0, "0"]],
                                     [[4, 1], [4, 1]]])
def test_cochain_json_rejects_a_repeated_cell(entries):
    with pytest.raises(HomalgError, match=r"malformed cochain JSON: repeated cell"):
        Cochain.from_json_dict({"k": 1, "entries": entries})


def test_cochain_keeps_rationals_and_normalizes_the_rest():
    half = RAT(1, 2)
    c = Cochain(1, {0: half, np.int64(1): 3, 2: RAT(0), 3: "-2/4"}, "rat")
    assert c.entries == {0: half, 1: 3, 3: RAT(-1, 2)}
    assert c.entries[0] is half
    assert all(type(i) is int for i in c.entries)
    assert all(type(v) is RAT for v in c.entries.values())


@pytest.mark.parametrize("i", [1.5, 1.0, "3", True, False, np.True_],
                         ids=["float", "integral-float", "str", "true", "false",
                              "numpy-bool"])
def test_cochain_refuses_a_cell_index_that_is_not_an_integer(i):
    with pytest.raises(HomalgError, match="cell index .* is not an integer"):
        Cochain(1, {i: 1})


def test_int_ring_tag_enforced():
    with pytest.raises(HomalgError):
        Cochain(1, {0: RAT(1, 2)}, "int")


def test_cochain_reads_ints_directly_and_keeps_every_refusal():
    c = Cochain(1, {0: 2, 1: 0, 2: -3, 3: RAT(4, 2)}, "int")
    assert c.entries == {0: 2, 2: -3, 3: 2}
    assert all(type(v) is RAT for v in c.entries.values())
    assert Cochain(1, {0: 1, 1: RAT(1, 2)}, "rat").entries == {0: 1, 1: RAT(1, 2)}
    with pytest.raises(TypeError, match="floats are not accepted"):
        Cochain(1, {0: 1, 1: 1.0})
    with pytest.raises(HomalgError, match="cell index True is not an integer"):
        Cochain(1, {0: 1, True: 1})
    with pytest.raises(HomalgError, match="unknown ring tag 'real'"):
        Cochain(1, {0: 1}, "real")
    with pytest.raises(HomalgError, match="ring tag 'int' but entries are not integers"):
        Cochain(1, {0: 1, 1: RAT(1, 2), 2: 3}, "int")
