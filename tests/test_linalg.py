"""The elimination kernel against reference copies of its older forms.

Particular solutions, and so every CLI artifact, depend on which columns
become pivots; the pivot queue in `_Echelon._eliminate` must reproduce
the order of re-sorting every live column on every pivot, exactly, under the
sparsest-row rule of `RationalSolver` and the unit-row rule of
`UnimodularEchelon` alike.  The greedy bases the kernel gives
(`greedy_basis`) must equal those of the incremental greedy rank in
`reference_rank.py`.  `solve`, `nullspace` and `mat_vec`, which work in
ints, must return exactly what the all-RAT solver in `reference_solver.py`
returns, and only RATs; `solve_int` must return exactly the int vectors of
the separate unimodular echelon there (`ReferenceUnimodular`).
"""

import random

import pytest

from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import _image_basis
from coiso.homalg import boundary_matrix
from coiso.linalg import (NeedsSmithForm, RationalSolver, UnimodularEchelon,
                          greedy_basis, mat_vec, residual_rows, scale_to_ints)
from coiso.subdivision import edgewise_subdivide
from coiso.trees import greedy_spanning_tree, telescope_complex

from reference_rank import greedy_reference
from reference_solver import (ReferenceSolver, ReferenceUnimodular,
                              reference_mat_vec)


def _state(E):
    return E.pivots, E.ops, E.rows, E.zero_rows, E.free_cols, E.rank


def _build(cls, rows, ncols):
    try:
        return _state(cls(rows, ncols))
    except NeedsSmithForm:
        return NeedsSmithForm


def assert_same_elimination(rows, ncols):
    for new, ref in ((RationalSolver, ReferenceSolver),
                     (UnimodularEchelon, ReferenceUnimodular)):
        got, want = _build(new, rows, ncols), _build(ref, rows, ncols)
        assert got == want, new.__name__


def _corpus():
    bases = [("dD2", simplex_boundary(2)), ("dD3", simplex_boundary(3)),
             ("C4", cycle_complex(4)), ("telescope", telescope_complex()),
             ("disk", build_complex([(0, 1, 2)]))]
    out = list(bases)
    for name, X in bases[:2]:
        out += [(f"{name}/L{L}", edgewise_subdivide(X, L).result)
                for L in (2, 3, 4)]
    return out


BOUNDARIES = [(f"{name}:d{k}", X, k) for name, X in _corpus()
              for k in range(1, X.dim + 1)]


@pytest.mark.parametrize("name,X,k", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_boundary_and_coboundary_pivot_like_reference(name, X, k):
    B = boundary_matrix(X, k)
    assert_same_elimination(B.rows, B.ncols)
    assert_same_elimination(B.col_dicts(), B.nrows)


def _random_rows(rng, m, n, density, values):
    rows = []
    for _ in range(m):
        r = {}
        for j in range(n):
            if rng.random() < density:
                r[j] = rng.choice(values)
        rows.append(r)
    return rows


def _integer_matrix(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 14), rng.randint(1, 14)
    values = [1, -1] if seed % 4 == 0 else [1, -1, 1, -1, 2, -2, 3]
    return rng, _random_rows(rng, m, n, rng.choice([0.15, 0.3, 0.5]), values), n


@pytest.mark.parametrize("seed", range(40))
def test_random_sparse_integer_matrices_pivot_like_reference(seed):
    _, rows, n = _integer_matrix(seed)
    assert_same_elimination(rows, n)


def test_column_without_unit_is_skipped_then_retried():
    # Column 0 is sparsest, but neither of its entries is a unit, so the first
    # pivot goes to column 1.  That pivot turns row 2's entry in column 0 into
    # 1 and leaves column 0 with two owners, as before; the queue must try it
    # again rather than forget it.
    rows = [{1: -2}, {0: -2, 1: -1}, {0: 3, 1: 1}]
    E = UnimodularEchelon(rows, 2)
    assert E.pivots == [(1, 1), (2, 0)]
    assert _state(E) == _state(ReferenceUnimodular(rows, 2))


def test_no_unit_pivot_raises_needs_smith_form_like_reference():
    # one pivot on column 0, then columns 1 and 2 hold only +-2
    rows = [{0: 2, 1: 4}, {0: 1, 1: 1, 2: 1}, {1: 2, 2: 2}]
    for cls in (UnimodularEchelon, ReferenceUnimodular):
        with pytest.raises(NeedsSmithForm):
            cls(rows, 3)
    assert _build(RationalSolver, rows, 3) == _build(ReferenceSolver, rows, 3)


# -- solve_int against the separate unimodular echelon ---------------------------

def check_solve_int_like_reference(rows, ncols, rng):
    """The same int vector (or None) as ReferenceUnimodular for consistent
    right-hand sides, as ints and as RATs, random ones and a unit right-hand
    side on each dependent row.  False when no unit-pivot echelon exists."""
    try:
        E = UnimodularEchelon(rows, ncols)
    except NeedsSmithForm:
        return False
    R = ReferenceUnimodular(rows, ncols)
    m = len(rows)
    consistent, other = [], []
    for _ in range(3):
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        b = [sum(v * x[j] for j, v in r.items()) for r in rows]
        consistent += [b, [RAT(v) for v in b]]
        other.append([rng.randint(-3, 3) for _ in range(m)])
    other += [[1 if i == z else 0 for i in range(m)] for z in E.zero_rows]
    for b in consistent + other:
        got = E.solve_int(b)
        assert got == R.solve_int(b)
        if got is not None:
            assert all(type(v) is int for v in got)
        else:
            assert b not in consistent
    return True


@pytest.mark.parametrize("name,X,k", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_solve_int_of_boundaries_like_reference(name, X, k):
    rng = random.Random(name)
    B = boundary_matrix(X, k)
    assert check_solve_int_like_reference(B.rows, B.ncols, rng)
    assert check_solve_int_like_reference(B.col_dicts(), B.nrows, rng)


def test_solve_int_of_random_integer_matrices_like_reference():
    built = 0
    for seed in range(40):
        rng, rows, n = _integer_matrix(seed)
        built += check_solve_int_like_reference(rows, n, rng)
    assert built >= 20


# -- greedy_basis against the incremental greedy rank ---------------------------

def assert_greedy_like_reference(vectors, n):
    assert greedy_basis(vectors, n) == greedy_reference(vectors)


@pytest.mark.parametrize("name,X,k", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_greedy_basis_of_boundary_columns_like_reference(name, X, k):
    B = boundary_matrix(X, k)
    assert_greedy_like_reference(B.col_dicts(), B.nrows)
    assert_greedy_like_reference(B.rows, B.ncols)


EXTENSIONS = [(f"{name}:k{k}", X, k) for name, X in _corpus()
              for k in range(X.dim + 1)]


@pytest.mark.parametrize("name,X,k", EXTENSIONS, ids=[e[0] for e in EXTENSIONS])
def test_greedy_basis_of_extension_blocks_like_reference(name, X, k):
    # [tree units | (k+1)-boundaries | units of the non-tree cells]
    tree = greedy_spanning_tree(X, k).cells
    nk = X.n_cells(k)
    vectors = [{j: 1} for j in tree]
    if k + 1 <= X.dim:
        vectors += boundary_matrix(X, k + 1).col_dicts()
    vectors += [{j: 1} for j in range(nk) if j not in tree]
    assert_greedy_like_reference(vectors, nk)


@pytest.mark.parametrize("seed", range(40))
def test_greedy_basis_of_random_sparse_matrices_like_reference(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.randint(1, 14), rng.randint(1, 14)
    values = [1, -1] if seed % 4 == 0 else [1, -1, 1, -1, 2, -2, 3]
    rows = _random_rows(rng, m, n, rng.choice([0.15, 0.3, 0.5]), values)
    # repeated rows, scaled copies and zero rows are dependent on earlier ones
    for _ in range(rng.randint(1, 4)):
        pick = rng.randrange(len(rows))
        scale = rng.choice([1, -1, 2])
        rows.insert(rng.randrange(len(rows) + 1),
                    {j: scale * v for j, v in rows[pick].items()})
        rows.insert(rng.randrange(len(rows) + 1), {})
    assert_greedy_like_reference(rows, n)


def test_greedy_basis_prefers_earlier_rows_over_sparser_ones():
    # row 2 = row 0 + row 1 is sparser than row 0 in column 0, but is the
    # dependent one: it comes last
    rows = [{0: 1, 1: 1, 2: 1}, {2: -1}, {0: 1, 1: 1}]
    assert greedy_basis(rows, 3) == ([0, 1], 2) == greedy_reference(rows)


@pytest.mark.parametrize("k", [1, 2])
def test_image_basis_on_sphere_like_reference(k):
    B = boundary_matrix(simplex_boundary(3), k)
    cols = B.col_dicts()
    picks, _ = greedy_reference(cols)
    want = [[RAT(cols[j].get(i, 0)) for i in range(B.nrows)] for j in picks]
    assert _image_basis(B.rows, B.ncols, B.nrows) == want
    delta = B.transpose()
    dcols = delta.col_dicts()
    picks, _ = greedy_reference(dcols)
    want = [[RAT(dcols[j].get(i, 0)) for i in range(delta.nrows)] for j in picks]
    assert _image_basis(delta.rows, delta.ncols, delta.nrows) == want


# -- solve, nullspace and mat_vec against the all-RAT reference -----------------

def _rational_vector(rng, n):
    """Mixed ints and RATs with denominators 1, 2, 3, 5 and 6, some zero."""
    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            out.append(rng.choice([0, RAT(0)]))
        elif rng.random() < 0.3:
            out.append(rng.randint(-3, 3))
        else:
            out.append(RAT(rng.randint(-7, 7), rng.choice([1, 2, 3, 5, 6])))
    return out


def _all_rats(values):
    return all(type(v) is RAT for v in values)


def assert_solver_like_reference(rows, ncols, rng):
    """Same pivots, nullspace, and solutions (or None) for consistent,
    mixed-denominator and inconsistent right-hand sides; RATs only."""
    S, R = RationalSolver(rows, ncols), ReferenceSolver(rows, ncols)
    assert (S.pivots, S.rank, S.zero_rows) == (R.pivots, R.rank, R.zero_rows)
    null = S.nullspace()
    assert null == R.nullspace()
    assert all(_all_rats(z.values()) for z in null)
    m = len(rows)
    rhs = []
    for _ in range(3):
        x = _rational_vector(rng, ncols)
        got = mat_vec(rows, x)
        assert got == reference_mat_vec(rows, x) and _all_rats(got)
        rhs.append(got)                          # consistent
        rhs.append(_rational_vector(rng, m))     # consistent only if full rank
    rhs += [[1 if i == z else 0 for i in range(m)] for z in S.zero_rows]
    for b in rhs:
        x = S.solve(b)
        assert x == R.solve(b)
        if x is not None:
            assert _all_rats(x)
    for z in S.zero_rows:                        # a dependent row's unit rhs
        assert S.solve([RAT(1) if i == z else 0 for i in range(m)]) is None
    return S


@pytest.mark.parametrize("name,X,k", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_solve_and_nullspace_of_boundaries_like_reference(name, X, k):
    rng = random.Random(name)
    B = boundary_matrix(X, k)
    assert_solver_like_reference(B.rows, B.ncols, rng)
    assert_solver_like_reference(B.col_dicts(), B.nrows, rng)


def _non_unit_matrix(seed):
    rng = random.Random(2000 + seed)
    m, n = rng.randint(2, 12), rng.randint(2, 12)
    return rng, _random_rows(rng, m, n, rng.choice([0.2, 0.35, 0.5]),
                             [1, -1, 2, -2, 3, -3]), n


@pytest.mark.parametrize("seed", range(40))
def test_solve_and_nullspace_with_non_unit_pivots_like_reference(seed):
    rng, rows, n = _non_unit_matrix(seed)
    assert_solver_like_reference(rows, n, rng)


def test_random_matrices_reach_non_unit_pivots_and_fractions():
    non_unit = fractional = inconsistent = 0
    for seed in range(40):
        _, rows, n = _non_unit_matrix(seed)
        S = RationalSolver(rows, n)
        if any(S.rows[p][c] not in (1, -1) for p, c in S.pivots):
            non_unit += 1
        if any(type(v) is not int for r in S.rows for v in r.values()):
            fractional += 1
        inconsistent += len(S.zero_rows) > 0
    assert non_unit >= 20 and fractional >= 5 and inconsistent >= 10


@pytest.mark.parametrize("rows", [
    [{0: RAT(2), 1: RAT(3)}, {0: 4, 1: RAT(1, 2)}, {1: RAT(6, 3)}],
    # the pivot 2 and factor 1/2 leave 3 - 1/2 * 2 = 2 in row 1
    [{0: 2, 1: 2}, {0: 1, 1: 3}],
], ids=["input", "elimination"])
def test_rows_hold_ints_and_rats_only_off_the_integers(rows):
    S = RationalSolver(rows, 2)
    for r in S.rows:
        for v in r.values():
            assert type(v) is int or (type(v) is RAT and v.denominator != 1)
    assert all(type(f) is int or f.denominator != 1 for _, _, f in S.ops)


def test_solve_divides_by_the_given_denominator():
    rng, rows, n = _non_unit_matrix(3)
    S = RationalSolver(rows, n)
    x = [RAT(v) for v in range(1, n + 1)]
    b = mat_vec(rows, x)
    want = S.solve(b)
    got = S.solve(scale_to_ints(b)[1], scale_to_ints(b)[0] * 7)
    assert got == [v / 7 for v in want] and _all_rats(got)


def test_scale_to_ints_takes_the_lcm_of_the_denominators():
    assert scale_to_ints([1, RAT(1, 2), RAT(-2, 3), 0, RAT(4)]) == (6, [6, 3, -4, 0, 24])
    D, xs = scale_to_ints([3, RAT(5), 0])
    assert (D, xs) == (1, [3, 5, 0]) and all(type(v) is int for v in xs)


@pytest.mark.parametrize("seed", range(10))
def test_residual_rows_like_reference(seed):
    rng, rows, n = _non_unit_matrix(seed)
    x = _rational_vector(rng, n)
    b = reference_mat_vec(rows, x)
    assert residual_rows(rows, x, b) == []
    bumped = list(b)
    for i in rng.sample(range(len(b)), min(2, len(b))):
        bumped[i] += RAT(1, 3)
    assert residual_rows(rows, x, bumped) == \
        [i for i, (u, v) in enumerate(zip(b, bumped)) if u != v]
