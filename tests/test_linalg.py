"""The elimination kernel against a reference copy of its sorted-rescan loop.

Particular solutions, and so every CLI artifact, depend on which columns
become pivots; the pivot queue in `_Echelon._eliminate` must reproduce the
order of re-sorting every live column on every pivot, exactly.  The greedy
bases the kernel gives (`greedy_basis`) must equal those of the incremental
greedy rank in `reference_rank.py`.
"""

import random

import pytest

from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import _image_basis
from coiso.homalg import boundary_matrix
from coiso.linalg import (NeedsSmithForm, RationalSolver, UnimodularEchelon,
                          greedy_basis)
from coiso.subdivision import edgewise_subdivide
from coiso.trees import greedy_spanning_tree, telescope_complex

from reference_rank import greedy_reference


def _reference_eliminate(self):
    """The kernel's loop before the pivot queue: sort all candidates per pivot."""
    rows = self.rows
    active = set(range(self.m))
    col_rows = {}
    for i in active:
        for j in rows[i]:
            col_rows.setdefault(j, set()).add(i)

    while True:
        cands = sorted((len(owners), j) for j, owners in col_rows.items() if owners)
        pick = None
        for _, j in cands:
            prow = self._pick_row(j, col_rows[j])
            if prow is not None:
                pick = (j, prow)
                break
        if pick is None:
            break
        col, prow = pick
        pval = rows[prow][col]
        for t in sorted(col_rows[col] - {prow}):
            f = self._factor(rows[t][col], pval)
            self.ops.append((t, prow, f))
            rt = rows[t]
            for j, v in rows[prow].items():
                nv = rt.get(j, 0) - f * v
                if nv:
                    if j not in rt:
                        col_rows.setdefault(j, set()).add(t)
                    rt[j] = nv
                elif j in rt:
                    del rt[j]
                    col_rows[j].discard(t)
        self.pivots.append((prow, col))
        active.discard(prow)
        for j in rows[prow]:
            owners = col_rows.get(j)
            if owners is not None:
                owners.discard(prow)

    if any(rows[i] for i in active):
        self._stuck()


class _ReferenceRational(RationalSolver):
    _eliminate = _reference_eliminate


class _ReferenceUnimodular(UnimodularEchelon):
    _eliminate = _reference_eliminate


def _state(E):
    return E.pivots, E.ops, E.rows, E.zero_rows, E.free_cols, E.rank


def _build(cls, rows, ncols):
    try:
        return _state(cls(rows, ncols))
    except NeedsSmithForm:
        return NeedsSmithForm


def assert_same_elimination(rows, ncols):
    for new, ref in ((RationalSolver, _ReferenceRational),
                     (UnimodularEchelon, _ReferenceUnimodular)):
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


@pytest.mark.parametrize("seed", range(40))
def test_random_sparse_integer_matrices_pivot_like_reference(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 14), rng.randint(1, 14)
    values = [1, -1] if seed % 4 == 0 else [1, -1, 1, -1, 2, -2, 3]
    rows = _random_rows(rng, m, n, rng.choice([0.15, 0.3, 0.5]), values)
    assert_same_elimination(rows, n)


def test_column_without_unit_is_skipped_then_retried():
    # Column 0 is sparsest, but neither of its entries is a unit, so the first
    # pivot goes to column 1.  That pivot turns row 2's entry in column 0 into
    # 1 and leaves column 0 with two owners, as before; the queue must try it
    # again rather than forget it.
    rows = [{1: -2}, {0: -2, 1: -1}, {0: 3, 1: 1}]
    E = UnimodularEchelon(rows, 2)
    assert E.pivots == [(1, 1), (2, 0)]
    assert _state(E) == _state(_ReferenceUnimodular(rows, 2))


def test_no_unit_pivot_raises_needs_smith_form_like_reference():
    # one pivot on column 0, then columns 1 and 2 hold only +-2
    rows = [{0: 2, 1: 4}, {0: 1, 1: 1, 2: 1}, {1: 2, 2: 2}]
    for cls in (UnimodularEchelon, _ReferenceUnimodular):
        with pytest.raises(NeedsSmithForm):
            cls(rows, 3)
    assert _build(RationalSolver, rows, 3) == _build(_ReferenceRational, rows, 3)


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
