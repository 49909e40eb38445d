"""The elimination kernel against a reference copy of its sorted-rescan loop.

Particular solutions, and so every CLI artifact, depend on which columns
become pivots; the pivot queue in `_Echelon._eliminate` must reproduce the
order of re-sorting every live column on every pivot, exactly.
"""

import random

import pytest

from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.homalg import boundary_matrix
from coiso.linalg import NeedsSmithForm, RationalSolver, UnimodularEchelon
from coiso.subdivision import edgewise_subdivide
from coiso.trees import telescope_complex


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
