"""The dual certificate built from its support, against the full-system
construction of reference_dual.py, through the real HiGHS guesses; and the
one factorization of D^T (B_k) that a FillContext owns."""

import random

import pytest

from coiso.complexes import build_complex, cycle_complex, simplex_boundary
from coiso.exact import RAT
from coiso.filling import (coiso_constants_tiny, get_fill_context, integral_fill,
                           linf_fill_rational, sample_integral_coboundary,
                           trial_rng)
from coiso.homalg import Cochain, betti_numbers, boundary_matrix
from coiso.linalg import RationalSolver
from coiso.lp import LinfProblem
from coiso.subdivision import edgewise_subdivide
from reference_dual import dual_against_reference
from test_torsion import rp2


def torus(n):
    """The n x n grid torus, each square cut along its diagonal (b_1 = 2)."""
    def v(i, j):
        return (i % n) * n + j % n
    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return build_complex(tris)


CASES = [
    *((f"torus{n}", torus(n), k) for n in (3, 4) for k in (1, 2)),
    *((f"RP2-L{L}", rp2(L), k) for L in (1, 2) for k in (1, 2)),
    *(("dDelta3-L3", edgewise_subdivide(simplex_boundary(3), 3).result, k)
      for k in (1, 2)),
    *(("dDelta4", simplex_boundary(4), k) for k in (1, 2, 3)),
    ("C6", cycle_complex(6), 1),
]

_VALUES = (1, -1, 2, RAT(1, 2), RAT(-2, 3), RAT(3, 5))


def _rational_coboundaries(X, k, seed, count):
    """omega = delta(alpha) for sparse random rational (k-1)-cochains alpha."""
    delta = boundary_matrix(X, k).transpose()
    rng = random.Random(seed)
    for _ in range(count):
        alpha = [rng.choice(_VALUES) if rng.random() < 0.5 else 0
                 for _ in range(delta.ncols)]
        yield [sum((v * alpha[j] for j, v in r.items()), RAT(0)) for r in delta.rows]


def test_the_torus_has_two_one_cycles():
    assert betti_numbers(torus(3)) == betti_numbers(torus(4)) == [1, 2, 1]


@pytest.mark.parametrize("name,X,k", CASES, ids=[f"{c[0]}-k{c[2]}" for c in CASES])
def test_support_dual_certifies_the_reference_t(name, X, k):
    P = get_fill_context(X, k).lp
    guesses = certified = 0
    for omega in _rational_coboundaries(X, k, f"dual/{name}/{k}", 12):
        if not any(omega):
            continue
        g, c = dual_against_reference(P, omega)
        guesses += g
        certified += c
    assert certified > 0 and guesses >= certified


def test_a_fill_context_factors_its_boundary_once(monkeypatch):
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    B = boundary_matrix(X, 2)
    built = []
    init = RationalSolver.__init__

    def recorded(self, rows, ncols):
        built.append(([dict(r) for r in rows], ncols))
        init(self, rows, ncols)

    monkeypatch.setattr(RationalSolver, "__init__", recorded)
    for t in range(4):
        omega = sample_integral_coboundary(X, 2, trial_rng(22, 2, t))
        integral_fill(X, omega)
        linf_fill_rational(X, Cochain(2, {i: v / 3 for i, v in omega.entries.items()}))
    assert sum(n == B.ncols and rows == B.rows for rows, n in built) == 1


def test_the_duality_check_never_factors_d_transpose(monkeypatch):
    def refused(self):
        raise AssertionError("the duality check factored D^T")

    monkeypatch.setattr(LinfProblem, "transpose_solver", property(refused))
    assert coiso_constants_tiny(simplex_boundary(3), 2) == (RAT(1, 2), RAT(1, 2))
