"""A seeded corpus of Linial-Meshulam random 2-complexes.

Y_2(n, p) is the full 1-skeleton on n vertices with each triangle kept with
probability p = c/n (Linial and Meshulam, Combinatorica 2006).  Near c = 2-3
their boundary maps are far from the spheres of the benchmark: non-unit
pivots, cycles and back-substitutions with denominators above 1.  So the
fills, the integral solves and the exact (denominator, ints) exits of the
kernel are checked here against independent references.
"""

import random
from itertools import combinations

import pytest

from coiso import linalg
from coiso.complexes import build_complex
from coiso.exact import RAT
from coiso.filling import integral_fill, linf_fill_rational
from coiso.homalg import (Cochain, IntegralSystem, apply_coboundary,
                          coboundary_matrix, norm_inf)

from reference_solver import reference_snf_solve

CORPUS = [(n, c, s) for n in range(10, 15) for c in (2, 3) for s in range(2)]


def linial_meshulam(n, c, s):
    """Y_2(n, c/n), seeded by (n, c, s)."""
    rng = random.Random(f"lm/{n}/{c}/{s}")
    tops = list(combinations(range(n), 2))
    tops += [t for t in combinations(range(n), 3) if rng.random() < c / n]
    return build_complex(tops)


def random_coboundary(X, k, rng):
    """delta of a random integer (k-1)-cochain with entries in -2..2."""
    beta = Cochain(k - 1, {i: rng.randint(-2, 2) for i in range(X.n_cells(k - 1))},
                   "int")
    return apply_coboundary(X, beta)


@pytest.fixture(scope="module")
def corpus():
    return {key: linial_meshulam(*key) for key in CORPUS}


@pytest.mark.parametrize("key", CORPUS, ids=str)
def test_boundary_of_boundary_is_zero(corpus, key):
    X = corpus[key]
    edges = X.boundary_cols(1)
    for col in X.boundary_cols(2):
        dd = {}
        for e, sgn in col.items():
            for v, s in edges[e].items():
                dd[v] = dd.get(v, 0) + sgn * s
        assert not any(dd.values())


@pytest.mark.parametrize("key", CORPUS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
def test_fills_have_zero_residual_within_their_bounds(corpus, key, k):
    X = corpus[key]
    if X.n_cells(k) == 0:
        return
    omega = random_coboundary(X, k, random.Random(f"lm-omega/{key}/{k}"))
    if not omega.entries:
        return
    rat = linf_fill_rational(X, omega)
    assert apply_coboundary(X, rat.alpha).entries == omega.entries
    assert norm_inf(rat.alpha) == rat.norm_inf_alpha
    # the HiGHS guess is certified: its dual is solved over a denominator
    assert rat.details["lp_mode"] == "reconstructed"
    # the optimum is homogeneous in omega, here over the denominator 3
    third = omega.map(lambda v: v / 3, "rat")
    rat3 = linf_fill_rational(X, third)
    assert apply_coboundary(X, rat3.alpha).entries == third.entries
    assert rat3.norm_inf_alpha == rat.norm_inf_alpha / 3
    res = integral_fill(X, omega)
    assert res.alpha.is_integral()
    assert apply_coboundary(X, res.alpha).entries == omega.entries
    d = res.details
    assert d["rational_norm"] == rat.norm_inf_alpha
    assert res.norm_inf_alpha <= d["rational_norm"] + k + 1 + d["g_upper"]


@pytest.mark.parametrize("key", CORPUS, ids=str)
def test_integral_solves_answer_exactly_when_the_smith_form_does(corpus, key):
    X = corpus[key]
    M = coboundary_matrix(X, 1)
    system = IntegralSystem(M.rows, M.ncols)
    rng = random.Random(f"lm-rhs/{key}")
    for trial in range(6):
        # coboundaries, some with one entry moved off the image
        D, b = random_coboundary(X, 2, rng).ints(M.nrows, ValueError, "b")
        assert D == 1
        if trial % 2 and M.nrows:
            b[rng.randrange(M.nrows)] += rng.choice((-1, 1))
        x = system.solve(b)
        assert (x is None) == (reference_snf_solve(M, b) is None)
        if x is not None:
            assert all(type(v) is int for v in x)
            assert M.mat_vec(x) == b


@pytest.mark.parametrize("key", CORPUS, ids=str)
def test_cochains_round_trip_through_json(corpus, key):
    X = corpus[key]
    rng = random.Random(f"lm-json/{key}")
    for k in range(X.dim + 1):
        c = Cochain(k, {i: RAT(rng.randint(-5, 5), rng.randint(1, 4))
                        for i in range(X.n_cells(k)) if rng.random() < 0.5})
        assert Cochain.from_json_dict(c.to_json_dict()) == c


def test_the_corpus_reaches_back_substitutions_over_a_denominator(corpus, monkeypatch):
    # the exits of the kernel are (D, ints); the benchmark's spheres keep
    # D = 1, this corpus does not
    seen = []
    back_substitute = linalg._Echelon.back_substitute

    def recorded(self, y, x):
        out = back_substitute(self, y, x)
        seen.append(out[0])
        return out

    monkeypatch.setattr(linalg._Echelon, "back_substitute", recorded)
    for key in CORPUS[:8]:
        X = linial_meshulam(*key)
        for k in (1, 2):
            omega = random_coboundary(X, k, random.Random(f"lm-omega/{key}/{k}"))
            if omega.entries:
                integral_fill(X, omega)
    assert any(D > 1 for D in seen)
