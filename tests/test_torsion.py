"""Integral solving where H^2(X; Z) has torsion: the projective plane.

On the 6-vertex RP^2, edgewise-subdivided, the unit-pivot elimination of the
top coboundary leaves one row of +-2 entries over 3L columns.  A 2-cochain
is an integral coboundary exactly when its entry sum is even, so e_0 is a
rational coboundary (b_2 = 0) that no integral 1-cochain fills.
`IntegralSystem` solves that row through its own Smith form; the Smith form
of the whole matrix (`reference_snf_solve`) is the oracle.
"""

import json
import random

import pytest
from click.testing import CliRunner

from coiso import homalg
from coiso.cli import main
from coiso.complexes import build_complex
from coiso.filling import (NotIntegrallyFillable, integral_fill,
                           sample_integral_coboundary, trial_rng)
from coiso.homalg import (Cochain, HomalgError, IntegralSystem, betti_numbers,
                          coboundary_matrix, smith_normal_form)
from coiso.subdivision import edgewise_subdivide

from intmatrix import matmul
from reference_solver import reference_smith_normal_form, reference_snf_solve

RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def rp2(L):
    X = build_complex(RP2_TRIANGLES)
    return X if L == 1 else edgewise_subdivide(X, L).result


def test_rp2_is_the_projective_plane():
    X = rp2(1)
    assert [X.n_cells(k) for k in range(3)] == [6, 15, 10]
    assert betti_numbers(X) == [1, 0, 0]


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16])
def test_e0_is_not_integrally_fillable(L):
    with pytest.raises(NotIntegrallyFillable):
        integral_fill(rp2(L), Cochain(2, {0: 1}, "int"))


@pytest.mark.parametrize("L", [1, 2, 4])
def test_sampled_coboundaries_fill_within_the_bound(L):
    X = rp2(L)
    for trial in range(3):
        omega = sample_integral_coboundary(X, 2, trial_rng(0, L, trial))
        assert sum(omega.entries.values()) % 2 == 0
        res = integral_fill(X, omega)
        d = res.details
        assert res.alpha.ring == "int" and not res.certificate.entries
        assert res.norm_inf_alpha <= d["rational_norm"] + 2 + 1 + d["g_upper"]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_smith_form_of_the_coboundaries_equals_the_reference(L, k):
    M = coboundary_matrix(rp2(L), k - 1)
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    assert D == reference_smith_normal_form(M)[1]
    # the last diagonal entry is 0 for b_0 = 1, and 2 for H^2(RP^2; Z) = Z/2
    diag = [D[i, i] for i in range(min(M.nrows, M.ncols))]
    assert diag == [1] * (len(diag) - 1) + [2 if k == 2 else 0]


def _rhs_corpus(M, rng):
    """40 right-hand sides: 20 images of random int vectors, 16 random
    {-1, 0, 1} vectors, and unit vectors."""
    out = []
    for _ in range(20):
        x = [rng.randint(-2, 2) for _ in range(M.ncols)]
        out.append(M.mat_vec(x))
    out += [[rng.choice((-1, 0, 1)) for _ in range(M.nrows)] for _ in range(16)]
    out += [[1 if i == z else 0 for i in range(M.nrows)]
            for z in rng.sample(range(M.nrows), 4)]
    return out


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_solve_agrees_with_the_whole_matrix_smith_form(L, k):
    M = coboundary_matrix(rp2(L), k - 1)
    S = IntegralSystem(M.rows, M.ncols)
    assert S.block_shape == ((1, 3 * L) if k == 2 else (0, 0))
    rng = random.Random(f"rp2/{L}/{k}")
    solvable = 0
    for b in _rhs_corpus(M, rng):
        x = S.solve(b)
        assert (x is None) == (reference_snf_solve(M, b) is None)
        if x is not None:
            assert all(type(v) is int for v in x) and M.mat_vec(x) == b
            solvable += 1
    assert 20 <= solvable < 40


def test_stuck_block_over_the_cap_is_a_structured_error(monkeypatch):
    # the cap counts the 1x12 block and its 1x1 U and 12x12 V: 157 entries
    M = coboundary_matrix(rp2(4), 1)
    monkeypatch.setattr(homalg, "BLOCK_CAP", 157)
    assert IntegralSystem(M.rows, M.ncols).block_shape == (1, 12)
    monkeypatch.setattr(homalg, "BLOCK_CAP", 156)
    with pytest.raises(HomalgError, match="1x12 block .* takes 157 entries, "
                                          "which exceeds 156 entries"):
        IntegralSystem(M.rows, M.ncols)


def test_capped_block_exits_one_from_the_cli(monkeypatch):
    monkeypatch.setattr(homalg, "BLOCK_CAP", 2)
    runner = CliRunner()
    with runner.isolated_filesystem():
        json.dump({"dim": 2, "simplices": [list(t) for t in RP2_TRIANGLES]},
                  open("rp2.json", "w"))
        json.dump(Cochain(2, {0: 1, 1: 1}, "int").to_json_dict(),
                  open("omega.json", "w"))
        r = runner.invoke(main, ["fill", "--complex", "rp2.json", "--omega",
                                 "omega.json", "--ring", "int", "--out", "a.json"])
    assert r.exit_code == 1, r.output
    err = json.loads(r.stderr)["error"]
    assert err["type"] == "HomalgError" and "exceeds 2 entries" in err["message"]
