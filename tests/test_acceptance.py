"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
sweep of criteria 1-2 is shared through a module fixture so the coboundary
sampling and filling happen exactly once.
"""

import json
import time

import pytest
from click.testing import CliRunner

from coiso.exact import RAT
from coiso.cli import main as cli_main
from coiso.complexes import (build_complex, cycle_complex, simplex_boundary,
                             build_grid_cube_complex)
from coiso.cubetree import cube_tree, cube_tree_recursive, verify_cube_tree
from coiso.filling import (coiso_constants_tiny, integral_fill,
                           sample_integral_coboundary, trial_rng,
                           bounded_lift)
from coiso.homalg import (Cochain, betti_numbers, boundary_matrix, norm_inf)
from coiso.linalg import RationalSolver
from coiso.scheduler import s2_null_demo
from coiso.subdivision import edgewise_subdivide
from coiso.trees import (gnarledness_exact_tiny, gnarledness_upper,
                         greedy_spanning_tree, lifting_basis,
                         telescope_complex, telescope_circles_tree,
                         wrapping_tree)

SWEEP_LS = (2, 4, 8)
SWEEP_TRIALS = 100
SWEEP_SEED = 7
PER_L_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def sweep():
    """Criteria 1 and 2 share this: 100 integral fills per L with timing."""
    base = simplex_boundary(3)
    out = {}
    for L in SWEEP_LS:
        XL = edgewise_subdivide(base, L).result
        t0 = time.monotonic()
        ratios = []
        for t in range(SWEEP_TRIALS):
            rng = trial_rng(SWEEP_SEED, L, t)
            omega = sample_integral_coboundary(XL, 2, rng)
            res = integral_fill(XL, omega)
            assert not res.certificate.entries      # delta(alpha~) == omega, exactly
            assert res.alpha.ring == "int"
            ratios.append(res.norm_inf_alpha / (L * norm_inf(omega)))
        out[L] = {"seconds": time.monotonic() - t0, "max_ratio": max(ratios)}
    return out


def test_criterion_1_exactness_suite(sweep):
    for L in SWEEP_LS:
        assert sweep[L]["seconds"] < PER_L_BUDGET_S, (L, sweep[L]["seconds"])
    times = {L: round(sweep[L]["seconds"], 1) for L in SWEEP_LS}
    print(f"CRITERION 1: PASS - {SWEEP_TRIALS} exact integral fills per L, "
          f"zero residuals, seconds per L = {times}")


def test_criterion_2_coisoperimetric_linearity(sweep):
    r2, r8 = sweep[2]["max_ratio"], sweep[8]["max_ratio"]
    assert r8 <= 2 * r2, (str(r8), str(r2))
    vals = {L: str(sweep[L]["max_ratio"]) for L in SWEEP_LS}
    print(f"CRITERION 2: PASS - max ||alpha~||/(L ||omega||) per L = {vals}; "
          f"L=8 within 2x of L=2")


def test_criterion_3_duality():
    cases = [(cycle_complex(4), 1), (build_complex([(0, 1, 2)]), 1),
             (simplex_boundary(3), 2)]
    values = []
    for X, k in cases:
        co, fi = coiso_constants_tiny(X, k)
        assert co == fi
        values.append(str(co))
    print(f"CRITERION 3: PASS - cofilling == filling exactly on C4, "
          f"Delta2, dDelta3: {values}")


LIFT_CORPUS = [
    ("C4", cycle_complex(4), 1),
    ("Delta2", build_complex([(0, 1, 2)]), 1),
    ("dDelta3", simplex_boundary(3), 2),
    ("telescope", telescope_complex(), 1),
    ("telescope", telescope_complex(), 2),
    ("dDelta3_L2", None, 2),     # filled in below; subdivision is expensive at import
]


def _mod_z_cocycle(X, k, rng):
    if k + 1 > X.dim:
        vec = {i: RAT(rng.randint(-8, 8), rng.choice((2, 3, 4)))
               for i in range(X.n_cells(k))}
    else:
        delta = boundary_matrix(X, k + 1).transpose()
        basis = RationalSolver(delta.rows, delta.ncols).nullspace()
        vec = {}
        for b in basis:
            c = RAT(rng.randint(-8, 8), rng.choice((2, 3, 4)))
            if c:
                for i, v in b.items():
                    vec[i] = vec.get(i, RAT(0)) + c * v
    frac = {i: v - (v.numerator // v.denominator) for i, v in vec.items()}
    return Cochain(k, frac, "rat")


def test_criterion_4_bounded_lifting():
    corpus = [(name, X, k) for name, X, k in LIFT_CORPUS if X is not None]
    corpus.append(("dDelta3_L2",
                   edgewise_subdivide(simplex_boundary(3), 2).result, 2))
    total = 0
    for name, X, k in corpus:
        T = greedy_spanning_tree(X, k)
        U = wrapping_tree(X, k - 1)
        _, g, _ = lifting_basis(T)
        bound = k + 1 + g
        for t in range(50):
            z = _mod_z_cocycle(X, k, trial_rng(13, f"{name}/{k}", t))
            zl = bounded_lift(z, T, U)
            assert norm_inf(zl) <= bound, (name, k, t)
            for i in range(X.n_cells(k)):
                assert (zl(i) - z(i)).denominator == 1
            total += 1
    print(f"CRITERION 4: PASS - {total} lifts across the corpus, "
          f"all within k + 1 + G_upper, zero violations")


def test_criterion_5_gnarledness():
    X = telescope_complex()
    exact = gnarledness_exact_tiny(telescope_circles_tree(X), denom_bound=4)
    assert exact == 2
    values = {}
    for L in (1, 2, 4):
        XL = edgewise_subdivide(simplex_boundary(3), L).result
        values[L] = gnarledness_upper(greedy_spanning_tree(XL, 2))
    assert values[4] <= values[1] + 2
    print(f"CRITERION 5: PASS - telescope exact gnarledness = {exact}; "
          f"sphere greedy-tree G_upper by L = "
          f"{ {L: str(v) for L, v in values.items()} }")


def test_criterion_6_cube_trees():
    t0 = time.monotonic()
    for nkr in [(2, 1, 3), (3, 1, 2), (3, 2, 2)]:
        closed = cube_tree(*nkr)
        recursive = cube_tree_recursive(*nkr)
        assert closed.cells == recursive.cells, nkr
        rep = verify_cube_tree(closed)
        assert rep["checks_passed"], (nkr, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"CRITERION 6: PASS - closed form == recursive and all checks pass "
          f"for (2,1,3),(3,1,2),(3,2,2) in {elapsed:.2f}s")


def test_criterion_7_schedule_bounds():
    worst_h = 0
    runs = 0
    for L in SWEEP_LS:
        for seed in range(100):
            r = s2_null_demo(L, seed)
            assert r["checks"]["closedness"], (L, seed)
            assert r["checks"]["bottom_trace"] and r["checks"]["top_trace"]
            beta_max = max(r["max_abs_beta_horizontal"], r["max_abs_beta_vertical"])
            assert beta_max <= r["norm_omega"] + 3, (L, seed)
            assert r["max_abs_beta_vertical"] <= 1, (L, seed)
            worst_h = max(worst_h, r["max_abs_beta_horizontal"])
            runs += 1
    print(f"CRITERION 7: PASS - {runs} schedules closed exactly with "
          f"||beta|| <= ||omega|| + 3 and vertical values in {{-1,0,1}}; "
          f"empirical max horizontal |beta| = {worst_h} (reference value 3)")


def test_criterion_8_homology_smoke():
    assert betti_numbers(simplex_boundary(3)) == [1, 0, 1]
    assert betti_numbers(cycle_complex(4)) == [1, 1]
    corpus = [simplex_boundary(3), cycle_complex(4), build_complex([(0, 1, 2)]),
              telescope_complex(), build_grid_cube_complex(3, 2),
              edgewise_subdivide(simplex_boundary(3), 2).result]
    for X in corpus:
        for k in range(2, X.dim + 1):
            assert not any(boundary_matrix(X, k - 1).matmul(boundary_matrix(X, k)).rows)
    print("CRITERION 8: PASS - Betti numbers (1,0,1) and (1,1); "
          "dd == 0 on every corpus complex")


def test_criterion_9_cli_determinism():
    runner = CliRunner()
    with runner.isolated_filesystem():
        json.dump({"dim": 1, "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]]},
                  open("c4.json", "w"))
        json.dump({"dim": 2,
                   "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
                  open("sphere.json", "w"))
        json.dump({"k": 1, "ring": "int", "entries": [[0, "1"], [3, "-1"]]},
                  open("w.json", "w"))
        invocations = [
            (["s2demo", "--L", "4", "--seed", "1", "--out", "r.json"],
             ["r.json"]),
            (["subdivide", "--in", "sphere.json", "--L", "3", "--out", "XL.json"],
             ["XL.json", "XL.prov.json"]),
            (["tree", "--in", "sphere.json", "--k", "2", "--kind", "wrapping",
              "--out", "t.json"], ["t.json"]),
            (["fill", "--complex", "c4.json", "--omega", "w.json", "--ring",
              "int", "--out", "a.json"], ["a.json"]),
            (["cip-sweep", "--complex", "sphere.json", "--k", "2", "--L", "1,2",
              "--trials", "2", "--seed", "5", "--out", "s.csv"],
             ["s.csv", "s.csv.meta.json"]),
            (["duality", "--complex", "c4.json", "--k", "1", "--out", "d.json"],
             ["d.json"]),
            (["verify", "--kind", "cube-tree", "--n", "3", "--k", "2", "--r",
              "2", "--out", "v.json"], ["v.json"]),
        ]
        for args, outputs in invocations:
            r = runner.invoke(cli_main, args)
            assert r.exit_code == 0, (args, r.output)
            first = {p: open(p, "rb").read() for p in outputs}
            r = runner.invoke(cli_main, args)
            assert r.exit_code == 0
            for p in outputs:
                assert open(p, "rb").read() == first[p], (args, p)
    print(f"CRITERION 9: PASS - {len(invocations)} CLI artifact kinds are "
          f"byte-identical across re-runs")
