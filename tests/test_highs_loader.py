"""lp._highs_core, the loader of scipy's HiGHS extension, in fresh processes:
no scipy.optimize or scipy.sparse import, either load order against
linprog, and a missing file named; and the model's hand-written CSC against
the scipy.sparse assembly."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from coiso import lp
from coiso.complexes import simplex_boundary
from coiso.filling import get_fill_context
from coiso.subdivision import edgewise_subdivide

SRC = str(Path(lp.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

SPHERE = ("from coiso.complexes import simplex_boundary\n"
          "from coiso.subdivision import edgewise_subdivide\n"
          "X = edgewise_subdivide(simplex_boundary(3), 4).result\n")


def run_fresh(code, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((*path, SRC)))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_fills_import_neither_scipy_optimize_nor_sparse():
    run_fresh(
        "import sys\n"
        "import coiso\n"
        "from coiso.filling import (integral_fill, sample_integral_coboundary,\n"
        "                           trial_rng)\n"
        "from coiso.scheduler import s2_null_demo\n"
        + SPHERE +
        "assert s2_null_demo(4, 1)['all_passed']\n"
        "omega = sample_integral_coboundary(X, 2, trial_rng(1, 4, 0))\n"
        "integral_fill(X, omega)\n"
        "for name in ('scipy.optimize', 'scipy.sparse'):\n"
        "    assert name not in sys.modules, name\n")


def test_core_first_then_linprog_guesses_are_bitwise_equal():
    run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from coiso.filling import get_fill_context, sample_integral_coboundary, trial_rng\n"
        + SPHERE +
        "P = get_fill_context(X, 2).lp\n"
        "omegas = [sample_integral_coboundary(X, 2, trial_rng(5, 4, t)).dense(X.n_cells(2))\n"
        "          for t in range(10)]\n"
        "got = [P._float_solve(omega, 'highs-ipm') for omega in omegas]\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from test_highs_model import linprog_reference\n"
        "for omega, g in zip(omegas, got):\n"
        "    want = linprog_reference(P, omega, 'highs-ipm')\n"
        "    assert want.status == g.status == 0\n"
        "    assert np.array_equal(g.x, want.x)\n"
        "    assert np.array_equal(g.marginals, want.ineqlin.marginals)\n",
        TESTS)


def test_scipy_optimize_first_then_a_fill_shares_its_core():
    run_fresh(
        "import scipy.optimize\n"
        "from coiso import lp\n"
        "from coiso.filling import integral_fill, sample_integral_coboundary, trial_rng\n"
        + SPHERE +
        "res = integral_fill(X, sample_integral_coboundary(X, 2, trial_rng(1, 4, 0)))\n"
        "assert res.details['lp_mode'] == 'reconstructed', res.details\n"
        "assert lp._highs_core() is scipy.optimize._highspy._core\n")


def test_missing_extension_names_the_directory(tmp_path):
    # a scipy package whose extension directory is empty, first on the path
    where = tmp_path / "scipy" / "optimize" / "_highspy"
    where.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    run_fresh(
        "import sys\n"
        "from coiso import lp\n"
        "try:\n"
        "    lp._highs_core()\n"
        "except ImportError as e:\n"
        f"    assert {str(where)!r} in str(e), e\n"
        "else:\n"
        "    raise AssertionError('no ImportError')\n"
        "assert lp._CORE not in sys.modules\n",
        str(tmp_path))


def scipy_csc(P):
    """[A_ub; A_eq] of P's model, assembled through scipy.sparse."""
    n, m = P.n, P.m
    data, ri, ci = [], [], []
    for i, r in enumerate(P.rows):
        for j, v in r.items():
            ri.append(i)
            ci.append(j)
            data.append(float(v))
    A_eq = sparse.coo_array((data, (ri, ci)), shape=(m, n + 1))
    ri2, ci2, d2 = [], [], []
    for j in range(n):
        ri2 += [2 * j, 2 * j, 2 * j + 1, 2 * j + 1]
        ci2 += [j, n, j, n]
        d2 += [1.0, -1.0, -1.0, -1.0]
    A_ub = sparse.coo_array((d2, (ri2, ci2)), shape=(2 * n, n + 1))
    return sparse.csc_array(sparse.vstack((A_ub, A_eq)))


@pytest.mark.parametrize("L", [1, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_hand_csc_equals_the_sparse_assembly(L, k):
    X = edgewise_subdivide(simplex_boundary(3), L).result
    P = get_fill_context(X, k).lp
    P._highs("highs-ipm")
    A = P._model[0].a_matrix_
    want = scipy_csc(P)
    assert (A.num_row_, A.num_col_) == want.shape
    assert np.array_equal(A.start_, want.indptr)
    assert np.array_equal(A.index_, want.indices)
    assert np.array_equal(A.value_, want.data)
