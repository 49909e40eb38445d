"""lp._highs_core, the loader of scipy's HiGHS extension, in fresh processes:
no numpy, scipy.optimize or scipy.sparse import, either load order against
linprog, and a missing file named; the model HiGHS reads from its MPS text
against the scipy.sparse assembly; and a temp file that cannot be made or
read fails loudly and leaves no file behind."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from coiso import lp
from coiso.complexes import simplex_boundary
from coiso.filling import (get_fill_context, integral_fill,
                           sample_integral_coboundary, trial_rng)
from coiso.lp import LinfProblem, LPError
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
        "for name in ('numpy', 'scipy.optimize', 'scipy.sparse'):\n"
        "    assert name not in sys.modules, name\n")


def test_core_first_then_linprog_guesses_are_bitwise_equal():
    run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from coiso.filling import get_fill_context, sample_integral_coboundary, trial_rng\n"
        + SPHERE +
        "P = get_fill_context(X, 2).lp\n"
        "omegas = [sample_integral_coboundary(X, 2, trial_rng(5, 4, t)).ints(\n"
        "              X.n_cells(2), ValueError, 'omega') for t in range(10)]\n"
        "got = [P._float_solve(omega, 'ipm') for omega in omegas]\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from test_highs_model import linprog_reference\n"
        "for (D, ws), g in zip(omegas, got):\n"
        "    assert D == 1\n"
        "    want = linprog_reference(P, ws, 'ipm')\n"
        "    assert want.status == 0 and g is not None\n"
        "    x, duals = g\n"
        "    assert np.array_equal(x, want.x)\n"
        "    assert np.array_equal(duals, want.ineqlin.marginals)\n",
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
    model = P._highs("ipm").getLp()
    A = model.a_matrix_
    want = scipy_csc(P)
    assert (A.num_row_, A.num_col_) == want.shape
    assert np.array_equal(A.start_, want.indptr)
    assert np.array_equal(A.index_, want.indices)
    assert np.array_equal(A.value_, want.data)
    n = P.n
    assert list(model.col_cost_) == [0] * n + [1]
    assert list(model.col_lower_) == [-np.inf] * n + [0]
    assert list(model.col_upper_) == [np.inf] * (n + 1)


def _fresh_fill_inputs():
    X = edgewise_subdivide(simplex_boundary(3), 2).result
    return X, sample_integral_coboundary(X, 2, trial_rng(7, 2, 0))


def test_a_temp_file_that_cannot_be_made_fails_the_first_fill(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def unwritable(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(tmp_path))

    monkeypatch.setattr(tempfile, "mkstemp", unwritable)
    X, omega = _fresh_fill_inputs()
    for _ in range(2):      # nothing half-built is kept: the second fails alike
        with pytest.raises(LPError, match="temp file for the HiGHS model") as e:
            integral_fill(X, omega)
        assert isinstance(e.value.__cause__, PermissionError)
    assert not get_fill_context(X, 2).lp._solvers
    assert not list(tmp_path.iterdir())


# text HiGHS refuses (a status other than kOk), and text it reads as a model
# of the wrong shape
@pytest.mark.parametrize("text", ["garbage\n", "NAME empty\nENDATA\n"])
def test_a_model_highs_cannot_read_raises_lp_error(text, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(LinfProblem, "_mps", lambda self: text)
    X, omega = _fresh_fill_inputs()
    with pytest.raises(LPError, match="HiGHS could not read its model"):
        integral_fill(X, omega)
    assert not get_fill_context(X, 2).lp._solvers
    assert not list(tmp_path.iterdir())
