"""The refusals of LinfProblem's guess ladder.  Each HiGHS guess is only a
guess: a solve that HiGHS does not finish, a solution linprog's checks
reject, a dual support that certifies nothing, or a pinned primal that does
not solve sends the guess down the ladder, to the next rung or to
solve_exact, which answers with the same certified optimum; an omega with no
rational preimage is an LPError."""

from types import SimpleNamespace

import pytest

from coiso import lp
from coiso.complexes import cycle_complex
from coiso.exact import RAT
from coiso.homalg import boundary_matrix
from coiso.lp import LinfProblem, LPError

# the coboundary of a vertex of the 4-cycle: optimum 1/2
OMEGA = (1, [1, 0, 0, -1])
# e_0 on the edges pairs to 1 with the cycle, so it is no coboundary
OFF_IMAGE = (1, [1, 0, 0, 0])


def _cycle_problem():
    delta = boundary_matrix(cycle_complex(4), 1).transpose()
    return LinfProblem(delta.rows, delta.ncols)


def _guesses_made(monkeypatch):
    """The (method, result) of every _float_solve call, recorded."""
    made = []
    real = LinfProblem._float_solve

    def recorded(self, omega, method):
        res = real(self, omega, method)
        made.append((method, res))
        return res

    monkeypatch.setattr(LinfProblem, "_float_solve", recorded)
    return made


def test_an_omega_off_the_image_gets_no_guess_and_raises(monkeypatch):
    # HiGHS finds the LP infeasible, so neither method gives a guess
    # (a status other than optimal), and solve_exact refuses omega
    P = _cycle_problem()
    made = _guesses_made(monkeypatch)
    with pytest.raises(LPError, match="no rational solution of D alpha = omega"):
        P.solve(OFF_IMAGE)
    assert made == [("ipm", None), ("simplex", None)]


def test_optima_refuses_an_omega_off_the_image():
    P = _cycle_problem()
    assert P.optima([OMEGA]) == [RAT(1, 2)]
    with pytest.raises(LPError, match="no rational solution of D alpha = omega"):
        P.optima([OMEGA, OFF_IMAGE])


class _DoctoredHighs:
    """A HiGHS instance whose solution passes through `doctor` (x, row)."""

    def __init__(self, highs, doctor):
        self._highs, self._doctor = highs, doctor

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        sol = self._highs.getSolution()
        x, row = list(sol.col_value), list(sol.row_value)
        self._doctor(x, row)
        return SimpleNamespace(col_value=x, row_value=row,
                               row_dual=list(sol.row_dual))


def _set(values, i, v):
    values[i] = v


# linprog's checks of an optimum, each failed once: n = 4 variables, so the
# rows are the 8 bounds +-alpha_j - t <= 0 and then the 4 equalities
BAD_SOLUTIONS = {
    "nan-in-x": lambda x, row: _set(x, 0, float("nan")),
    "nan-in-a-row": lambda x, row: _set(row, 0, float("nan")),
    "negative-t": lambda x, row: _set(x, -1, -1.0),
    "a-bound-row-above-0": lambda x, row: _set(row, 0, 1.0),
    "an-equality-row-off-omega": lambda x, row: _set(row, 8, row[8] + 1.0),
}


@pytest.mark.parametrize("doctor", BAD_SOLUTIONS.values(), ids=BAD_SOLUTIONS)
def test_a_solution_linprog_would_reject_goes_to_the_next_rung(monkeypatch, doctor):
    P = _cycle_problem()
    P._solvers["ipm"] = _DoctoredHighs(P._highs("ipm"), doctor)
    assert P._float_solve(OMEGA, "ipm") is None
    made = _guesses_made(monkeypatch)
    _, t, mode = P.solve(OMEGA)
    assert (mode, t) == ("reconstructed", RAT(1, 2))
    assert [m for m, res in made] == ["ipm", "simplex"]
    assert made[0][1] is None and made[1][1] is not None


# min ||alpha||_inf s.t. alpha_0 + 2 alpha_1 = 3: alpha = (1, 1), optimum 1,
# certified by y = 1/3, D^T y = (1/3, 2/3); at omega = -3 the optimum is 1
# too, with alpha = (-1, -1)
ROW = [{0: 1, 1: 2}]
RHS = (1, [3])
GUESS_X = [1.0, 1.0, 1.0]
# the row duals of +-alpha_j - t <= 0: mu = -dual, one sign per variable
GOOD_DUALS = [-1 / 3, 0.0, -2 / 3, 0.0]
BAD_DUALS = {
    # no active bound: an empty support
    "empty-support": (RHS, [0.0, 0.0, 0.0, 0.0]),
    # S = {0}: v = (v_0, 0) in im D^T = span (1, 2) forces v_0 = 0, but
    # eps.v = v_0 = 1: the support system is inconsistent
    "inconsistent-support": (RHS, [-1.0, 0.0, 0.0, 0.0]),
    # S = {0: +, 1: -}: y - 2y = 1 gives y = -1 and D^T y = (-1, -2), of
    # norm 3 > 1; at omega = -3, y.omega = 3 would overstate the optimum
    "norm-above-1": ((1, [-3]), [-1.0, 0.0, 0.0, -1.0]),
    # S = {0: -, 1: -}: -3y = 1 gives t = y.omega = -1 <= 0
    "t-not-positive": (RHS, [0.0, -1.0, 0.0, -1.0]),
}


def _doctor_float_solve(monkeypatch, x, duals, methods):
    """_float_solve answers (x, duals) for the methods given, as HiGHS for
    the others."""
    real = LinfProblem._float_solve

    def doctored(self, omega, method):
        if method in methods:
            return list(x), list(duals)
        return real(self, omega, method)

    monkeypatch.setattr(LinfProblem, "_float_solve", doctored)


def test_the_good_guess_certifies_the_optimum():
    P = LinfProblem(ROW, 2)
    assert P._dual_certificate(RHS, GUESS_X, GOOD_DUALS, 1e-7) == 1
    assert P.solve(RHS)[1:] == (1, "reconstructed")


@pytest.mark.parametrize("rhs, duals", BAD_DUALS.values(), ids=BAD_DUALS)
@pytest.mark.parametrize("doctored, mode", [(("ipm",), "reconstructed"),
                                            (("ipm", "simplex"), "simplex")],
                         ids=["first-rung", "every-rung"])
def test_a_dual_support_that_certifies_nothing_goes_down_the_ladder(
        monkeypatch, rhs, duals, doctored, mode):
    P = LinfProblem(ROW, 2)
    s = rhs[1][0] / 3
    x = [s, s, 1.0]             # alpha = omega / 3 on both variables, t = 1
    assert P._dual_certificate(rhs, x, duals, 1e-7) is None
    _doctor_float_solve(monkeypatch, x, duals, doctored)
    (Da, a), t, got = P.solve(rhs)
    assert (got, t) == (mode, 1)
    assert a[0] + 2 * a[1] == rhs[1][0] * Da and max(map(abs, a)) == Da


@pytest.mark.parametrize("doctored, mode", [(("ipm",), "reconstructed"),
                                            (("ipm", "simplex"), "simplex")],
                         ids=["first-rung", "every-rung"])
def test_an_unsolvable_pinned_primal_goes_down_the_ladder(monkeypatch, doctored, mode):
    # the duals certify t = 1, but the guess pins alpha = (1, -1), and
    # 1 - 2 != 3: the pinned system has no solution, with or without the
    # rounding retry
    P = LinfProblem(ROW, 2)
    x = [1.0, -1.0, 1.0]
    assert P._dual_certificate(RHS, x, GOOD_DUALS, 1e-7) == 1
    assert P._primal_at(RHS, {0: 1, 1: -1}, RAT(1), x) is None
    _doctor_float_solve(monkeypatch, x, GOOD_DUALS, doctored)
    _, t, got = P.solve(RHS)
    assert (got, t) == (mode, 1)


def test_an_alpha_that_fails_its_residual_is_never_returned(monkeypatch):
    # with the residual check reading omega + 1, every reconstructed primal
    # fails it and so does solve_exact's answer: LPError, not an alpha
    P = _cycle_problem()
    real = lp.residual_rows
    monkeypatch.setattr(lp, "residual_rows", lambda rows, x, b, Dx=1, Db=1:
                        real(rows, x, [v + Db for v in b], Dx, Db))
    primal = []
    primal_at = LinfProblem._primal_at

    def recorded(self, *args):
        primal.append(primal_at(self, *args))
        return primal[-1]

    monkeypatch.setattr(LinfProblem, "_primal_at", recorded)
    with pytest.raises(LPError, match="fails D alpha = omega"):
        P.solve(OMEGA)
    assert primal and not any(primal)


# omegas that are not (D, one int per row) for the 4 rows of the 4-cycle's
# LP; before the entry check, solve took the first as the zero omega and
# returned alpha = 0, D = -1 reached the tableau ("negativity crept in"),
# D = 0 raised ZeroDivisionError, and solve_exact refused the short omega
# only as "8 constraint rows but 5 right-hand sides"
NOT_D_AND_INTS = {
    "one-int-for-four-rows": (1, [0]),
    "five-ints": (1, [1, 0, 0, -1, 0]),
    "negative-D": (-1, [1, 0, 0, -1]),
    "zero-D": (0, [1, 0, 0, -1]),
    "rational-D": (RAT(1), [1, 0, 0, -1]),
    "boolean-D": (True, [1, 0, 0, -1]),
    "float-entry": (1, [1.0, 0, 0, -1]),
    "rational-entry": (1, [RAT(1, 2), 0, 0, -1]),
}


@pytest.mark.parametrize("omega", NOT_D_AND_INTS.values(), ids=NOT_D_AND_INTS)
@pytest.mark.parametrize("entry", ["solve", "solve_exact", "optima"])
def test_every_lp_entry_refuses_an_omega_that_is_not_d_and_ints(monkeypatch, entry, omega):
    P = _cycle_problem()
    made = _guesses_made(monkeypatch)
    call = {"solve": P.solve, "solve_exact": P.solve_exact,
            "optima": lambda om: P.optima([OMEGA, om])}[entry]
    with pytest.raises(LPError, match=r"^omega must be \(D, ints\): an int D >= 1 "
                                      r"and one int for each of the 4 rows$"):
        call(omega)
    assert made == []
