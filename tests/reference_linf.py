"""Reference ell-infinity LP, kept as a test oracle: `LinfProblem.solve_exact`
from before its shifted form, with alpha = u - v and two slack rows per
variable, an (m + 2n) x (4n + 1) tableau.  `linf_against_reference` solves
both and asserts the same certified optimum."""

from coiso import lp
from coiso.exact import RAT
from coiso.linalg import residual_rows
from coiso.lp import Infeasible, LPError


def reference_solve_exact(rows, ncols, omega):
    """(alpha, t) for min ||alpha||_inf s.t. D alpha = omega, D given as
    sparse rows over ncols variables, from lp.exact_simplex on the standard
    form with alpha = u - v and slacks s+, s-:

        D(u - v) = omega;  u - v - t + s+ = 0;  -u + v - t + s- = 0
    """
    n = ncols
    N = 4 * n + 1
    it = 2 * n
    A = []
    b = []
    for i, r in enumerate(rows):
        row = [0] * N
        for j, v in r.items():
            row[j] = v
            row[n + j] = -v
        A.append(row)
        b.append(omega[i])
    for j in range(n):
        row = [0] * N
        row[j] = 1
        row[n + j] = -1
        row[it] = -1
        row[2 * n + 1 + j] = 1
        A.append(row)
        row = [0] * N
        row[j] = -1
        row[n + j] = 1
        row[it] = -1
        row[3 * n + 1 + j] = 1
        A.append(row)
    b += [0] * (2 * n)
    c = [0] * N
    c[it] = 1
    try:
        x, value = lp.exact_simplex(A, b, c)
    except Infeasible:
        raise LPError("no rational solution of D alpha = omega")
    alpha = [x[j] - x[n + j] for j in range(n)]
    return alpha, value


def linf_against_reference(problem, omega, solve_exact=None):
    """`solve_exact` (problem.solve_exact by default) on omega, asserted to
    give the reference's certified optimum t with D alpha = omega and
    ||alpha||_inf = t; (alpha, t) is returned."""
    alpha, t = (solve_exact or type(problem).solve_exact)(problem, omega)
    _, t_ref = reference_solve_exact(problem.rows, problem.n, omega)
    assert t == t_ref
    assert all(type(v) is RAT for v in [*alpha, t])
    assert not residual_rows(problem.rows, alpha, omega)
    assert max(map(abs, alpha), default=0) == t
    return alpha, t
