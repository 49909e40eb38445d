"""Reference ell-infinity LP, kept as a test oracle: `LinfProblem.solve_exact`
from before its shifted form, with alpha = u - v and two slack rows per
variable, an (m + 2n) x (4n + 1) tableau.  `linf_against_reference` solves
both and asserts the same certified optimum; it also runs the all-RAT
reference simplex on solve_exact's own shifted LP and asserts the same
pivots and the same x."""

from coiso import lp
from coiso.exact import RAT
from coiso.linalg import residual_rows
from coiso.lp import Infeasible, LPError
from reference_simplex import outcome_and_pivots, reference_simplex


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
    """`solve_exact` (problem.solve_exact by default) on omega = (Dw, ws),
    ws / Dw in ints, asserted to make the pivots of the all-RAT reference
    simplex on the shifted LP of `problem._shifted_lp()`, with
    alpha = x - t read off the reference's x, or to raise an LPError where
    the reference raises one; then to give the reference ell-infinity LP's
    certified optimum t with D alpha = omega and ||alpha||_inf = t.
    ((Da, a), t) is returned, alpha = a / Da in ints."""
    solve_exact = solve_exact or type(problem).solve_exact
    Dw, ws = omega
    A, c = problem._shifted_lp()
    b = [RAT(w, Dw) for w in ws] + [0] * problem.n
    out, pivots = outcome_and_pivots(
        lambda *_: solve_exact(problem, omega), A, b, c, module=lp)
    ref, ref_pivots = outcome_and_pivots(reference_simplex, A, b, c)
    assert pivots == ref_pivots
    if isinstance(ref, LPError):
        assert isinstance(out, LPError), (out, ref)
        raise out
    assert not isinstance(out, LPError), (out, ref)
    (Da, a), t = out
    x, value = ref[:2]
    assert t == value
    assert [RAT(v, Da) for v in a] == [v - t for v in x[:problem.n]]
    _, t_ref = reference_solve_exact(problem.rows, problem.n,
                                     [RAT(w, Dw) for w in ws])
    assert t == t_ref
    assert type(t) is RAT and all(type(v) is int for v in [Da, *a])
    assert not residual_rows(problem.rows, a, ws, Da, Dw)
    assert max(map(abs, a), default=0) * t.denominator == t.numerator * Da
    return (Da, a), t
