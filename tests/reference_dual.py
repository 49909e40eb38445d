"""Reference dual certificate, kept as a test oracle:
`LinfProblem._dual_certificate` from before it was built from its support.
Each call factors a fresh system over all m variables of y: the columns of
D off the support S, (D^T y)_i = 0, and the norm row
sum_(i in S) eps_i (D^T y)_i = 1, about (n - |S| + 1) x m.
`dual_against_reference` computes both and asserts the same certified t,
or None from both."""

from coiso.exact import RAT
from coiso.linalg import RationalSolver, dot, scale_to_ints

from reference_solver import rat_solve


def reference_dual_certificate(P, omega, x, duals, tol):
    """t > 0, the lower bound certified by the dual supported on the signs
    read off the HiGHS solution x and its row duals, for the LinfProblem P
    and the exact omega (ints or RATs); or None."""
    t_f = float(x[-1])
    if t_f <= 0:
        return None
    eps = tol * max(1.0, t_f)
    dsup = {}
    for i in range(P.n):
        mu_p = -float(duals[2 * i])
        mu_m = -float(duals[2 * i + 1])
        if mu_p > eps:
            dsup[i] = 1
        elif mu_m > eps:
            dsup[i] = -1
    if not dsup:
        return None
    # y with (D^T y)_i = 0 off the support, sum_i eps_i (D^T y)_i = 1;
    # ||D^T y||_1 <= 1 then makes y.omega a certified lower bound
    sys_rows = []
    norm_row = {}
    for i in range(P.n):
        col = P.cols[i]
        if i in dsup:
            s = dsup[i]
            for cell, v in col.items():
                norm_row[cell] = norm_row.get(cell, 0) + s * v
        else:
            sys_rows.append(col)
    sys_rows.append(norm_row)
    rhs = [0] * (len(sys_rows) - 1) + [1]
    y = rat_solve(RationalSolver(sys_rows, P.m), rhs)
    if y is None:
        return None
    Dy, ys = scale_to_ints(y)
    if sum(abs(dot(col, ys)) for col in P.cols) > Dy:
        return None
    Dw, ws = scale_to_ints(omega)
    t = sum(a * b for a, b in zip(ys, ws) if a and b)
    if t <= 0:
        return None
    return RAT(t, Dy * Dw)


def dual_against_reference(P, omega):
    """Every HiGHS guess for omega: the support-built certificate equals the
    reference's.  Returns (guesses, certified) counts."""
    Dw, ws = scale_to_ints(omega)
    guesses = certified = 0
    for x, duals, tol in P._guesses((Dw, ws)):
        got = P._dual_certificate((Dw, ws), x, duals, tol)
        want = reference_dual_certificate(P, omega, x, duals, tol)
        assert got == want, (got, want)
        assert got is None or type(got) is RAT
        guesses += 1
        certified += got is not None
    return guesses, certified
