"""Reference exact simplex, kept as a test oracle: `lp.exact_simplex` from
before its tableau held int rows, every number a RAT and the reduced costs
recomputed from c_B on every iteration; it still returns its dual y.
`simplex_against_reference` runs both and asserts the same outcome and the
same pivots."""

import inspect
import sys

from coiso import lp
from coiso.exact import RAT, ZERO, ONE
from coiso.lp import LPError, Unbounded, Infeasible


def outcome_and_pivots(fn, A, b, c):
    """(outcome, pivots) of fn(A, b, c): the outcome is what fn returns or
    the LPError raised, the pivots the (leave, enter) pairs passed to the
    `_pivot` of fn's module."""
    module = sys.modules[fn.__module__]
    pivot = module._pivot
    sig = inspect.signature(pivot)
    pivots = []

    def recorded(*args):
        bound = sig.bind(*args).arguments
        pivots.append((bound["leave"], bound["enter"]))
        return pivot(*args)

    module._pivot = recorded
    try:
        try:
            out = fn(A, b, c)
        except LPError as e:
            out = e
    finally:
        module._pivot = pivot
    return out, pivots


def simplex_against_reference(A, b, c, simplex=None):
    """`simplex` (lp.exact_simplex by default) on (A, b, c), asserted to
    return the reference's (x, value), or raise the same LPError type, after
    the same pivots; then its result is returned or its error raised.

    The reference's dual y is not compared: the same pivots from the same
    tableau end in the same basis, which fixes y = c_B B^-1, and
    exact_simplex checks that dual itself before it answers."""
    new, new_pivots = outcome_and_pivots(simplex or lp.exact_simplex, A, b, c)
    old, old_pivots = outcome_and_pivots(reference_simplex, A, b, c)
    assert new_pivots == old_pivots
    if isinstance(old, LPError):
        assert type(new) is type(old), (new, old)
        raise new
    assert new == old[:2]
    x, value = new
    assert all(type(v) is RAT for v in [*x, value])
    return new


def reference_simplex(A, b, c):
    """min c.x  s.t.  A x = b, x >= 0, all data exact rationals.

    A: list of dense rows.  Returns (x, value, y) where y is the dual vector
    satisfying y.A <= c and y.b = value; both sides are verified exactly
    before returning.  Raises Infeasible/Unbounded.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[RAT(v) for v in row] for row in A]
    rhs = [RAT(v) for v in b]
    cost = [RAT(v) for v in c]
    for i in range(m):
        if rhs[i] < 0:
            T[i] = [-v for v in T[i]]
            rhs[i] = -rhs[i]
    # append artificial identity block; its columns double as B^-1 tracking
    for i in range(m):
        T[i] += [ONE if j == i else ZERO for j in range(m)]
    basis = list(range(n, n + m))

    def run_phase(cvec, nmax):
        # reduced cost row: z_j - c_j = c_B . T_j - c_j ; enter while positive,
        # Bland's rule (smallest index in, smallest basic out) for finiteness
        while True:
            enter = None
            for j in range(nmax):
                if j in basis:
                    continue
                s = -cvec[j]
                for i in range(m):
                    cb = cvec[basis[i]]
                    if cb and T[i][j]:
                        s += cb * T[i][j]
                if s > 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            best = None
            for i in range(m):
                if T[i][enter] > 0:
                    ratio = rhs[i] / T[i][enter]
                    key = (ratio, basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:
                raise Unbounded()
            _pivot(T, rhs, basis, leave, enter)

    art_cost = [ZERO] * n + [ONE] * m
    run_phase(art_cost, n + m)
    if sum(art_cost[basis[i]] * rhs[i] for i in range(m)) != 0:
        raise Infeasible()
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = None
            for j in range(n):
                if T[i][j] != 0:
                    enter = j
                    break
            if enter is not None:
                _pivot(T, rhs, basis, i, enter)

    full_cost = cost + [ZERO] * m
    run_phase(full_cost, n)

    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs[i]
    value = sum(cost[j] * x[j] for j in range(n))
    # dual from the identity block: y = c_B . B^-1, then undo the row flips
    y = []
    for i in range(m):
        s = ZERO
        for r in range(m):
            cb = full_cost[basis[r]]
            if cb and T[r][n + i]:
                s += cb * T[r][n + i]
        y.append(s)
    y = [(-v if RAT(b[i]) < 0 else v) for i, v in enumerate(y)]

    # exact verification of both certificates
    for i in range(m):
        s = sum(RAT(A[i][j]) * x[j] for j in range(n))
        if s != RAT(b[i]):
            raise LPError("primal verification failed")
    if any(v < 0 for v in x):
        raise LPError("negativity crept in")
    if sum(y[i] * RAT(b[i]) for i in range(m)) != value:
        raise LPError("dual objective mismatch")
    for j in range(n):
        s = sum(y[i] * RAT(A[i][j]) for i in range(m))
        if s > RAT(cost[j]):
            raise LPError("dual feasibility failed")
    return x, value, y


def _pivot(T, rhs, basis, leave, enter):
    piv = T[leave][enter]
    Tl = T[leave]
    inv = ONE / piv
    T[leave] = [v * inv for v in Tl]
    rhs[leave] = rhs[leave] * inv
    Tl = T[leave]
    width = len(Tl)
    for i in range(len(T)):
        if i == leave:
            continue
        f = T[i][enter]
        if f:
            Ti = T[i]
            for j in range(width):
                if Tl[j]:
                    Ti[j] -= f * Tl[j]
            rhs[i] -= f * rhs[leave]
    basis[leave] = enter
