"""Reference exact simplex, kept as a test oracle: `lp.exact_simplex` from
before its tableau held int rows, every number a RAT and the reduced costs
recomputed from c_B on every iteration; it still returns its dual y.
`simplex_against_reference` runs both and asserts the same outcome and the
same pivots.

`reference_optima` keeps lp.exact_optima's warm re-solve as it was while it
rescaled every row to the denominator of each new right-hand side, and
`optima_against_reference` asserts the same values and pivots."""

import inspect
import sys
from math import gcd

from coiso import lp
from coiso.exact import RAT, ZERO, ONE
from coiso.lp import LPError, Unbounded, Infeasible


def outcome_and_pivots(fn, A, b, c, module=None):
    """(outcome, pivots) of fn(A, b, c): the outcome is what fn returns or
    the LPError raised, the pivots the (leave, enter) pairs passed to the
    `_pivot` of `module` (fn's own module by default)."""
    module = module or sys.modules[fn.__module__]
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


# -- the warm re-solve as it was while every row was rescaled ----------------------

def optima_against_reference(A, c, bs, optima=None):
    """`optima` (lp.exact_optima by default) on (A, c, bs), asserted to
    return the values of `reference_optima`, or raise the same LPError
    type, after the same pivots, cold and warm; then its values are
    returned or its error raised."""
    bs = list(bs)
    optima = optima or lp.exact_optima
    new, new_pivots = outcome_and_pivots(lambda A, bs, c: optima(A, c, bs),
                                         A, bs, c, module=lp)
    old, old_pivots = reference_optima(A, c, bs)
    assert new_pivots == old_pivots
    if isinstance(old, LPError):
        assert type(new) is type(old), (new, old)
        raise new
    assert new == old
    return new


def reference_optima(A, c, bs):
    """(outcome, pivots) of lp.exact_optima as it was while `resolve`
    rescaled the tableau (`rescaling_resolve`), with the pivot of that time
    (`rescaling_pivot`): the outcome is the list of optimal values, each
    read off the basis as RATs, or the LPError raised; the pivots are the
    (leave, enter) pairs of the cold solve of the first b and of each warm
    re-solve.  The cold solve is lp._Tableau's own, run on that pivot."""
    pivots = []

    def pivot(T, basis, leave, enter, costs):
        pivots.append((leave, enter))
        rescaling_pivot(T, basis, leave, enter, costs)

    real = lp._pivot
    lp._pivot = pivot
    try:
        values, tab = [], None
        for b in bs:
            if tab is None:
                tab = lp._Tableau(A, b, c)
            else:
                rescaling_resolve(tab, b, pivot)
            values.append(_basic_value(tab, c))
        out = values
    except LPError as e:
        out = e
    finally:
        lp._pivot = real
    return out, pivots


def _basic_value(tab, c):
    """c.x at the basis of tab, with x_j = rhs / pivot in RATs: the
    right-hand side of every row is exact after `rescaling_resolve`."""
    n = len(c)
    return sum((RAT(c[j]) * RAT(row[-1], row[j])
                for row, j in zip(tab.T, tab.basis) if j < n), ZERO)


def rescaling_resolve(tab, b, pivot):
    """lp._Tableau.resolve as it was before the tableau kept a right-hand
    side denominator: each row's A and identity block, and the cost row, are
    multiplied by the denominator Db of b, each row gets its artificial block
    times S b as its right-hand side (S the flips of the first b), and every
    row is reduced by its gcd.  Then the dual simplex runs with Bland's
    rule, each pivot made by `pivot`."""
    m, n = tab.m, tab.n
    Db, bs = tab._take(b)
    sb = [-v if f else v for v, f in zip(bs, tab.flips)]
    T, basis, z = tab.T, tab.basis, tab.z
    W = n + m
    for row in (*T, z[0]):
        r = sum(u * v for u, v in zip(row[n:W], sb) if u and v)
        if Db > 1:
            row[:W] = [v * Db for v in row[:W]]
        row[W] = r
    z[1] *= Db
    lp._reduce_rows(T)
    g = gcd(z[1], *z[0])
    if g > 1:
        z[0], z[1] = [v // g for v in z[0]], z[1] // g
    if any(T[i][W] for i in range(m) if basis[i] >= n):
        raise Infeasible()
    Z = z[0]
    while True:
        leave = min((i for i in range(m) if T[i][W] < 0),
                    key=basis.__getitem__, default=None)
        if leave is None:
            return
        row = T[leave]
        enter = None
        for j in range(n):
            p = row[j]
            # Z_j / p below the best Z0 / p0, both p < 0
            if p < 0 and (enter is None or Z[j] * p0 < Z0 * p):
                enter, Z0, p0 = j, Z[j], p
        if enter is None:
            raise Infeasible()
        pivot(T, basis, leave, enter, (z,))
        Z = z[0]


def rescaling_pivot(T, basis, leave, enter, costs):
    """lp._pivot as it was with `rescaling_resolve`: every row is multiplied
    by the whole pivot p before the elimination, then reduced by its gcd."""
    Tl = T[leave]
    p = Tl[enter]
    if p < 0:
        Tl = T[leave] = [-v for v in Tl]
        p = -p
    nz = [(j, v) for j, v in enumerate(Tl) if v]

    def eliminated(row):
        # p * (row - (row[enter] / p) * Tl), with p > 0
        f = row[enter]
        new = [v * p for v in row]
        for j, v in nz:
            new[j] -= f * v
        return new

    for i, Ti in enumerate(T):
        if Ti[enter] and i != leave:
            new = eliminated(Ti)
            g = gcd(*new)
            T[i] = [v // g for v in new] if g > 1 else new
    for z in costs:
        if z[0][enter]:
            new, D = eliminated(z[0]), z[1] * p
            g = gcd(D, *new)
            z[0], z[1] = [v // g for v in new], D // g
    basis[leave] = enter
