"""IntegerMatrix operations only the tests use: the product (for dd = 0 and
U M V = D) and a one-entry write (for matrices built entry by entry)."""

from coiso.homalg import HomalgError, IntegerMatrix


def matmul(A, B):
    """The product A B of two IntegerMatrix."""
    if A.ncols != B.nrows:
        raise HomalgError("shape mismatch in matmul")
    out = IntegerMatrix(A.nrows, B.ncols)
    for i, r in enumerate(A.rows):
        acc = {}
        for k, v in r.items():
            for j, w in B.rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.rows[i] = {j: v for j, v in acc.items() if v}
    return out


def set_entry(M, i, j, v):
    """Entry (i, j) of M := v; a zero v removes it."""
    if v:
        M.rows[i][j] = int(v)
    elif j in M.rows[i]:
        del M.rows[i][j]
