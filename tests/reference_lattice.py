"""Reference lattice basis: `trees._hnf_lattice_basis` from before it ran on
`homalg.euclid_step`, with its own Euclidean column loop; kept here,
unchanged but for its name, as a test oracle."""

from coiso.exact import RAT
from coiso.linalg import RationalSolver, scale_to_ints
from coiso.trees import TreeError


def reference_lattice_basis(vectors, d):
    """Columns of a Hermite-style basis of the lattice spanned by `vectors`.

    vectors: nonzero rational d-tuples.  Returns a list of d basis vectors
    (rational d-tuples) whose integer span contains every input vector.
    """
    denom, flat = scale_to_ints([x for v in vectors for x in v])
    cols = [flat[i:i + d] for i in range(0, len(flat), d)]
    # integer column echelon via Euclidean column ops (unimodular, so the
    # integer span is preserved), row by row
    basis = []
    work = [c[:] for c in cols]
    row = 0
    while row < d and work:
        nz = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0]
        if not nz:
            work = rest
            row += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda c: abs(c[row]))
            a = nz[0]
            keep = [a]
            for c in nz[1:]:
                q = c[row] // a[row]
                if q:
                    for i in range(d):
                        c[i] -= q * a[i]
                (keep if c[row] != 0 else rest).append(c)
            nz = keep
        piv = nz[0]
        if piv[row] < 0:
            piv[:] = [-x for x in piv]
        basis.append(piv)
        work = rest
        row += 1
    rank = RationalSolver([{i: v for i, v in enumerate(c) if v} for c in cols],
                          d).rank
    if len(basis) != rank:
        raise TreeError("lattice basis extraction failed")
    return [tuple(RAT(x, denom) for x in b) for b in basis]
