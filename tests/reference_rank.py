"""Reference greedy rank: the incremental column elimination that chose the
greedy trees before `linalg.greedy_basis`, kept here as a test oracle."""

from coiso.exact import RAT, ZERO


class IncrementalRank:
    """Incremental column rank over Q with deterministic pivoting."""

    def __init__(self):
        self.pivots = {}   # pivot row -> reduced column dict

    def reduce(self, col):
        col = {i: RAT(v) for i, v in col.items() if v}
        while col:
            r = min(col)
            piv = self.pivots.get(r)
            if piv is None:
                return col, r
            f = col[r] / piv[r]
            for i, v in piv.items():
                nv = col.get(i, ZERO) - f * v
                if nv:
                    col[i] = nv
                elif i in col:
                    del col[i]
        return col, None

    def try_add(self, col) -> bool:
        red, r = self.reduce(col)
        if r is None:
            return False
        self.pivots[r] = red
        return True


def greedy_reference(vectors):
    """(indices, rank) of the vectors that raise the rank, in order."""
    rk = IncrementalRank()
    picks = [i for i, v in enumerate(vectors) if rk.try_add(v)]
    return picks, len(picks)
