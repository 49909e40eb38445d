"""Finite simplicial complexes and grid cubulations of the n-cube.

Simplices are strictly increasing vertex tuples.  Cells of each dimension are
stored in lexicographic order and indexed against that order for the lifetime
of the complex; every boundary matrix and (co)chain vector in the package
refers to these indices.  Orientation is always the increasing-vertex-id one.

Grid cells of the unit n-cube at resolution r are encoded per axis as
(lo, hi) with hi == lo (a point lo/r) or hi == lo + 1 (the interval
[lo/r, (lo+1)/r]); a k-cell has exactly k interval axes.
"""

from __future__ import annotations

import json
import operator
from itertools import combinations, product

from .exact import RAT


class ComplexError(ValueError):
    pass


def _faces(simplex):
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


class SimplicialComplex:
    """Immutable simplicial complex with face closure and stable cell indices."""

    def __init__(self, cells_by_dim, vertex_coords=None):
        self.cells = [sorted(set(cs)) for cs in cells_by_dim]
        while len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        self.dim = len(self.cells) - 1
        self.index = [{c: i for i, c in enumerate(cs)} for cs in self.cells]
        self.vertex_coords = vertex_coords
        self._check_closure()

    def _check_closure(self):
        for k in range(1, self.dim + 1):
            lower = self.index[k - 1]
            for c in self.cells[k]:
                for f in _faces(c):
                    if f not in lower:
                        raise ComplexError(f"face {f} of {c} is missing")

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.dim:
            return len(self.cells[k])
        return 0

    def cell_index(self, k: int, c) -> int:
        return self.index[k][tuple(c)]

    def boundary_entries(self, k: int):
        """Yields (face_index, cell_index, sign) for the k-th boundary map."""
        lower = self.index[k - 1]
        for j, c in enumerate(self.cells[k]):
            for pos in range(len(c)):
                f = c[:pos] + c[pos + 1:]
                yield lower[f], j, (-1) ** pos

    def to_json_dict(self):
        tops = top_cells(self)
        return {"dim": self.dim, "simplices": [list(c) for c in tops]}

    def __repr__(self):
        counts = ",".join(str(len(cs)) for cs in self.cells)
        return f"SimplicialComplex(dim={self.dim}, cells=[{counts}])"


def build_complex(simplex_list, vertex_coords=None) -> SimplicialComplex:
    """Face closure of the given top simplices, with deterministic indexing.

    Raises ComplexError naming the offending input index for a vertex id
    that is not an integer, repeated vertices or duplicate top simplices.
    """
    tops = []
    seen = {}
    for idx, s in enumerate(simplex_list):
        try:
            t = tuple(sorted(map(operator.index, s)))
        except TypeError:
            raise ComplexError(f"simplex #{idx} is not a list of integer "
                               f"vertex ids: {s!r:.40}") from None
        if len(set(t)) != len(t):
            raise ComplexError(f"simplex #{idx} {tuple(s)} has repeated vertices")
        if t in seen:
            raise ComplexError(f"simplex #{idx} duplicates simplex #{seen[t]}: {t}")
        seen[t] = idx
        tops.append(t)
    if not tops:
        raise ComplexError("empty simplex list")
    dim = max(len(t) for t in tops) - 1
    cells = [set() for _ in range(dim + 1)]
    stack = list(tops)
    while stack:
        c = stack.pop()
        k = len(c) - 1
        if c in cells[k]:
            continue
        cells[k].add(c)
        if k > 0:
            stack.extend(_faces(c))
    return SimplicialComplex(cells, vertex_coords=vertex_coords)


def top_cells(X: SimplicialComplex):
    """Cells that are not a face of any higher cell."""
    covered = set()
    for k in range(1, X.dim + 1):
        for c in X.cells[k]:
            covered.update(_faces(c))
    return [c for k in range(X.dim + 1) for c in X.cells[k] if c not in covered]


def incidence_sign(X, sigma, tau) -> int:
    """(-1)^i when tau is sigma with its i-th vertex dropped, else 0.

    Works for simplicial and grid complexes; dimensions must differ by one.
    """
    if isinstance(X, GridCubeComplex):
        return X.incidence_sign(sigma, tau)
    sigma, tau = tuple(sigma), tuple(tau)
    if len(sigma) - len(tau) != 1:
        raise ComplexError(
            f"incidence needs dimensions k and k-1, got {len(sigma)-1} and {len(tau)-1}")
    k = len(sigma) - 1
    if sigma not in X.index[k] or tau not in X.index[k - 1]:
        raise ComplexError("cells do not belong to the complex")
    for pos in range(len(sigma)):
        if sigma[:pos] + sigma[pos + 1:] == tau:
            return (-1) ** pos
    return 0


class GridCubeComplex:
    """The unit n-cube cubulated by an axis grid of side 1/r."""

    def __init__(self, n: int, r: int):
        if n < 1 or r < 1:
            raise ComplexError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        self.n = n
        self.r = r
        self.dim = n
        self.cells = []
        for k in range(n + 1):
            cs = []
            for axes in combinations(range(n), k):
                ranges = [range(r) if i in axes else range(r + 1) for i in range(n)]
                for los in product(*ranges):
                    cs.append(tuple((lo, lo + 1) if i in axes else (lo, lo)
                                    for i, lo in enumerate(los)))
            cs.sort()
            self.cells.append(cs)
        self.index = [{c: i for i, c in enumerate(cs)} for cs in self.cells]

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.n:
            return len(self.cells[k])
        return 0

    def cell_index(self, k: int, c) -> int:
        return self.index[k][tuple(c)]

    @staticmethod
    def cell_dim(c) -> int:
        return sum(1 for lo, hi in c if hi > lo)

    def faces_of(self, c):
        """Signed faces: (face, sign) with the standard cubical convention.

        The i-th interval axis (in increasing axis order) contributes
        (-1)^(i+1) * (top - bottom).
        """
        out = []
        ifaces = [a for a, (lo, hi) in enumerate(c) if hi > lo]
        for pos, axis in enumerate(ifaces):
            lo, hi = c[axis]
            sgn = (-1) ** pos
            top = c[:axis] + ((hi, hi),) + c[axis + 1:]
            bot = c[:axis] + ((lo, lo),) + c[axis + 1:]
            out.append((top, sgn))
            out.append((bot, -sgn))
        return out

    def incidence_sign(self, sigma, tau) -> int:
        sigma, tau = tuple(sigma), tuple(tau)
        ks, kt = self.cell_dim(sigma), self.cell_dim(tau)
        if ks - kt != 1:
            raise ComplexError(
                f"incidence needs dimensions k and k-1, got {ks} and {kt}")
        if sigma not in self.index[ks] or tau not in self.index[kt]:
            raise ComplexError("cells do not belong to the complex")
        for f, sgn in self.faces_of(sigma):
            if f == tau:
                return sgn
        return 0

    def boundary_entries(self, k: int):
        lower = self.index[k - 1]
        for j, c in enumerate(self.cells[k]):
            for f, sgn in self.faces_of(c):
                yield lower[f], j, sgn

    def in_boundary(self, c) -> bool:
        """True when the cell lies in the boundary of the cube."""
        return any(hi == lo and (lo == 0 or lo == self.r) for lo, hi in c)

    def boxes_cells(self, ranges, k=None):
        """All cells (of dimension k if given) inside the box prod [a_i, b_i]/r.

        ranges: per axis (a, b) with 0 <= a <= b <= r.
        """
        per_axis = []
        for a, b in ranges:
            opts = [(x, x) for x in range(a, b + 1)]
            opts += [(x, x + 1) for x in range(a, b)]
            per_axis.append(opts)
        out = []
        for combo in product(*per_axis):
            if k is None or self.cell_dim(combo) == k:
                out.append(combo)
        return sorted(out)

    def to_json_dict(self):
        return {"n": self.n, "r": self.r}

    def __repr__(self):
        return f"GridCubeComplex(n={self.n}, r={self.r})"


def build_grid_cube_complex(n: int, r: int) -> GridCubeComplex:
    return GridCubeComplex(n, r)


def complex_from_json_dict(d):
    """A complex from {"simplices": [[v, ...], ...]} or {"n": n, "r": r}.

    Anything else, or a field of the wrong type (vertex ids, n and r are
    JSON integers), raises ComplexError.
    """
    if not isinstance(d, dict):
        raise ComplexError(f"complex JSON must be an object, got {d!r:.40}")
    if "simplices" in d:
        tops = d["simplices"]
        if not isinstance(tops, list):
            raise ComplexError("complex JSON: simplices must be a list")
        for idx, s in enumerate(tops):
            if not (isinstance(s, list) and s and all(type(v) is int for v in s)):
                raise ComplexError(f"simplex #{idx} is not a nonempty list of "
                                   f"integer vertex ids: {s!r:.40}")
        return build_complex(tops)
    if "n" in d and "r" in d:
        if type(d["n"]) is not int or type(d["r"]) is not int:
            raise ComplexError("complex JSON: grid n and r must be integers")
        return GridCubeComplex(d["n"], d["r"])
    raise ComplexError("unrecognized complex JSON")


def load_complex(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as e:     # JSONDecodeError, UnicodeDecodeError
            raise ComplexError(f"complex file is not JSON: {e}") from e
    return complex_from_json_dict(d)


def standard_simplex(n: int) -> SimplicialComplex:
    """Delta^n with vertices at the standard basis of Q^(n+1).

    All edges have squared length 2; regularity reports normalize against
    this common base edge length.
    """
    coords = {i: tuple(RAT(1 if j == i else 0) for j in range(n + 1))
              for i in range(n + 1)}
    return build_complex([tuple(range(n + 1))], vertex_coords=coords)


def simplex_boundary(n: int) -> SimplicialComplex:
    """The boundary of Delta^n, a simplicial (n-1)-sphere."""
    tops = list(combinations(range(n + 1), n))
    return build_complex(tops)


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle graph C_n on vertices 0..n-1."""
    if n < 3:
        raise ComplexError("cycle needs at least 3 vertices")
    return build_complex([(i, (i + 1) % n) for i in range(n)])
