"""Finite simplicial complexes and grid cubulations of the n-cube.

Simplices are strictly increasing vertex tuples.  Cells of each dimension are
stored in lexicographic order and indexed against that order for the lifetime
of the complex; every boundary matrix and (co)chain vector in the package
refers to these indices.  Orientation is always the increasing-vertex-id one.

Grid cells of the unit n-cube at resolution r are encoded per axis as
(lo, hi) with hi == lo (a point lo/r) or hi == lo + 1 (the interval
[lo/r, (lo+1)/r]); a k-cell has exactly k interval axes.

Both kinds give a cell's signed faces (`faces_of`) and dimension
(`cell_dim`); counts, indices, boundaries, incidences and top cells are
written once over those.  The boundary maps have one representation,
`boundary_cols(k)`: a dict per k-cell from (k-1)-face index to sign, read
from `faces_of` once per degree and kept on the complex.  Every module
derives what it needs from these shared columns and none changes them.
"""

from __future__ import annotations

import json
from itertools import combinations, product

from .exact import RAT, int_index


class ComplexError(ValueError):
    pass


class _CellComplex:
    """The shared part; a kind gives dim, cells[k] in sorted order, index[k]
    its positions, and faces_of and cell_dim."""

    def n_cells(self, k: int) -> int:
        return len(self.cells[k]) if 0 <= k <= self.dim else 0

    def cell_index(self, k: int, c) -> int:
        return self.index[k][tuple(c)]

    def boundary_cols(self, k: int):
        """The k-th boundary map by columns: one dict per k-cell, mapping
        each (k-1)-face index to its sign, in increasing face index; empty
        dicts outside 1..dim.  Read once from faces_of and kept on the
        complex, so every caller shares them and none may mutate them."""
        cache = self.__dict__.setdefault("_boundary_cols", {})
        if k not in cache:
            if 1 <= k <= self.dim:
                lower, faces_of = self.index[k - 1], self.faces_of
                cache[k] = [dict(sorted((lower[f], sgn) for f, sgn in faces_of(c)))
                            for c in self.cells[k]]
            else:
                cache[k] = [{} for _ in range(self.n_cells(k))]
        return cache[k]

    def incidence_sign(self, sigma, tau) -> int:
        """The sign of tau in the boundary of sigma, 0 when tau is not one
        of its faces; the dimensions must be k and k-1."""
        sigma, tau = tuple(sigma), tuple(tau)
        ks, kt = self.cell_dim(sigma), self.cell_dim(tau)
        if ks - kt != 1:
            raise ComplexError(
                f"incidence needs dimensions k and k-1, got {ks} and {kt}")
        if not (1 <= ks <= self.dim and sigma in self.index[ks]
                and tau in self.index[kt]):
            raise ComplexError("cells do not belong to the complex")
        for f, sgn in self.faces_of(sigma):
            if f == tau:
                return sgn
        return 0


class SimplicialComplex(_CellComplex):
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
                for f, _ in self.faces_of(c):
                    if f not in lower:
                        raise ComplexError(f"face {f} of {c} is missing")

    @staticmethod
    def cell_dim(c) -> int:
        return len(c) - 1

    @staticmethod
    def faces_of(c):
        """Signed faces: (c without its i-th vertex, (-1)^i)."""
        out, sgn = [], 1
        for i in range(len(c)):
            out.append((c[:i] + c[i + 1:], sgn))
            sgn = -sgn
        return out

    def to_json_dict(self):
        tops = top_cells(self)
        return {"dim": self.dim, "simplices": [list(c) for c in tops]}

    def __repr__(self):
        counts = ",".join(str(len(cs)) for cs in self.cells)
        return f"SimplicialComplex(dim={self.dim}, cells=[{counts}])"


# faces the face closure lists, 2^n - 1 for a top simplex of n vertices,
# summed over the tops with repeats.  The tops are counted before any face
# is made, and past the cap the complex is refused.
FACE_CAP = 1_500_000


def build_complex(simplex_list, vertex_coords=None) -> SimplicialComplex:
    """Face closure of the given top simplices, with deterministic indexing.

    Raises ComplexError naming the offending input index for a vertex id
    that is not an integer (a boolean is not one), repeated vertices,
    duplicate top simplices, or the top at which the closure would list
    more than FACE_CAP faces.
    """
    tops = []
    seen = {}
    faces = 0
    for idx, s in enumerate(simplex_list):
        try:
            t = tuple(sorted(map(int_index, s)))
        except TypeError:
            raise ComplexError(f"simplex #{idx} is not a list of integer "
                               f"vertex ids: {s!r:.40}") from None
        if len(set(t)) != len(t):
            raise ComplexError(f"simplex #{idx} {tuple(s)} has repeated vertices")
        if t in seen:
            raise ComplexError(f"simplex #{idx} duplicates simplex #{seen[t]}: {t}")
        seen[t] = idx
        tops.append(t)
        faces += 2 ** len(t) - 1
        if faces > FACE_CAP:
            raise ComplexError(
                f"the face closure would list {faces} faces by simplex #{idx}, "
                f"more than the face cap of {FACE_CAP}")
    if not tops:
        raise ComplexError("empty simplex list")
    cells = [set() for _ in range(max(map(len, tops)))]
    for t in tops:
        for k in range(len(t)):
            cells[k].update(combinations(t, k + 1))
    return SimplicialComplex(cells, vertex_coords=vertex_coords)


def top_cells(X):
    """Cells that are not a face of any higher cell."""
    covered = set()
    for k in range(1, X.dim + 1):
        for c in X.cells[k]:
            covered.update(f for f, _ in X.faces_of(c))
    return [c for cs in X.cells for c in cs if c not in covered]


def incidence_sign(X, sigma, tau) -> int:
    """X.incidence_sign(sigma, tau), on either kind of complex."""
    return X.incidence_sign(sigma, tau)


# cells of a grid, (2r+1)^n: on each axis a cell is one of r+1 points or
# r intervals.  A larger grid is refused before any enumeration.
GRID_CELL_CAP = 100_000


class GridCubeComplex(_CellComplex):
    """The unit n-cube cubulated by an axis grid of side 1/r."""

    def __init__(self, n: int, r: int):
        if n < 1 or r < 1:
            raise ComplexError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        count = 1
        for _ in range(n):          # past the cap after at most 11 axes
            count *= 2 * r + 1
            if count > GRID_CELL_CAP:
                raise ComplexError(
                    f"the grid n={n}, r={r} has (2r+1)^n cells, more than "
                    f"the grid cap of {GRID_CELL_CAP} cells")
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
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as e:
        raise ComplexError(f"cannot read complex file {path}: {e.strerror or e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON, or nested too deep
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
