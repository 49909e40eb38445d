"""The grid-cube tree T_{n,k} and its verification.

Membership has a closed form: an interior k-cell belongs to the tree iff
among its leading run of interval axes some interval differs from [0, 1/r].
The same set also arises by peeling off the last coordinate (interior slab
levels carry T_{n-1,k}, open slabs carry T_{n-1,k-1} thickened); both
constructions are implemented and compared cell-for-cell.

Verification covers: (1) the tree meets the cube boundary in exactly the
(k-1)-skeleton; (2') the pair (T, boundary (k-1)-skeleton) has vanishing
rational homology, the homological surrogate of the deformation
retraction; (3) every k-cell outside the tree is homologous rel tree to a
boundary chain whose trace on each facet is a box, certified by an explicit
(k+1)-box filling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import GridCubeComplex
from .linalg import RationalSolver


class CubeTreeError(ValueError):
    pass


MAX_N = 3
MAX_R = 4


@dataclass
class CubeTree:
    grid: GridCubeComplex
    k: int
    cells: tuple   # indices of k-cells in the tree

    def cell_set(self):
        return set(self.cells)


def _leading_intervals(c) -> int:
    """Length of the leading run of interval axes."""
    run = 0
    for lo, hi in c:
        if hi > lo:
            run += 1
        else:
            break
    return run


def _in_tree_closed_form(grid, c) -> bool:
    if grid.in_boundary(c):
        return False
    run = _leading_intervals(c)
    return any(c[i] != (0, 1) for i in range(run))


def cube_tree(n: int, k: int, r: int) -> CubeTree:
    """T_{n,k} on the r-grid cubulation of the n-cube, by the closed form.

    k = 0 gives the empty tree; k = n gives everything except the cell at
    the origin.
    """
    if not (0 <= k <= n <= MAX_N) or not (1 <= r <= MAX_R):
        raise CubeTreeError(f"unsupported parameters (n={n}, k={k}, r={r})")
    grid = GridCubeComplex(n, r)
    cells = tuple(i for i, c in enumerate(grid.cells[k])
                  if _in_tree_closed_form(grid, c))
    return CubeTree(grid, k, cells)


def cube_tree_recursive(n: int, k: int, r: int) -> CubeTree:
    """Same tree by the product recursion on the last coordinate."""
    if not (0 <= k <= n <= MAX_N) or not (1 <= r <= MAX_R):
        raise CubeTreeError(f"unsupported parameters (n={n}, k={k}, r={r})")
    grid = GridCubeComplex(n, r)
    cells = _recursive_cells(n, k, r)
    idx = tuple(sorted(grid.cell_index(k, c) for c in cells))
    return CubeTree(grid, k, idx)


def _recursive_cells(n, k, r):
    if k == 0:
        return set()
    if k == n:
        origin = tuple((0, 1) for _ in range(n))
        return {c for c in GridCubeComplex(n, r).cells[n] if c != origin}
    horiz = {c + ((i, i),)
             for c in _recursive_cells(n - 1, k, r) for i in range(1, r)}
    vert = {c + ((i, i + 1),)
            for c in _recursive_cells(n - 1, k - 1, r) for i in range(r)}
    return horiz | vert


def _box_for_cell(grid, c):
    """The (k+1)-box bounding c rel tree-and-boundary, from the closed form.

    Axis ranges (in grid units): full [0,r] on the leading interval run, the
    stretch [x,r] on the first point axis after it, and the cell's own
    extent elsewhere.
    """
    run = _leading_intervals(c)
    ranges = []
    for i, (lo, hi) in enumerate(c):
        if i < run:
            ranges.append((0, grid.r))
        elif i == run:
            ranges.append((lo, grid.r))   # point axis: stretch to the far side
        else:
            ranges.append((lo, hi))
    return ranges


def verify_cube_tree(T: CubeTree) -> dict:
    """Checks (1), (2') and (3); failures are reported, not raised."""
    grid, k = T.grid, T.k
    tree = T.cell_set()
    report = {"n": grid.n, "r": grid.r, "k": k,
              "boundary_clean": True, "pair_homology_zero": True,
              "pair_betti": [], "escape_failures": [],
              "checks_passed": True}

    # (1): no tree k-cell may lie in the cube boundary
    bad = [i for i in tree if grid.in_boundary(grid.cells[k][i])]
    if bad:
        report["boundary_clean"] = False
        report["boundary_offenders"] = sorted(bad)

    # (2'): H_*(T, (dK)^(k-1); Q) = 0
    report["pair_betti"] = _pair_betti(grid, k, tree)
    if any(b != 0 for b in report["pair_betti"]):
        report["pair_homology_zero"] = False

    # (3): every k-cell outside T escapes to a boxy boundary chain rel T.
    # Needs the escape direction run+1 <= n, so it only applies below the top
    # dimension; at k = n the deformation-retraction check (2') carries the
    # load instead.
    report["escape_checked"] = 1 <= k < grid.n
    if report["escape_checked"]:
        for i, c in enumerate(grid.cells[k]):
            if i in tree:
                continue
            err = _check_escape(grid, k, tree, i, c)
            if err is not None:
                report["escape_failures"].append({"cell": i, "reason": err})

    report["checks_passed"] = (report["boundary_clean"]
                               and report["pair_homology_zero"]
                               and not report["escape_failures"])
    return report


def _pair_betti(grid, k, tree):
    """Betti numbers of the pair (tree complex, boundary (k-1)-skeleton)."""
    keep = []   # relative cells per dimension: T-cells not in (dK)^(k-1)
    for j in range(k + 1):
        if j < k:
            cells = [i for i, c in enumerate(grid.cells[j])
                     if not grid.in_boundary(c)]
        else:
            cells = sorted(tree)
        keep.append({i: pos for pos, i in enumerate(cells)})
    ranks = [0] * (k + 2)
    for j in range(1, k + 1):
        # the relative boundary's columns; a matrix's transpose has its rank
        cols, lower = grid.boundary_cols(j), keep[j - 1]
        rel = [{lower[f]: sgn for f, sgn in cols[i].items() if f in lower}
               for i in keep[j]]
        ranks[j] = RationalSolver(rel, len(lower)).rank
    betti = []
    for j in range(k + 1):
        betti.append(len(keep[j]) - ranks[j] - ranks[j + 1])
    return betti


def _check_escape(grid, k, tree, ci, c):
    """c must equal (boundary-supported boxy chain) + (tree chain) + d(box)."""
    if grid.in_boundary(c):
        return None   # already a boundary cell; nothing to escape
    ranges = _box_for_cell(grid, c)
    fill_cells = grid.boxes_cells(ranges, k + 1)
    if not fill_cells:
        return "empty filling box"
    # oriented boundary of the box chain
    acc = {}
    for cell in fill_cells:
        for f, sgn in grid.faces_of(cell):
            fi = grid.cell_index(k, f)
            acc[fi] = acc.get(fi, 0) + sgn
    acc = {i: v for i, v in acc.items() if v}
    eps = acc.get(ci, 0)
    if eps not in (1, -1):
        return f"cell carries coefficient {eps} in the box boundary"
    boundary_part = {}
    for i, v in acc.items():
        if i == ci:
            continue
        cell = grid.cells[k][i]
        if grid.in_boundary(cell):
            boundary_part[i] = v
        elif i not in tree:
            return f"stray interior cell {i} outside the tree"
    # per-facet traces must be boxes
    for axis in range(grid.n):
        for side in (0, grid.r):
            face_cells = [grid.cells[k][i] for i in boundary_part
                          if grid.cells[k][i][axis] == (side, side)]
            if not face_cells:
                continue
            lo = [min(fc[i][0] for fc in face_cells) for i in range(grid.n)]
            hi = [max(fc[i][1] for fc in face_cells) for i in range(grid.n)]
            box = set(grid.boxes_cells(list(zip(lo, hi)), k))
            box = {b for b in box if b[axis] == (side, side)}
            if box != set(face_cells):
                return f"face trace on axis {axis} side {side} is not a box"
    return None
