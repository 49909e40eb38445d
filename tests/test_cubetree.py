import pytest

from coiso.cubetree import (CubeTree, CubeTreeError, cube_tree,
                            cube_tree_recursive, verify_cube_tree)


def test_interval_tree_omits_origin_cell():
    T = cube_tree(1, 1, 3)
    cells = [T.grid.cells[1][i] for i in T.cells]
    assert cells == [((1, 2),), ((2, 3),)]


def test_square_grid_pattern():
    # interior horizontal edges whose interval is not the leftmost one
    T = cube_tree(2, 1, 3)
    cells = sorted(T.grid.cells[1][i] for i in T.cells)
    assert cells == sorted(((x, x + 1), (y, y)) for x in (1, 2) for y in (1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_equals_recursive(n):
    for k in range(n + 1):
        for r in range(1, 5):
            assert cube_tree(n, k, r).cells == cube_tree_recursive(n, k, r).cells


def test_extremes():
    assert cube_tree(3, 0, 2).cells == ()
    T = cube_tree(2, 2, 2)
    origin = tuple((0, 1) for _ in range(2))
    cells = [T.grid.cells[2][i] for i in T.cells]
    assert origin not in cells and len(cells) == 3


@pytest.mark.parametrize("nkr", [(4, 2, 2), (2, 3, 2), (2, 1, 5), (2, 1, 0), (2, -1, 2)])
def test_recursive_construction_refuses_the_same_parameters(nkr):
    with pytest.raises(CubeTreeError, match=r"unsupported parameters \(n=%d, k=%d, r=%d\)" % nkr):
        cube_tree_recursive(*nkr)


def test_out_of_range_rejected():
    with pytest.raises(CubeTreeError):
        cube_tree(4, 2, 2)
    with pytest.raises(CubeTreeError):
        cube_tree(2, 3, 2)
    with pytest.raises(CubeTreeError):
        cube_tree(2, 1, 5)
    with pytest.raises(CubeTreeError):
        cube_tree(2, 1, 0)


@pytest.mark.parametrize("nkr", [(2, 1, 3), (3, 1, 2), (3, 2, 2)])
def test_verification_passes(nkr):
    rep = verify_cube_tree(cube_tree(*nkr))
    assert rep["checks_passed"]
    assert rep["boundary_clean"]
    assert rep["pair_homology_zero"]
    assert rep["escape_checked"] and not rep["escape_failures"]


def test_all_supported_trees_verify():
    for n in range(1, 4):
        for k in range(n + 1):
            for r in range(1, 5):
                rep = verify_cube_tree(cube_tree(n, k, r))
                assert rep["checks_passed"], (n, k, r, rep)


def test_removing_a_cell_breaks_the_pair_homology():
    T = cube_tree(2, 1, 3)
    broken = CubeTree(T.grid, 1, T.cells[:-1])
    rep = verify_cube_tree(broken)
    assert not rep["pair_homology_zero"]
    assert not rep["checks_passed"]


def test_adding_a_boundary_cell_breaks_condition_one():
    T = cube_tree(2, 1, 3)
    grid = T.grid
    extra = next(i for i, c in enumerate(grid.cells[1]) if grid.in_boundary(c))
    rep = verify_cube_tree(CubeTree(grid, 1, T.cells + (extra,)))
    assert not rep["boundary_clean"]
