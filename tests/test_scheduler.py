import json
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from coiso import scheduler
from coiso.complexes import build_complex, simplex_boundary
from coiso.homalg import (Cochain, IntegerMatrix, apply_coboundary,
                          boundary_matrix, norm_inf)
from coiso.filling import (FillingError, integral_fill,
                           sample_integral_coboundary, trial_rng)
from coiso.scheduler import (PrismComplex, PrismSchedule, SchedulerError,
                             ScheduleInvariantError,
                             build_prism_complex, degree_schedule,
                             obstruction_cocycle, s2_null_demo,
                             verify_schedule)

from intmatrix import matmul, set_entry

TWO_TRIANGLES = build_complex([(0, 1, 2), (1, 2, 3)])


def test_obstruction_is_entrywise_difference():
    X = simplex_boundary(3)
    f = Cochain(2, {0: 1, 1: -1}, "int")
    g = Cochain(2, {}, "int")
    assert dict(obstruction_cocycle(X, f, g).entries) == {0: 1, 1: -1}
    assert not obstruction_cocycle(X, f, f).entries
    f2 = Cochain(2, {0: 2, 2: -1, 3: -1}, "int")
    g2 = Cochain(2, {0: 1, 1: -1}, "int")
    assert dict(obstruction_cocycle(X, f2, g2).entries) == {0: 1, 1: 1, 2: -1, 3: -1}


def test_obstruction_rejects_wrong_degree():
    X = simplex_boundary(3)
    with pytest.raises(SchedulerError):
        obstruction_cocycle(X, Cochain(1, {0: 1}, "int"), Cochain(1, {}, "int"))


def test_obstruction_rejects_foreign_indices():
    X = TWO_TRIANGLES
    with pytest.raises(SchedulerError):
        obstruction_cocycle(X, Cochain(2, {5: 1}, "int"), Cochain(2, {}, "int"))


@pytest.mark.parametrize("f,g", [({-1: 1}, {}), ({}, {-1: 1})], ids=["f", "g"])
def test_obstruction_rejects_negative_indices(f, g):
    X = simplex_boundary(3)
    with pytest.raises(SchedulerError, match=r"at indices \[-1\]"):
        obstruction_cocycle(X, Cochain(2, f, "int"), Cochain(2, g, "int"))


def test_prism_counts_sphere_one_layer():
    P = build_prism_complex(simplex_boundary(3), 1)
    assert (P.n_vertical, P.n_horizontal, P.n_prisms) == (6, 8, 4)


def test_prism_counts_triangle_two_layers():
    P = build_prism_complex(build_complex([(0, 1, 2)]), 2)
    assert (P.n_vertical, P.n_horizontal, P.n_prisms) == (6, 3, 2)


class BoundaryPrism(PrismComplex):
    """The prism complex with its two boundary maps, for the dd = 0 check."""

    def n_cells_mid(self) -> int:
        return self.n_vertical + self.n_horizontal

    def vertical_index(self, p: int, i: int) -> int:
        return p * self.layers + i

    def horizontal_index(self, q: int, j: int) -> int:
        return self.n_vertical + q * (self.layers + 1) + j

    def prism_index(self, q: int, i: int) -> int:
        return q * self.layers + i

    def boundary_top(self) -> IntegerMatrix:
        """(m+1)-cells -> m-cells: top - bottom - signed verticals."""
        B = boundary_matrix(self.X, self.m)
        M = IntegerMatrix(self.n_cells_mid(), self.n_prisms)
        cols = B.col_dicts()
        for q in range(self.n_top):
            for i in range(self.layers):
                c = self.prism_index(q, i)
                set_entry(M, self.horizontal_index(q, i + 1), c, 1)
                set_entry(M, self.horizontal_index(q, i), c, -1)
                for p, sgn in cols[q].items():
                    set_entry(M, self.vertical_index(p, i), c, -sgn)
        return M

    def boundary_mid(self) -> IntegerMatrix:
        """m-cells -> (m-1)-cells of the prism complex."""
        m, T = self.m, self.layers
        n_low_h = self.n_low * (T + 1)
        n_low_v = (self.X.n_cells(m - 2) * T) if m >= 2 else 0

        def low_h(p, j):
            return p * (T + 1) + j

        def low_v(s, i):
            return n_low_h + s * T + i

        M = IntegerMatrix(n_low_h + n_low_v, self.n_cells_mid())
        B = boundary_matrix(self.X, self.m)
        colsB = B.col_dicts()
        if m >= 2:
            Bl = boundary_matrix(self.X, self.m - 1)
            colsBl = Bl.col_dicts()
        for p in range(self.n_low):
            for i in range(T):
                c = self.vertical_index(p, i)
                set_entry(M, low_h(p, i + 1), c, 1)
                set_entry(M, low_h(p, i), c, -1)
                if m >= 2:
                    for s, sgn in colsBl[p].items():
                        set_entry(M, low_v(s, i), c, -sgn)
        for q in range(self.n_top):
            for j in range(T + 1):
                c = self.horizontal_index(q, j)
                for p, sgn in colsB[q].items():
                    set_entry(M, low_h(p, j), c, sgn)
        return M


def test_prism_dd_zero():
    P = BoundaryPrism(simplex_boundary(3), 3)
    assert not any(matmul(P.boundary_mid(), P.boundary_top()).rows)


def test_prism_rejects_zero_layers():
    with pytest.raises(SchedulerError):
        build_prism_complex(simplex_boundary(3), 0)


def test_prism_rejects_impure_base():
    with pytest.raises(SchedulerError):
        build_prism_complex(build_complex([(0, 1, 2), (3, 4)]), 1)


def test_an_impure_base_is_refused_on_every_build(monkeypatch):
    # a triangle plus a dangling edge; its purity is found once per complex
    X = build_complex([(0, 1, 2), (2, 3)])
    calls = []
    top_cells = scheduler.top_cells
    monkeypatch.setattr(scheduler, "top_cells",
                        lambda Y: calls.append(Y) or top_cells(Y))
    for _ in range(2):
        with pytest.raises(SchedulerError, match="base must be pure of top dimension"):
            build_prism_complex(X, 1)
    assert calls == [X]
    build_prism_complex(simplex_boundary(3), 1)
    assert len(calls) == 2


# -- the schedule -----------------------------------------------------------------

def test_zero_schedule():
    X = simplex_boundary(3)
    s, _ = degree_schedule(X, Cochain(2, {}, "int"), Cochain(1, {}, "int"), 2)
    assert not s.vertical and not s.horizontal
    assert verify_schedule(s)["all_passed"]


def test_two_triangles_hand_evaluated():
    # alpha = +1 on the shared edge, omega = delta(alpha), two layers
    X = TWO_TRIANGLES
    shared = X.cell_index(1, (1, 2))
    alpha = Cochain(1, {shared: 1}, "int")
    omega = apply_coboundary(X, alpha).map(int, "int")
    s, _ = degree_schedule(X, omega, alpha, 2)
    # floor spread of +1 over two layers: floor(1/2)=0 then floor(1)=1
    assert s.value("vertical", shared, 0) == 0
    assert s.value("vertical", shared, 1) == 1
    # closedness on both prisms over each triangle, checked by enumeration
    cols = boundary_matrix(X, 2).col_dicts()
    for q in range(2):
        for i in range(2):
            total = s.value("horizontal", q, i + 1) - s.value("horizontal", q, i)
            for p, sgn in cols[q].items():
                total -= sgn * s.value("vertical", p, i)
            assert total == 0
    assert verify_schedule(s)["all_passed"]


def test_floor_spread_of_negative_values():
    # alpha = -3 and +2 over three layers: the floors of (i/3) * alpha
    X = TWO_TRIANGLES
    e12, e01 = X.cell_index(1, (1, 2)), X.cell_index(1, (0, 1))
    alpha = Cochain(1, {e12: -3, e01: 2}, "int")
    omega = apply_coboundary(X, alpha).map(int, "int")
    s, _ = degree_schedule(X, omega, alpha, 3)
    for p, a in ((e12, -3), (e01, 2)):
        spread = [floor(Fraction((i + 1) * a, 3)) - floor(Fraction(i * a, 3))
                  for i in range(3)]
        assert [s.value("vertical", p, i) for i in range(3)] == spread
    assert [s.value("vertical", e12, i) for i in range(3)] == [-1, -1, -1]
    assert [s.value("vertical", e01, i) for i in range(3)] == [0, 1, 1]


def test_schedule_requires_exact_fill():
    X = TWO_TRIANGLES
    omega = Cochain(2, {0: 1, 1: 1}, "int")
    bad_alpha = Cochain(1, {0: 1}, "int")
    with pytest.raises(SchedulerError, match="residual"):
        degree_schedule(X, omega, bad_alpha, 2)


def test_pipeline_schedule_on_sphere():
    X = simplex_boundary(3)
    om = sample_integral_coboundary(X, 2, trial_rng(4, 1, 0))
    fill = integral_fill(X, om)
    layers = max(1, int(norm_inf(fill.alpha)))
    s, rep = degree_schedule(X, om, fill.alpha, layers)
    assert rep == verify_schedule(s)
    assert rep["all_passed"]
    assert rep["max_abs_vertical"] <= 1
    assert s.norm_inf() <= int(norm_inf(om)) + 2 + 1


def test_corrupting_a_horizontal_value_breaks_one_or_two_prisms():
    X = TWO_TRIANGLES
    shared = X.cell_index(1, (1, 2))
    alpha = Cochain(1, {shared: 1}, "int")
    omega = apply_coboundary(X, alpha).map(int, "int")
    s, _ = degree_schedule(X, omega, alpha, 2)
    s.horizontal[(0, 1)] = s.horizontal.get((0, 1), 0) + 1
    rep = verify_schedule(s)
    assert not rep["closedness"]["passed"]
    assert 1 <= len(rep["closedness"]["offenders"]) <= 2
    # interior level (0,1) borders prisms (0,0) and (0,1)
    assert sorted(o[:2] for o in rep["closedness"]["offenders"]) == [[0, 0], [0, 1]]


@pytest.mark.parametrize("kind,cell", [
    ("vertical", (-1, 0)), ("vertical", (0, 2)), ("vertical", (5, 0)),
    ("horizontal", (0, 3)), ("horizontal", (2, 0)), ("horizontal", (0, -1))])
def test_verify_rejects_cells_off_the_prism(kind, cell):
    # TWO_TRIANGLES with 2 layers: 5 edges x [0, 2) vertical, 2 triangles x
    # [0, 2] horizontal
    X = TWO_TRIANGLES
    alpha = Cochain(1, {X.cell_index(1, (1, 2)): 1}, "int")
    s, _ = degree_schedule(X, apply_coboundary(X, alpha).map(int, "int"),
                           alpha, 2)
    getattr(s, kind)[cell] = 1
    with pytest.raises(SchedulerError, match="off the prism"):
        verify_schedule(s)


@pytest.mark.parametrize("omega,alpha,name", [
    ({0: Fraction(1, 2)}, {}, "omega"),
    ({}, {0: Fraction(1, 3)}, "alpha"),
], ids=["omega", "alpha"])
def test_verify_refuses_a_non_integral_cochain(omega, alpha, name):
    # an empty schedule on one layer over the sphere: omega = 1/2 on a cell
    # used to read as int(1/2) = 0, and every check passed
    s = PrismSchedule(PrismComplex(simplex_boundary(3), 1), {}, {},
                      Cochain(2, omega, "rat"), Cochain(1, alpha, "rat"))
    with pytest.raises(SchedulerError,
                       match=rf"^{name} has non-integer entries at indices \[0\]$"):
        verify_schedule(s)
    whole = PrismSchedule(s.prism, {}, {}, Cochain(2, {}, "rat"), Cochain(1, {}, "rat"))
    assert verify_schedule(whole)["all_passed"]


def test_schedule_json_round_trip():
    X = TWO_TRIANGLES
    alpha = Cochain(1, {X.cell_index(1, (1, 2)): 1}, "int")
    s, _ = degree_schedule(X, apply_coboundary(X, alpha).map(int, "int"),
                           alpha, 2)
    doc = json.loads(json.dumps({"schedule": s.to_json_dict()}))
    back = PrismSchedule.from_json_dict(doc, X)
    assert back.to_json_dict() == s.to_json_dict()
    assert PrismSchedule.from_json_dict(doc["schedule"], X).vertical == s.vertical


@pytest.mark.parametrize("kind", ["vertical", "horizontal"])
def test_schedule_json_rejects_a_repeated_cell(kind):
    X = TWO_TRIANGLES
    alpha = Cochain(1, {X.cell_index(1, (1, 2)): 1}, "int")
    s, _ = degree_schedule(X, apply_coboundary(X, alpha).map(int, "int"),
                           alpha, 2)
    doc = s.to_json_dict()
    a, b, v = doc[kind][0]
    doc[kind].append([a, b, v])
    with pytest.raises(SchedulerError, match=rf"malformed schedule JSON: "
                                             rf"repeated {kind} cell \[{a}, {b}\]"):
        PrismSchedule.from_json_dict(doc, X)


def test_telescoping_vertical_sums_recover_alpha():
    X = simplex_boundary(3)
    om = sample_integral_coboundary(X, 2, trial_rng(4, 2, 1))
    fill = integral_fill(X, om)
    layers = max(1, int(norm_inf(fill.alpha))) + 2
    s, _ = degree_schedule(X, om, fill.alpha, layers)
    for p in range(X.n_cells(1)):
        total = sum(s.value("vertical", p, i) for i in range(layers))
        assert total == int(fill.alpha(p))


def test_degree_conservation_per_column():
    # omega(q) equals the signed sum of the alpha column totals around q
    X = simplex_boundary(3)
    om = sample_integral_coboundary(X, 2, trial_rng(4, 3, 2))
    fill = integral_fill(X, om)
    layers = max(1, int(norm_inf(fill.alpha)))
    s, _ = degree_schedule(X, om, fill.alpha, layers)
    cols = boundary_matrix(X, 2).col_dicts()
    for q in range(X.n_cells(2)):
        acc = 0
        for p, sgn in cols[q].items():
            acc += sgn * sum(s.value("vertical", p, i) for i in range(layers))
        assert acc == int(om(q))


@given(st.integers(-9, 9), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_vertical_values_in_pm_one_whenever_layers_cover_alpha(a, extra):
    # scalar model of the floor spread: T >= |a| forces steps in {-1,0,1}
    T = abs(a) + extra
    prev = 0
    for i in range(1, T + 1):
        nxt = (i * a) // T
        assert nxt - prev in (-1, 0, 1)
        prev = nxt
    assert prev == a


def test_layers_below_alpha_norm_violate_the_bound():
    # small omega but an eccentric fill (shifted by a large coboundary):
    # with a single layer the vertical values blow past ||omega|| + m + 1
    X = TWO_TRIANGLES
    shared = X.cell_index(1, (1, 2))
    alpha = Cochain(1, {shared: 1}, "int")
    bump = apply_coboundary(X, Cochain(0, {0: 7}, "int")).map(int, "int")
    ecc = alpha.add(bump, ring="int")
    omega = apply_coboundary(X, alpha).map(int, "int")
    with pytest.raises(ScheduleInvariantError):
        degree_schedule(X, omega, ecc, 1)
    # generous layering restores every invariant
    ok, rep = degree_schedule(X, omega, ecc, int(norm_inf(ecc)))
    assert rep["all_passed"] and rep == verify_schedule(ok)


# -- the demo ----------------------------------------------------------------------

def test_demo_smallest_scale():
    r = s2_null_demo(1, 3)
    assert r["all_passed"]
    assert r["max_abs_beta_vertical"] <= 1
    assert r["norm_omega"] == 1


def test_demo_deterministic():
    a = s2_null_demo(2, 7)
    b = s2_null_demo(2, 7)
    assert json.dumps(a, sort_keys=True, default=str) == \
           json.dumps(b, sort_keys=True, default=str)


def test_demo_bound_at_larger_scales():
    for L in (4, 8):
        r = s2_null_demo(L, 5)
        assert r["all_passed"]
        assert r["max_abs_beta_horizontal"] <= r["norm_omega"] + 3
        assert r["max_abs_beta_vertical"] <= 1
        assert r["layers"] == max(1, r["norm_alpha"])


def test_demo_tube_counts_match_alpha():
    r = s2_null_demo(2, 9)
    alpha = dict(r["tube_counts"])
    entries = {int(i): int(v) for i, v in r["alpha"]["entries"]}
    assert alpha == entries


def test_demo_verifies_the_schedule_once(monkeypatch):
    calls = []
    verify = scheduler.verify_schedule

    def counted(s):
        calls.append(s)
        return verify(s)

    monkeypatch.setattr(scheduler, "verify_schedule", counted)
    r = s2_null_demo(2, 9)
    assert r["all_passed"] and len(calls) == 1


def test_demo_refuses_when_the_sampler_finds_no_coboundary(monkeypatch):
    calls = []

    def exhausted(X, k, rng):
        calls.append(k)
        raise FillingError("no nonzero integral coboundary found")

    monkeypatch.setattr(scheduler, "sample_integral_coboundary", exhausted)
    with pytest.raises(SchedulerError, match="could not sample a nonzero degree cochain"):
        s2_null_demo(2, 9)
    assert calls == [2]


def test_demo_raises_on_a_corrupted_schedule(monkeypatch):
    build = scheduler.PrismSchedule

    def corrupted(prism, vertical, horizontal, omega, alpha):
        horizontal = dict(horizontal)
        horizontal[(0, 0)] = horizontal.get((0, 0), 0) + 1
        return build(prism, vertical, horizontal, omega, alpha)

    monkeypatch.setattr(scheduler, "PrismSchedule", corrupted)
    with pytest.raises(ScheduleInvariantError, match="closedness, bottom_trace"):
        s2_null_demo(2, 9)
