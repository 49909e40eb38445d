"""Obstruction cocycles and the layered degree schedule on X x I.

The prism complex is the product cell structure with the unit interval cut
into `layers` subintervals: m-cells are vertical (an (m-1)-simplex times a
subinterval) or horizontal (an m-simplex at a level), and (m+1)-cells are
the prisms themselves.  Orientation is the interval-first product
convention, so the boundary of a prism is

    (top horizontal) - (bottom horizontal) - sum_p sign(q,p) (vertical p)

which is the convention that makes the floor-spread schedule a cocycle.

The schedule spreads an integral fill alpha of the obstruction omega evenly
along the interval: vertical cells get consecutive floor differences of
(i/layers) * alpha, horizontal cells the defect that closes every prism,
interpolating -omega at the bottom to 0 at the top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# boundary_matrix is unused here, but perfbench's tracer test reads it as
# coiso.scheduler.boundary_matrix
from .homalg import Cochain, boundary_matrix, json_int, norm_inf  # noqa: F401
from .linalg import residual_rows
from .complexes import top_cells
from .filling import (get_fill_context, integral_fill,
                      sample_integral_coboundary, FillingError)


class SchedulerError(ValueError):
    pass


class ScheduleInvariantError(SchedulerError):
    def __init__(self, report):
        self.report = report
        bad = [k for k, v in report.items() if isinstance(v, dict) and not v.get("passed", True)]
        super().__init__("schedule invariants failed: %s" % ", ".join(bad))


class PrismComplex:
    """Product cell structure on X x I with `layers` interval layers.

    Cell order: vertical m-cells (p, i) sorted by (p, i) first, then
    horizontal m-cells (q, j) by (q, j); prisms (q, i) by (q, i).
    """

    def __init__(self, X, layers: int):
        if layers < 1:
            raise SchedulerError("layers must be >= 1")
        m = X.dim
        if m < 1:
            raise SchedulerError("base must have dimension >= 1")
        if any(len(c) - 1 != m for c in top_cells(X)):
            raise SchedulerError("base must be pure of top dimension")
        self.X = X
        self.m = m
        self.layers = layers
        self.n_low = X.n_cells(m - 1)
        self.n_top = X.n_cells(m)
        self.n_vertical = self.n_low * layers
        self.n_horizontal = self.n_top * (layers + 1)
        self.n_prisms = self.n_top * layers


def build_prism_complex(X, layers: int) -> PrismComplex:
    return PrismComplex(X, layers)


@dataclass
class PrismSchedule:
    prism: PrismComplex
    vertical: dict      # (p, i) -> int
    horizontal: dict    # (q, j) -> int
    omega: Cochain
    alpha: Cochain

    def value(self, kind, a, b) -> int:
        if kind == "vertical":
            return self.vertical.get((a, b), 0)
        return self.horizontal.get((a, b), 0)

    def max_abs_vertical(self) -> int:
        return max((abs(v) for v in self.vertical.values()), default=0)

    def max_abs_horizontal(self) -> int:
        return max((abs(v) for v in self.horizontal.values()), default=0)

    def norm_inf(self) -> int:
        return max(self.max_abs_vertical(), self.max_abs_horizontal())

    def off_prism_cells(self) -> list:
        """Stored cells off the prism: vertical (p, i) outside [0, n_low) x
        [0, layers), horizontal (q, j) outside [0, n_top) x [0, layers]."""
        P = self.prism
        return ([("vertical", p, i) for p, i in sorted(self.vertical)
                 if not (0 <= p < P.n_low and 0 <= i < P.layers)]
                + [("horizontal", q, j) for q, j in sorted(self.horizontal)
                   if not (0 <= q < P.n_top and 0 <= j <= P.layers)])

    def to_json_dict(self):
        return {
            "layers": self.prism.layers,
            "vertical": [[p, i, v] for (p, i), v in sorted(self.vertical.items())],
            "horizontal": [[q, j, v] for (q, j), v in sorted(self.horizontal.items())],
            "omega": self.omega.to_json_dict(),
            "alpha": self.alpha.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d, X):
        """Inverse of to_json_dict over the base complex X; d may also be a
        schedule artifact that holds it.  The layer count and every cell
        entry must be JSON integers, each cell listed once, and every cell
        must lie on the prism."""
        try:
            d = d["schedule"] if "schedule" in d else d
            layers = json_int(d["layers"])
            vertical, horizontal = {}, {}
            for kind, cells in (("vertical", vertical), ("horizontal", horizontal)):
                for a, b, v in d[kind]:
                    cell = (json_int(a), json_int(b))
                    if cell in cells:
                        raise SchedulerError(
                            f"malformed schedule JSON: repeated {kind} cell {list(cell)}")
                    cells[cell] = json_int(v)
            omega, alpha = d["omega"], d["alpha"]
        except SchedulerError:
            raise
        except (ValueError, KeyError, TypeError) as e:
            raise SchedulerError(
                f"malformed schedule JSON: {type(e).__name__}: {e}") from e
        s = cls(PrismComplex(X, layers), vertical, horizontal,
                Cochain.from_json_dict(omega), Cochain.from_json_dict(alpha))
        if bad := s.off_prism_cells():
            raise SchedulerError(
                f"malformed schedule JSON: cells {bad[:4]} lie off the prism")
        return s


def obstruction_cocycle(X, f_deg: Cochain, g_deg: Cochain) -> Cochain:
    """Top-degree obstruction: the entrywise degree difference f - g."""
    m = X.dim
    if f_deg.k != m or g_deg.k != m:
        raise SchedulerError("degree cochains must live in the top dimension")
    f_deg.dense_checked(X.n_cells(m), SchedulerError, "f")
    g_deg.dense_checked(X.n_cells(m), SchedulerError, "g")
    if not (f_deg.is_integral() and g_deg.is_integral()):
        raise SchedulerError("degrees must be integers")
    return f_deg.sub(g_deg, ring="int")


def degree_schedule(X, omega: Cochain, alpha: Cochain,
                    layers: int) -> tuple[PrismSchedule, dict]:
    """(schedule, its verify_schedule report) for the floor-spread schedule;
    ScheduleInvariantError when a check fails.

    alpha must be an integral fill of the integral cocycle omega; layers
    should be at least ||alpha||_inf or the norm invariant cannot hold.
    """
    m = X.dim
    if omega.k != m:
        raise SchedulerError(f"omega degree {omega.k}, expected top dimension {m}")
    if alpha.k != m - 1:
        raise SchedulerError(f"alpha degree {alpha.k}, expected {m - 1}")
    if not omega.is_integral() or not alpha.is_integral():
        raise SchedulerError("schedule needs integral omega and alpha")
    if layers < 1:
        raise SchedulerError("layers must be >= 1")
    dense_o = omega.dense_checked(X.n_cells(m), SchedulerError, "omega")
    dense_a = alpha.dense_checked(X.n_cells(m - 1), SchedulerError, "alpha")
    ctx = get_fill_context(X, m)
    residual = residual_rows(ctx.delta.rows, dense_a, dense_o)
    if residual:
        raise SchedulerError(
            "delta(alpha) != omega; residual on cells %s" % residual[:5])

    prism = PrismComplex(X, layers)
    T = layers
    a_int = [int(v) for v in dense_a]
    vertical = {}
    for p in range(prism.n_low):
        a = a_int[p]
        if a == 0:
            continue
        prev = 0
        for i in range(T):
            nxt = (i + 1) * a // T
            v = nxt - prev
            if v:
                vertical[(p, i)] = v
            prev = nxt
    horizontal = {}
    # the boundary of top cell q is row q of delta
    cols = ctx.delta.rows
    for q in range(prism.n_top):
        w = int(omega(q))
        for i in range(T):
            s = -w
            for p, sgn in cols[q].items():
                a = a_int[p]
                if a:
                    s += sgn * (i * a // T)
            if s:
                horizontal[(q, i)] = s
        # top level is zero by construction; nothing stored

    sched = PrismSchedule(prism, vertical, horizontal, omega, alpha)
    report = verify_schedule(sched)
    if not report["all_passed"]:
        raise ScheduleInvariantError(report)
    return sched, report


def verify_schedule(s: PrismSchedule) -> dict:
    """Re-checks closedness, bottom/top traces, and the norm bound.

    omega and alpha entries off the cells, and schedule cells off the prism,
    are an error: the checks would never read them.
    """
    prism = s.prism
    X, m, T = prism.X, prism.m, prism.layers
    s.omega.dense_checked(prism.n_top, SchedulerError, "omega")
    s.alpha.dense_checked(prism.n_low, SchedulerError, "alpha")
    if bad := s.off_prism_cells():
        raise SchedulerError(f"schedule cells {bad[:4]} lie off the prism")
    cols = get_fill_context(X, m).delta.rows

    bad_closed = []
    for q in range(prism.n_top):
        for i in range(T):
            total = s.value("horizontal", q, i + 1) - s.value("horizontal", q, i)
            for p, sgn in cols[q].items():
                total -= sgn * s.value("vertical", p, i)
            if total:
                bad_closed.append([q, i, total])

    bad_bottom = []
    bad_top = []
    for q in range(prism.n_top):
        w = int(s.omega(q))
        if s.value("horizontal", q, 0) != -w:
            bad_bottom.append(q)
        if s.value("horizontal", q, T) != 0:
            bad_top.append(q)

    bound = int(norm_inf(s.omega)) + m + 1
    worst = s.norm_inf()

    report = {
        "closedness": {"passed": not bad_closed, "offenders": bad_closed[:10]},
        "bottom_trace": {"passed": not bad_bottom, "offenders": bad_bottom[:10]},
        "top_trace": {"passed": not bad_top, "offenders": bad_top[:10]},
        "norm_bound": {"passed": worst <= bound, "norm": worst, "bound": bound},
        "max_abs_vertical": s.max_abs_vertical(),
        "max_abs_horizontal": s.max_abs_horizontal(),
    }
    report["all_passed"] = all(v["passed"] for k, v in report.items()
                               if isinstance(v, dict) and "passed" in v)
    return report


# ---------------------------------------------------------------------------
# the sphere demo pipeline

MAX_DEMO_RETRIES = 50

_sphere_cache = {}


def _subdivided_sphere(L: int):
    """Subdivided spheres are immutable; reuse them (and their fill caches)."""
    if L not in _sphere_cache:
        from .complexes import simplex_boundary
        from .subdivision import edgewise_subdivide
        _sphere_cache[L] = edgewise_subdivide(simplex_boundary(3), L).result
    return _sphere_cache[L]


def s2_null_demo(L: int, seed) -> dict:
    """Full pipeline on the subdivided 2-sphere: sample a zero-degree
    obstruction, fill it integrally, and build + verify the schedule.

    The report records the norms, the layer count, the per-check outcomes,
    and the tube-count reading of alpha (its value on an edge p is the
    signed number of tubes crossing p x [0,1]).  Deterministic in (L, seed).
    """
    if L < 1:
        raise SchedulerError("L must be >= 1")
    X = _subdivided_sphere(L)
    rng = random.Random(f"s2demo/{seed}/{L}")
    omega = None
    for _ in range(MAX_DEMO_RETRIES):
        try:
            omega = sample_integral_coboundary(X, 2, rng)
            break
        except FillingError:
            continue
    if omega is None:
        raise SchedulerError("could not sample a nonzero degree cochain")

    fill = integral_fill(X, omega)
    alpha = fill.alpha
    layers = max(1, int(norm_inf(alpha)))
    sched, report = degree_schedule(X, omega, alpha, layers)

    tube_counts = [[p, int(v)] for p, v in sorted(alpha.entries.items())]
    return {
        "L": L,
        "seed": seed,
        "norm_omega": int(norm_inf(omega)),
        "norm_alpha": int(norm_inf(alpha)),
        "rational_norm": str(fill.details["rational_norm"]),
        "layers": layers,
        "max_abs_beta_horizontal": report["max_abs_horizontal"],
        "max_abs_beta_vertical": report["max_abs_vertical"],
        "checks": {k: v["passed"] for k, v in report.items()
                   if isinstance(v, dict) and "passed" in v},
        "all_passed": report["all_passed"],
        "tube_counts": tube_counts,
        "omega": omega.to_json_dict(),
        "alpha": alpha.to_json_dict(),
        "beta": sched.to_json_dict(),
    }
