"""Obstruction cocycles and the layered degree schedule on X x I.

The prism complex is the product cell structure with the unit interval cut
into `layers` subintervals: m-cells are vertical (an (m-1)-cell times a
subinterval) or horizontal (an m-cell at a level), and (m+1)-cells are
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

from .exact import is_integral
# boundary_matrix is unused here, but perfbench's tracer test reads it as
# coiso.scheduler.boundary_matrix
from .homalg import Cochain, boundary_matrix, json_int  # noqa: F401
from .linalg import residual_rows
from .complexes import top_cells
from .filling import integral_fill, sample_integral_coboundary, FillingError


class SchedulerError(ValueError):
    pass


class ScheduleInvariantError(SchedulerError):
    def __init__(self, report):
        self.report = report
        bad = [k for k, v in report.items() if isinstance(v, dict) and not v.get("passed", True)]
        super().__init__("schedule invariants failed: %s" % ", ".join(bad))


# m-cells of a prism complex, n_low * layers vertical and n_top * (layers + 1)
# horizontal: a schedule is built and checked cell by cell, so a larger
# prism is refused before any of them is.
PRISM_CELL_CAP = 1_000_000


class PrismComplex:
    """Product cell structure on X x I with `layers` interval layers.

    Cell order: vertical m-cells (p, i) sorted by (p, i) first, then
    horizontal m-cells (q, j) by (q, j); prisms (q, i) by (q, i).
    SchedulerError past PRISM_CELL_CAP m-cells.
    """

    def __init__(self, X, layers: int):
        if layers < 1:
            raise SchedulerError("layers must be >= 1")
        m = X.dim
        if m < 1:
            raise SchedulerError("base must have dimension >= 1")
        if not _is_pure(X):
            raise SchedulerError("base must be pure of top dimension")
        self.X = X
        self.m = m
        self.layers = layers
        self.n_low = X.n_cells(m - 1)
        self.n_top = X.n_cells(m)
        self.n_vertical = self.n_low * layers
        self.n_horizontal = self.n_top * (layers + 1)
        self.n_prisms = self.n_top * layers
        if self.n_vertical + self.n_horizontal > PRISM_CELL_CAP:
            raise SchedulerError(
                f"{layers} layers make {self.n_vertical + self.n_horizontal} "
                f"prism m-cells, more than the prism cap of {PRISM_CELL_CAP}")


def _is_pure(X) -> bool:
    """Every top cell of X has dimension X.dim; found once per complex,
    which is immutable, and kept on it."""
    pure = getattr(X, "_pure", None)
    if pure is None:
        pure = X._pure = all(X.cell_dim(c) == X.dim for c in top_cells(X))
    return pure


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
    f_deg.check_cells(X.n_cells(m), SchedulerError, "f")
    g_deg.check_cells(X.n_cells(m), SchedulerError, "g")
    if not (f_deg.is_integral() and g_deg.is_integral()):
        raise SchedulerError("degrees must be integers")
    return f_deg.sub(g_deg, ring="int")


def _int_dense(c: Cochain, n: int, name: str) -> list:
    """The values of c on the n cells as ints; an entry off [0, n), or one
    that is not an integer, raises SchedulerError."""
    D, ws = c.ints(n, SchedulerError, name)
    if D != 1:
        bad = sorted(i for i, v in c.entries.items() if not is_integral(v))
        raise SchedulerError(f"{name} has non-integer entries at indices {bad[:4]}")
    return ws


def _check_degrees(omega: Cochain, alpha: Cochain, m: int):
    """SchedulerError unless omega is an m-cochain and alpha an
    (m-1)-cochain, m the top dimension of the base."""
    if omega.k != m:
        raise SchedulerError(f"omega degree {omega.k}, expected top dimension {m}")
    if alpha.k != m - 1:
        raise SchedulerError(f"alpha degree {alpha.k}, expected {m - 1}")


def degree_schedule(X, omega: Cochain, alpha: Cochain,
                    layers: int) -> tuple[PrismSchedule, dict]:
    """(schedule, its verify_schedule report) for the floor-spread schedule;
    ScheduleInvariantError when a check fails.

    alpha must be an integral fill of the integral cocycle omega; layers
    should be at least ||alpha||_inf or the norm invariant cannot hold.
    """
    m = X.dim
    _check_degrees(omega, alpha, m)
    w_int = _int_dense(omega, X.n_cells(m), "omega")
    a_int = _int_dense(alpha, X.n_cells(m - 1), "alpha")
    cols = X.boundary_cols(m)      # the boundary of top cell q is cols[q]
    residual = residual_rows(cols, a_int, w_int)
    if residual:
        raise SchedulerError(
            "delta(alpha) != omega; residual on cells %s" % residual[:5])

    prism = PrismComplex(X, layers)
    T = layers
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
    for q in range(prism.n_top):
        w = w_int[q]
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
    are an error: the checks would never read them.  So is a non-integer
    entry of omega or alpha: no integral schedule fills it, and so is an
    omega of degree other than m or an alpha of degree other than m - 1.
    """
    prism = s.prism
    X, m, T = prism.X, prism.m, prism.layers
    _check_degrees(s.omega, s.alpha, m)
    w_int = _int_dense(s.omega, prism.n_top, "omega")
    _int_dense(s.alpha, prism.n_low, "alpha")
    if bad := s.off_prism_cells():
        raise SchedulerError(f"schedule cells {bad[:4]} lie off the prism")
    cols = X.boundary_cols(m)
    H = s.horizontal
    V = s.vertical

    bad_closed = []
    for q in range(prism.n_top):
        col = cols[q]
        for i in range(T):
            total = H.get((q, i + 1), 0) - H.get((q, i), 0)
            for p, sgn in col.items():
                v = V.get((p, i))
                if v:
                    total -= sgn * v
            if total:
                bad_closed.append([q, i, total])

    bad_bottom = []
    bad_top = []
    for q in range(prism.n_top):
        if H.get((q, 0), 0) != -w_int[q]:
            bad_bottom.append(q)
        if H.get((q, T), 0) != 0:
            bad_top.append(q)

    bound = max(map(abs, w_int), default=0) + m + 1
    max_v = s.max_abs_vertical()
    max_h = s.max_abs_horizontal()
    worst = max(max_v, max_h)

    report = {
        "closedness": {"passed": not bad_closed, "offenders": bad_closed[:10]},
        "bottom_trace": {"passed": not bad_bottom, "offenders": bad_bottom[:10]},
        "top_trace": {"passed": not bad_top, "offenders": bad_top[:10]},
        "norm_bound": {"passed": worst <= bound, "norm": worst, "bound": bound},
        "max_abs_vertical": max_v,
        "max_abs_horizontal": max_h,
    }
    report["all_passed"] = all(v["passed"] for k, v in report.items()
                               if isinstance(v, dict) and "passed" in v)
    return report


# ---------------------------------------------------------------------------
# the sphere demo pipeline

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
    try:
        omega = sample_integral_coboundary(X, 2, rng)
    except FillingError as e:
        raise SchedulerError("could not sample a nonzero degree cochain") from e

    fill = integral_fill(X, omega)
    alpha = fill.alpha
    norm_alpha = int(fill.norm_inf_alpha)
    layers = max(1, norm_alpha)
    sched, report = degree_schedule(X, omega, alpha, layers)

    tube_counts = [[p, int(v)] for p, v in sorted(alpha.entries.items())]
    return {
        "L": L,
        "seed": seed,
        "norm_omega": max(abs(int(v)) for v in omega.entries.values()),
        "norm_alpha": norm_alpha,
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
