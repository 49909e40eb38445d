"""Layer spans around coiso's public names, patched in from outside.

The tracer replaces each name in TARGETS by a timing wrapper, in the
defining module and in every ``coiso`` module namespace that imported it,
and puts the originals back on ``uninstall``.  Nothing under ``src/`` knows
about it.  Each span records calls, total time (outermost call of that name
only) and self time (duration minus the time covered by child spans),
separately for the "setup" and "op" phases.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, public name, span).  "Class.method" patches the class.
TARGETS = [
    ("coiso.subdivision", "edgewise_subdivide", "subdivision.subdivide"),
    ("coiso.filling", "FillContext.__init__", "filling.fill_context"),
    ("coiso.homalg", "IntegralSystem.__init__", "homalg.integral_system"),
    ("coiso.trees", "greedy_spanning_tree", "trees.spanning_tree"),
    ("coiso.trees", "wrapping_tree", "trees.wrapping_tree"),
    ("coiso.trees", "lifting_basis", "trees.lifting_basis"),
    ("coiso.filling", "FillContext.lift_data", "filling.lift_data"),
    ("coiso.linalg", "RationalSolver.__init__", "linalg.solver_build"),
    ("coiso.linalg", "RationalSolver.solve", "linalg.solver_solve"),
    ("coiso.homalg", "IntegralSystem.solve", "linalg.unimodular_solve"),
    ("coiso.filling", "sample_integral_coboundary", "filling.sample"),
    ("coiso.filling", "FillContext.coboundary_witness", "filling.draw"),
    ("coiso.lp", "LinfProblem.solve", "lp.solve"),
    ("scipy.optimize", "linprog", "lp.highs"),
    ("coiso.filling", "LiftData.lift", "filling.lift"),
    ("coiso.filling", "integral_fill", "filling.integral_fill"),
    ("coiso.homalg", "boundary_matrix", "homalg.boundary_matrix"),
    ("coiso.scheduler", "degree_schedule", "scheduler.degree_schedule"),
    ("coiso.scheduler", "verify_schedule", "scheduler.verify_schedule"),
    ("coiso.lp", "l1_min", "lp.l1_min"),
    ("coiso.lp", "exact_simplex", "lp.exact_simplex"),
]

# A coboundary_witness call is one sampling draw only inside sample_integral_coboundary;
# integral_fill calls it too, and those calls are not draws.
ONLY_UNDER = {"filling.draw": "filling.sample"}

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = {}                 # (phase, span) -> [calls, total_s, self_s]
        self.covered = defaultdict(float)   # phase -> time inside outermost spans
        self._children = []             # child time of each open span
        self._open = defaultdict(int)   # open spans per name
        self._patches = None

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches or []):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self):
        return {"stats": [[ph, name, *s] for (ph, name), s in sorted(self.stats.items())],
                "covered": dict(self.covered)}

    def _plan(self):
        patches = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "coiso" or n.startswith("coiso."))]
        for modname, attr, span in TARGETS:
            mod = importlib.import_module(modname)
            on_result = self._count_mode if span == "lp.solve" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__.get(meth, _INHERITED)
                patches.append((cls, meth, original,
                                self._wrap(getattr(cls, meth), span, on_result)))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, span, on_result)
            for ns in {id(m): m for m in [mod] + namespaces}.values():
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        patches.append((ns, name, fn, wrapper))
        return patches

    def _count_mode(self, result):
        """Count the path LinfProblem.solve answered by, as a call-only span."""
        self.stats.setdefault((self.phase, "lp.mode_" + result[2]), [0, 0.0, 0.0])[0] += 1

    def _wrap(self, fn, span, on_result):
        under = ONLY_UNDER.get(span)

        def traced(*args, **kwargs):
            if under is not None and not self._open[under]:
                return fn(*args, **kwargs)
            self._open[span] += 1
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._children.pop()
                self._open[span] -= 1
                if self._children:
                    self._children[-1] += dt
                else:
                    self.covered[self.phase] += dt
                s = self.stats.setdefault((self.phase, span), [0, 0.0, 0.0])
                s[0] += 1
                s[2] += dt - child
                if not self._open[span]:
                    s[1] += dt
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced
