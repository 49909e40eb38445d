"""One workload process of the coiso benchmark.

Started by run.py, one process per set-up: it times set-up (from before
``import coiso`` until one untimed warm-up op has finished), then runs ops
for the timed window it is given, if any, checks every result exactly, and
writes one JSON event per line to its standard output:

    {"event": "setup", "setup_s": ...}
    {"event": "op", "i": ..., "s": ..., "ok": ..., "in": ..., "opt": ..., "ref": ..., ...}
    {"event": "end", "rss_kb": ..., "backend": ..., ...}

Anything else the process prints goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


class CheckFailed(Exception):
    """A result that the benchmark's own exact check rejects."""


def load_coiso():
    """Import coiso from the repository's src/, found from this file's location."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coiso
    return coiso


def digest(obj) -> str:
    """Hash of the benchmark's own normalized form of an input: plain ints and
    lists, so that a change in coiso's serialization leaves it alone."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def canonical(value) -> str:
    """An exact rational as "p/q" (or "p"), whatever coiso's rational type."""
    return str(Fraction(str(value)))


def integral_entries(pairs, what):
    """{index: int} from (index, value) pairs; CheckFailed on a non-integer."""
    out = {}
    for i, v in pairs:
        q = Fraction(str(v))
        if q.denominator != 1:
            raise CheckFailed(f"{what} entry {i} = {q} is not an integer")
        if q:
            out[int(i)] = int(q)
    return out


def check_coboundary(cols, omega, alpha):
    """delta(alpha) == omega on every k-cell, in integers; cols[q] maps the
    (k-1)-faces of k-cell q to incidence signs."""
    for q, col in enumerate(cols):
        got = sum(sgn * alpha.get(p, 0) for p, sgn in col.items())
        if got != omega.get(q, 0):
            raise CheckFailed(f"delta(alpha) = {got} != omega = {omega.get(q, 0)} on cell {q}")


class SweepFill:
    """The cip-sweep trial on dDelta3 at scale L: sample an integral
    coboundary in degree k, then integral_fill it."""

    seeded = True

    def __init__(self, coiso, L=16, k=2):
        self.c, self.L, self.k = coiso, L, k
        self.X = coiso.edgewise_subdivide(coiso.simplex_boundary(3), L).result
        self._cols = None

    def warmup(self):
        self.op("warmup", 0)

    def op(self, seed, i):
        omega = self.c.sample_integral_coboundary(self.X, self.k, self.c.trial_rng(seed, self.L, i))
        return omega, self.c.integral_fill(self.X, omega)

    def check(self, out):
        omega, res = out
        if self._cols is None:
            self._cols = self.c.boundary_matrix(self.X, self.k).col_dicts()
        w = integral_entries(omega.entries.items(), "omega")
        if not w or any(v not in (-1, 1) for v in w.values()):
            raise CheckFailed("sampled omega is not a nonzero {-1,0,1} cochain")
        if res.ring != "int":
            raise CheckFailed(f"alpha is over {res.ring}, not int")
        alpha = integral_entries(res.alpha.entries.items(), "alpha")
        check_coboundary(self._cols, w, alpha)
        d = res.details
        norm = max(map(abs, alpha.values()), default=0)
        if norm != res.norm_inf_alpha or norm > d["rational_norm"] + self.k + 1 + d["g_upper"]:
            raise CheckFailed(f"norm {norm} breaks the bound from {d}")
        return digest(["sweep", self.L, self.k, sorted(w.items())]), canonical(d["rational_norm"])


class S2Demo:
    """s2_null_demo at scale L: sampling, fill and degree schedule per call."""

    seeded = True

    def __init__(self, coiso, L=4):
        self.c, self.L = coiso, L
        self._cols = None

    def warmup(self):
        self.c.s2_null_demo(self.L, "warmup")

    def op(self, seed, i):
        return self.c.s2_null_demo(self.L, f"{seed}-{i}")

    def check(self, rep):
        if not rep["all_passed"]:
            raise CheckFailed(f"schedule checks failed: {rep['checks']}")
        if self._cols is None:
            X = self.c.edgewise_subdivide(self.c.simplex_boundary(3), self.L).result
            self._cols = self.c.boundary_matrix(X, 2).col_dicts()
        w = integral_entries(rep["omega"]["entries"], "omega")
        check_coboundary(self._cols, w, integral_entries(rep["alpha"]["entries"], "alpha"))
        return digest(["s2demo", self.L, sorted(w.items())]), canonical(rep["rational_norm"])


class Duality:
    """coiso_constants_tiny on the boundary of the n-simplex in degree k, a
    fresh complex each op.  The inputs are fixed, so the seed is unused."""

    seeded = False          # every op has the same input, so every op must hit the reference
    EXPECTED = "1/2"        # for dDelta3 in degree 2, and dDelta2 in degree 1 (the tests)

    def __init__(self, coiso, n=3, k=2):
        self.c, self.n, self.k = coiso, n, k

    def warmup(self):
        self.c.coiso_constants_tiny(self.c.cycle_complex(4), 1)

    def op(self, seed, i):
        X = self.c.simplex_boundary(self.n)
        return X, self.c.coiso_constants_tiny(X, self.k)

    def check(self, out):
        X, (co, fi) = out
        if not canonical(co) == canonical(fi) == self.EXPECTED:
            raise CheckFailed(f"cofilling {co}, filling {fi}, expected {self.EXPECTED}")
        tops = sorted(sorted(map(int, c)) for c in X.cells[X.dim])
        return digest(["duality", self.k, tops]), f"{canonical(co)},{canonical(fi)}"


# name -> (workload factory, per-op wall budget in seconds)
WORKLOADS = {
    "sweep-L16": (SweepFill, 30.0),
    "s2demo-L4": (S2Demo, 5.0),
    "duality-dD3": (Duality, 60.0),
}


def load_reference(name):
    """The workload's entry of reference.json: {"seeds": [first, last],
    "ops": n, "optima": {input digest: optimum}}, or None."""
    return json.loads(REFERENCE.read_text()).get(name) if REFERENCE.exists() else None


def run_ops(workload, seed, first_op, window_s, emit, reference=None, tracer=None):
    """Run ops first_op, first_op + 1, ... until window_s has passed (at
    least one); check each and emit one event per op.  With a tracer, even
    ops are traced.

    An op passes only if it returns and its result passes the exact checks.
    coiso's own certification errors count as failed checks, any other
    exception as a crash.  With a reference table, an op whose input is
    listed must reproduce the listed optimum, and an op inside the table's
    seeds and op range whose input is not listed fails: that is how a change
    to the inputs or to their digest shows."""
    certification = (workload.c.filling.FillingError, workload.c.scheduler.SchedulerError)
    i = first_op
    t_start = perf_counter()
    while i == first_op or perf_counter() - t_start < window_s:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.phase = "op"
            tracer.install()
        out, error = None, None
        t0 = perf_counter()
        try:
            out = workload.op(seed, i)
        except certification as e:
            error = e
        except Exception as e:
            error = f"crash: {e!r}"
        dt = perf_counter() - t0
        if traced:
            tracer.uninstall()
        ev = {"event": "op", "i": i, "s": dt, "traced": traced, "ok": False}
        try:
            if isinstance(error, str):
                ev["error"] = error
            elif error is not None:
                raise CheckFailed(f"certification failed: {error!r}")
            else:
                ev["in"], ev["opt"] = workload.check(out)
                ev["ref"] = _compare(reference, workload, seed, i, ev["in"], ev["opt"])
                ev["ok"] = True
        except Exception as e:
            ev["check_failed"] = str(e) if isinstance(e, CheckFailed) else f"check raised {e!r}"
        emit(ev)
        i += 1


def _compare(reference, workload, seed, i, inp, opt):
    """"hit" when the input is listed (and the optimum matches), None when the
    op lies outside the table; raises CheckFailed otherwise."""
    if not reference:
        return None
    want = reference["optima"].get(inp)
    if want is not None:
        if want != opt:
            raise CheckFailed(f"optimum {opt} != reference {want}")
        return "hit"
    first, last = reference["seeds"]
    in_range = str(seed).isdigit() and first <= int(seed) <= last and i < reference["ops"]
    if in_range or not workload.seeded:
        raise CheckFailed(f"input {inp} of seed {seed}, op {i} is not in the reference table")
    return None


def main(argv=None):
    t0 = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--window", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # events go to the original stdout; stray prints (Python or native) to stderr
    events = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(ev):
        events.write(json.dumps(ev) + "\n")
        events.flush()

    try:
        coiso = load_coiso()
    except ImportError as e:
        emit({"event": "error", "message": f"cannot import coiso from {SRC}: {e}"})
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    factory, _ = WORKLOADS[args.workload]
    workload = factory(coiso)
    workload.warmup()
    setup_s = perf_counter() - t0
    if tracer:
        tracer.uninstall()
    emit({"event": "setup", "setup_s": setup_s})

    if args.window > 0:
        run_ops(workload, args.seed, args.first_op, args.window, emit,
                load_reference(args.workload), tracer)

    rat = type(coiso.exact.RAT(1))
    emit({"event": "end",
          "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "backend": f"{rat.__module__}.{rat.__name__}",
          "python": sys.version.split()[0],
          "threads": len(os.listdir("/proc/self/task")),
          "trace": tracer.dump() if tracer else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
