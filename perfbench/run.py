"""The coiso benchmark: certified-fill sweep, s2demo loop and duality check.

    python3 perfbench/run.py --workload sweep-L16 --seed 1 --seconds 15 --trace 0

Runs one workload (or, without --workload, all of them) as a closed loop
with one client: one process, one op at a time.  Each run starts SETUPS
fresh workload processes in turn (worker.py), so imports, module caches
and per-complex set-up land in setup_s every time.  The first runs the
timed window, the others only set up.  Every op is checked exactly by the
worker.  An op that overruns its wall budget is killed and counted as
failed, and a fresh process runs what is left of the window.  Any other
failed op (a failed check, a certification error, a crash) makes the run
incorrect, and the command exits 1.

Standard output: one {"record": ...} line with the run's context (backend,
Python, cores, thread settings, digests, tail latency, base counts), then
as the last line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from spans around each layer's public names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from worker import SRC, WORKLOADS  # noqa: E402  (stdlib only; imports no coiso)

SETUPS = 3                 # workload processes per run; setup_s is their median
SETUP_BUDGET_S = 120.0     # wall budget of one set-up
RUN_BUDGET_S = 170.0       # wall budget of the whole run
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit, kind, span or spans, field).  "setup" is a
# set-up total (mean over the run's set-ups), "op" a mean per traced op,
# "ratio" calls of the first span over calls of the second, in the op phase.
# Fields: 0 calls, 1 total seconds, 2 self seconds.
PER_LAYER = [
    ("subdivision.subdivide_s", "s", "setup", "subdivision.subdivide", 1),
    ("filling.fill_context_s", "s", "setup", "filling.fill_context", 1),
    ("homalg.integral_system_s", "s", "setup", "homalg.integral_system", 1),
    ("trees.spanning_tree_s", "s", "setup", "trees.spanning_tree", 1),
    ("trees.wrapping_tree_s", "s", "setup", "trees.wrapping_tree", 1),
    ("trees.lifting_basis_s", "s", "setup", "trees.lifting_basis", 1),
    ("filling.lift_data_s", "s", "setup", "filling.lift_data", 2),
    ("linalg.setup_solver_builds", "count", "setup", "linalg.solver_build", 0),
    ("linalg.setup_solver_build_s", "s", "setup", "linalg.solver_build", 1),
    ("linalg.setup_solver_solves", "count", "setup", "linalg.solver_solve", 0),
    ("linalg.setup_solver_solve_s", "s", "setup", "linalg.solver_solve", 1),
    ("linalg.solver_builds", "count", "op", "linalg.solver_build", 0),
    ("linalg.solver_build_s", "s", "op", "linalg.solver_build", 1),
    ("linalg.solver_solves", "count", "op", "linalg.solver_solve", 0),
    ("linalg.solver_solve_s", "s", "op", "linalg.solver_solve", 1),
    ("linalg.unimodular_solves", "count", "op", "linalg.unimodular_solve", 0),
    ("linalg.unimodular_solve_s", "s", "op", "linalg.unimodular_solve", 1),
    ("filling.sample_s", "s", "op", "filling.sample", 1),
    ("filling.draws_per_sample", "draws/sample", "ratio", ("filling.draw", "filling.sample"), 0),
    ("lp.solve_calls", "count", "op", "lp.solve", 0),
    ("lp.solve_s", "s", "op", "lp.solve", 2),
    ("lp.highs_calls", "count", "op", "lp.highs", 0),
    ("lp.highs_s", "s", "op", "lp.highs", 1),
    ("lp.highs_calls_per_solve", "calls/solve", "ratio", ("lp.highs", "lp.solve"), 0),
    ("lp.mode_reconstructed", "count", "op", "lp.mode_reconstructed", 0),
    ("lp.mode_recursive", "count", "op", "lp.mode_recursive", 0),
    ("lp.mode_simplex", "count", "op", "lp.mode_simplex", 0),
    ("filling.lift_s", "s", "op", "filling.lift", 1),
    ("filling.integral_fill_self_s", "s", "op", "filling.integral_fill", 2),
    ("homalg.boundary_matrix_calls", "count", "op", "homalg.boundary_matrix", 0),
    ("homalg.boundary_matrix_s", "s", "op", "homalg.boundary_matrix", 1),
    ("scheduler.degree_schedule_s", "s", "op", "scheduler.degree_schedule", 2),
    ("scheduler.verify_schedule_s", "s", "op", "scheduler.verify_schedule", 2),
    ("lp.l1_min_s", "s", "op", "lp.l1_min", 1),
    ("lp.exact_simplex_calls", "count", "op", "lp.exact_simplex", 0),
    ("lp.exact_simplex_s", "s", "op", "lp.exact_simplex", 1),
]
TRACE_METRICS = [
    ("trace.overhead_frac", "frac"),
    ("trace.setup_unaccounted_frac", "frac"),
    ("trace.op_unaccounted_frac", "frac"),
]


class WorkerError(RuntimeError):
    """A workload process that could not set up at all."""


class _Events:
    """JSON lines from a worker's stdout, read with a timeout."""

    def __init__(self, proc):
        self.fd = proc.stdout.fileno()
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd, selectors.EVENT_READ)

    def next(self, timeout):
        """The next event; None on timeout, {"event": "exit"} at end of output."""
        deadline = monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - monotonic()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return {"event": "exit"}
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sel.close()


def _worker(workload, seed, first_op, window, trace, deadline, op_budget, out):
    """Run one workload process and fold its events into `out`; returns the
    next op index and the part of the window it used."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--first-op", str(first_op),
           "--window", repr(window), "--trace", str(trace)]
    env = dict(os.environ, **THREAD_ENV)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    events = _Events(proc)
    next_op, phase, t_ops = first_op, "setup", None
    try:
        while True:
            budget = SETUP_BUDGET_S if phase == "setup" else op_budget
            t0 = monotonic()
            ev = events.next(max(0.0, min(budget, deadline - t0)))
            if ev is None or ev["event"] == "exit":
                # overrun or crash: the set-up or op in flight counts as failed
                if phase == "setup" and ev is not None:
                    raise WorkerError(f"{workload}: workload process exited during set-up")
                out["ops"].append({"i": next_op, "ok": False, "s": monotonic() - t0,
                                   "error": "timeout" if ev is None else "process died"})
                return next_op + 1, (monotonic() - t_ops if t_ops else 0.0)
            kind = ev["event"]
            if kind == "error":
                raise WorkerError(ev["message"])
            if kind == "setup":
                out["setup_s"].append(ev["setup_s"])
                phase, t_ops = "op", monotonic()
            elif kind == "op":
                out["ops"].append(ev)
                next_op = ev["i"] + 1
            elif kind == "end":
                out["ends"].append(ev)
                return next_op, window
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        events.close()
        proc.stdout.close()


def run_workload(workload, seed, seconds, trace):
    """All the set-ups and ops of one run; returns the raw events."""
    op_budget = WORKLOADS[workload][1]
    deadline = monotonic() + RUN_BUDGET_S
    out = {"setup_s": [], "ops": [], "ends": []}
    next_op, window = 0, seconds
    for n in range(SETUPS):
        if n and deadline - monotonic() < 2 * max(out["setup_s"], default=0) + window:
            break
        next_op, used = _worker(workload, seed, next_op, window, trace,
                                deadline, op_budget, out)
        window = max(0.0, window - used)
    return out


def _percentile_tail(lat_ms):
    """(percentile, value, samples beyond): the highest whole percentile with
    at least ten samples above it, by nearest rank; None when there is none."""
    n = len(lat_ms)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    xs = sorted(lat_ms)
    value = xs[max(0, math.ceil(p / 100 * n) - 1)]
    return p, value, sum(1 for x in xs if x > value)


def _stream_digest(ops, key):
    lines = [f"{ev['i']}:{ev[key]}" for ev in sorted(ops, key=lambda e: e["i"]) if ev.get(key)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _layer_metrics(raw):
    stats = {}
    covered = {"setup": 0.0, "op": 0.0}
    for end in raw["ends"]:
        for ph, name, *vals in end["trace"]["stats"]:
            acc = stats.setdefault((ph, name), [0, 0.0, 0.0])
            for j, v in enumerate(vals):
                acc[j] += v
        for ph, v in end["trace"]["covered"].items():
            covered[ph] += v
    ran = [ev for ev in raw["ops"] if "traced" in ev]     # ops the workers timed
    traced = [ev["s"] for ev in ran if ev["traced"]]
    plain = [ev["s"] for ev in ran if not ev["traced"]]
    n_setups = len(raw["ends"])

    def get(ph, span, field):
        return stats.get((ph, span), [0, 0.0, 0.0])[field]

    metrics, bases = {}, {}
    for name, unit, kind, span, field in PER_LAYER:
        if kind == "setup":
            value, base = get("setup", span, field) / max(n_setups, 1), f"{n_setups} set-ups"
        elif kind == "op":
            value, base = get("op", span, field) / max(len(traced), 1), f"{len(traced)} traced ops"
        else:
            den = get("op", span[1], 0)
            value, base = get("op", span[0], 0) / max(den, 1), f"{den} {span[1]} calls"
        metrics[name] = {"value": value, "unit": unit}
        bases[name] = base
    setup_total = sum(raw["setup_s"][:n_setups])
    extra = {
        "trace.overhead_frac": ((statistics.mean(traced) / statistics.mean(plain) - 1)
                                if traced and plain else 0.0,
                                f"{len(traced)} traced vs {len(plain)} untraced ops"),
        "trace.setup_unaccounted_frac": (1 - covered["setup"] / setup_total if setup_total else 0.0,
                                         f"{setup_total:.3f} s of set-up"),
        "trace.op_unaccounted_frac": (1 - covered["op"] / sum(traced) if traced else 0.0,
                                      f"{sum(traced):.3f} s of traced ops"),
    }
    for name, unit in TRACE_METRICS:
        metrics[name] = {"value": extra[name][0], "unit": unit}
        bases[name] = extra[name][1]
    # self time summed per module: where the covered part of set-up and of an op goes
    by_layer = {"setup": {}, "op": {}}
    per = {"setup": max(n_setups, 1), "op": max(len(traced), 1)}
    for (ph, span), (_, _, self_s) in sorted(stats.items()):
        layer = by_layer[ph]
        layer[span.split(".")[0]] = layer.get(span.split(".")[0], 0.0) + self_s / per[ph]
    return metrics, bases, by_layer


def summarize(workload, seed, seconds, trace, raw):
    """(record, result) for one run from its raw events."""
    ops = raw["ops"]
    ok = [ev for ev in ops if ev["ok"]]
    lat_ms = [ev["s"] * 1e3 for ev in ok]
    timed_s = sum(ev["s"] for ev in ops)
    end = raw["ends"][0] if raw["ends"] else {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "backend": end.get("backend"), "python": end.get("python"),
        "nproc": len(os.sched_getaffinity(0)), "thread_env": THREAD_ENV,
        "worker_threads": end.get("threads"), "setup_s_each": raw["setup_s"],
        "attempted": len(ops), "failed": len(ops) - len(ok),
        "failed_frac": (len(ops) - len(ok)) / len(ops) if ops else None,
        "inputs_digest": _stream_digest(ops, "in"),
        "optima_digest": _stream_digest(ops, "opt"),
        "reference_hits": sum(1 for ev in ops if ev.get("ref") == "hit"),
        "failures": [{k: ev[k] for k in ("i", "error", "check_failed") if k in ev}
                     for ev in ops if not ev["ok"]][:5],
    }
    tail = _percentile_tail(lat_ms)
    if tail:
        record["op_tail_ms"] = {"percentile": tail[0], "value": tail[1], "samples_beyond": tail[2]}
    if trace:
        metrics, record["bases"], record["self_s_by_layer"] = _layer_metrics(raw)
    else:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "ops_per_s": len(ok) / timed_s if timed_s else 0.0,
            "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
            "peak_rss_mb": max(e["rss_kb"] for e in raw["ends"]) / 1024 if raw["ends"] else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    # an op may fail only by overrunning its budget; a slow program is not a wrong one
    wrong = [ev for ev in ops if not ev["ok"] and ev.get("error") != "timeout"]
    result = {"correct": bool(ok) and not wrong, "attempted": len(ops),
              "failed": len(ops) - len(ok), "metrics": metrics}
    return record, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "coiso" / "__init__.py").is_file():
        print(f"error: coiso sources not found at {SRC}", file=sys.stderr)
        return 2
    all_correct = True
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        try:
            raw = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if not raw["setup_s"] or not raw["ops"]:
            print(f"error: {workload}: no set-up finished within the run budget", file=sys.stderr)
            return 2
        record, result = summarize(workload, args.seed, args.seconds, args.trace, raw)
        for name, m in result["metrics"].items():
            print(f"{workload:12s} {name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
