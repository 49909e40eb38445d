"""Two threads on one complex: what README says may be shared.

A complex, its FillContexts and their LinfProblems may be shared by
threads.  Each LinfProblem holds its one HiGHS instance under a lock, from
the row bounds of a solve until its solution is read, so two threads that
fill on one complex get the results of a serial run.  A lazy build may
still run twice under contention; each build is deterministic.
"""

import random
import sys
import threading

from coiso.complexes import simplex_boundary
from coiso.filling import (integral_fill, linf_fill_rational,
                           sample_integral_coboundary, trial_rng)
from coiso.scheduler import degree_schedule
from coiso.subdivision import edgewise_subdivide


def _sphere():
    return edgewise_subdivide(simplex_boundary(3), 8).result


def _jobs(X):
    """Work on the L=8 sphere X, one callable per result: integral fills,
    rational fills of omega / 3, and s2_null_demo's pieces (sample, fill,
    schedule), each returning a repr."""
    omegas = [sample_integral_coboundary(X, 2, trial_rng(36, 8, t))
              for t in range(12)]

    def fill(omega):
        return lambda: repr(integral_fill(X, omega))

    def rational(omega):
        return lambda: repr(linf_fill_rational(X, omega.map(lambda v: v / 3, "rat")))

    def demo(seed):
        def run():
            omega = sample_integral_coboundary(X, 2, random.Random(f"s2demo/{seed}/8"))
            fill = integral_fill(X, omega)
            layers = max(1, int(fill.norm_inf_alpha))
            sched, report = degree_schedule(X, omega, fill.alpha, layers)
            return repr((sched.to_json_dict(), report))
        return run

    return ([fill(om) for om in omegas] + [rational(om) for om in omegas[:6]]
            + [demo(seed) for seed in range(4)])


def test_two_threads_on_one_complex_give_the_serial_results():
    serial = [job() for job in _jobs(_sphere())]
    before = threading.active_count()
    # a fresh complex: its first fill also starts the lift data's thread
    jobs = _jobs(_sphere())
    got = [None] * len(jobs)
    raised = []

    def work(parity):
        try:
            for i in range(parity, len(jobs), 2):
                got[i] = jobs[i]()
        except Exception as e:
            raised.append(e)

    threads = [threading.Thread(target=work, args=(p,)) for p in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch often, to meet a race sooner
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not raised, raised
    assert got == serial
    assert threading.active_count() == before
