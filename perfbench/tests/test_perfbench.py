"""Tests of the benchmark harness itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

coiso = worker.load_coiso()

TINY = {
    "sweep": lambda: worker.SweepFill(coiso, L=2),
    "s2demo": lambda: worker.S2Demo(coiso, L=2),
    "duality": lambda: worker.Duality(coiso, n=2, k=1),
}


def _ops(workload, window=0.3, **kw):
    events = []
    worker.run_ops(workload, 1, 0, window, events.append, **kw)
    return events


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_passes_its_checks(name, traced):
    wl = TINY[name]()
    wl.warmup()
    tracer = Tracer() if traced else None
    events = _ops(wl, tracer=tracer)
    assert events and all(ev["ok"] for ev in events), events[:2]
    assert all(ev["in"] and ev["opt"] for ev in events)
    if traced:
        spans = {name for _, name, *_ in tracer.dump()["stats"]}
        assert "linalg.solver_build" in spans


def test_tracer_counts_layers_and_restores_every_name():
    originals = (coiso.integral_fill, coiso.filling.integral_fill, coiso.boundary_matrix,
                 coiso.scheduler.boundary_matrix)
    wl = TINY["sweep"]()
    wl.warmup()
    tracer = Tracer()
    events = _ops(wl, tracer=tracer)
    assert (coiso.integral_fill, coiso.filling.integral_fill, coiso.boundary_matrix,
            coiso.scheduler.boundary_matrix) == originals
    assert "__init__" not in coiso.linalg.RationalSolver.__dict__
    stats = {name: s for ph, name, *s in tracer.dump()["stats"] if ph == "op"}
    traced = sum(ev["traced"] for ev in events)
    assert stats["filling.integral_fill"][0] == stats["filling.sample"][0] == traced
    assert stats["filling.draw"][0] >= traced
    assert stats["lp.mode_reconstructed"][0] + stats.get("lp.mode_recursive", [0])[0] \
        + stats.get("lp.mode_simplex", [0])[0] == stats["lp.solve"][0]


def test_bumped_alpha_counts_as_a_failed_op(monkeypatch):
    real = coiso.integral_fill

    def bumped(X, omega):
        res = real(X, omega)
        p = min(res.alpha.entries, default=0)
        res.alpha.entries[p] = res.alpha.entries.get(p, 0) + 1
        return res

    monkeypatch.setattr(coiso, "integral_fill", bumped)
    events = _ops(TINY["sweep"]())
    assert events and all("check_failed" in ev and not ev["ok"] for ev in events)
    _, result = run.summarize("sweep-L16", 1, 1, 0,
                              {"setup_s": [0.1], "ops": events, "ends": [{"rss_kb": 1024}]})
    assert result["failed"] == result["attempted"] == len(events)
    assert result["correct"] is False


def _summary(events):
    return run.summarize("s2demo-L4", 1, 1, 0,
                         {"setup_s": [0.1], "ops": events, "ends": [{"rss_kb": 1024}]})[1]


def test_certification_error_is_a_failed_check_and_the_run_incorrect(monkeypatch):
    def mismatch(X, k):
        raise coiso.filling.DualityMismatch("cofilling 1/2 != filling 1/3")

    monkeypatch.setattr(coiso, "coiso_constants_tiny", mismatch)
    events = _ops(TINY["duality"](), window=0)
    assert "DualityMismatch" in events[0]["check_failed"] and not events[0]["ok"]
    assert _summary(events + [{"i": 9, "s": 0.1, "ok": True}])["correct"] is False


def test_fractional_alpha_is_a_failed_check(monkeypatch):
    real = coiso.s2_null_demo

    def fractional(L, seed):
        rep = real(L, seed)
        i, _ = rep["alpha"]["entries"][0]
        rep["alpha"]["entries"][0] = [i, "3/2"]
        return rep

    monkeypatch.setattr(coiso, "s2_null_demo", fractional)
    events = _ops(TINY["s2demo"](), window=0)
    assert "not an integer" in events[0]["check_failed"]
    assert _summary(events)["correct"] is False


def test_crash_makes_the_run_incorrect_but_a_timeout_does_not():
    ok = {"i": 0, "s": 0.1, "ok": True}
    crash = {"i": 1, "s": 0.1, "ok": False, "error": "crash: KeyError('x')"}
    timeout = {"i": 1, "s": 5.0, "ok": False, "error": "timeout"}
    assert _summary([ok, crash])["correct"] is False
    result = _summary([ok, timeout])
    assert result["correct"] is True and result["failed"] == 1


def _table(wl, seeds=(1, 1), ops=1, optima=None):
    if optima is None:
        first = _ops(wl, window=0)[0]
        optima = {first["in"]: first["opt"]}
    return {"seeds": list(seeds), "ops": ops, "optima": optima}


def test_reference_hit_miss_and_mismatch():
    wl = TINY["s2demo"]()
    table = _table(wl)
    assert _ops(wl, window=0, reference=table)[0]["ref"] == "hit"
    inp = next(iter(table["optima"]))
    wrong = _ops(wl, window=0, reference=_table(wl, optima={inp: "12345"}))[0]
    assert not wrong["ok"] and "!= reference" in wrong["check_failed"]
    # a covered op whose input is missing fails: a changed input or digest shows
    miss = _ops(wl, window=0, reference=_table(wl, optima={"0" * 16: "1"}))[0]
    assert not miss["ok"] and "not in the reference table" in miss["check_failed"]
    # outside the covered seeds the table says nothing
    free = _ops(wl, window=0, reference=_table(wl, seeds=(2, 3), optima={}))[0]
    assert free["ok"] and free["ref"] is None


def test_duality_input_is_covered_for_every_seed():
    wl = TINY["duality"]()
    events = []
    worker.run_ops(wl, 99, 5, 0, events.append, reference=_table(wl, seeds=(0, 0), optima={}))
    assert "not in the reference table" in events[0]["check_failed"]


def test_shipped_reference_covers_its_range():
    table = json.loads(worker.REFERENCE.read_text())
    assert set(table) == set(worker.WORKLOADS)
    for name, ref in table.items():
        first, last = ref["seeds"]
        expected = 1 if name == "duality-dD3" else (last - first + 1) * ref["ops"]
        assert len(ref["optima"]) == expected


def test_overrun_is_a_failed_op_and_the_run_goes_on(monkeypatch):
    monkeypatch.setitem(worker.WORKLOADS, "s2demo-L4", (worker.S2Demo, 0.001))
    monkeypatch.setattr(run, "SETUPS", 2)
    raw = run.run_workload("s2demo-L4", 1, 1.0, 0)
    assert len(raw["setup_s"]) == 2
    assert [ev["error"] for ev in raw["ops"]] == ["timeout", "timeout"]
    assert [ev["i"] for ev in raw["ops"]] == [0, 1]


def test_command_prints_the_result_contract():
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "s2demo-L4",
                        "--seed", "3", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    *_, record, last = p.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == run.END_TO_END
    rec = json.loads(record)["record"]
    assert rec["backend"] and rec["nproc"] and rec["thread_env"] == run.THREAD_ENV


def test_fails_with_one_error_line_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "s2demo-L4",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
    assert len(p.stderr.strip().splitlines()) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, *_ in run.PER_LAYER] + run.TRACE_METRICS


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run._percentile_tail(list(range(15))) is None
    p, value, beyond = run._percentile_tail([float(x) for x in range(500)])
    assert (p, value, beyond) == (98, 489.0, 10)
