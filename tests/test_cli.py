import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from coiso.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture()
def runner():
    return CliRunner()


def write_inputs():
    json.dump({"dim": 1, "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]]},
              open("c4.json", "w"))
    json.dump({"dim": 2, "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
              open("sphere.json", "w"))
    json.dump({"k": 1, "ring": "int", "entries": [[0, "1"], [3, "-1"]]},
              open("w.json", "w"))
    json.dump({"k": 1, "ring": "int", "entries": [[0, "1"]]},
              open("bad.json", "w"))


def test_s2demo_byte_identical(runner):
    with runner.isolated_filesystem():
        r1 = runner.invoke(main, ["s2demo", "--L", "2", "--seed", "1",
                                  "--out", "r.json"])
        assert r1.exit_code == 0, r1.output
        first = open("r.json", "rb").read()
        r2 = runner.invoke(main, ["s2demo", "--L", "2", "--seed", "1",
                                  "--out", "r.json"])
        assert r2.exit_code == 0
        assert open("r.json", "rb").read() == first
        doc = json.loads(first)
        assert doc["config"]["seed"] == 1
        assert doc["tool_version"]


def test_fill_non_coboundary_exits_one_with_certificate(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["fill", "--complex", "c4.json", "--omega",
                                 "bad.json", "--ring", "int", "--out", "a.json"])
        assert r.exit_code == 1
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "NotACoboundary"
        assert err["error"]["certificate"]["kind"] == "cycle-pairing"
        assert err["error"]["certificate"]["cycle"]


def test_fill_writes_report(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["fill", "--complex", "c4.json", "--omega",
                                 "w.json", "--ring", "int", "--out", "a.json"])
        assert r.exit_code == 0, r.output
        doc = json.loads(open("a.json").read())
        assert doc["report"]["norm_inf"] == "1"
        assert doc["report"]["residual_zero"] is True
        assert doc["config"]["ring"] == "int"


def test_duality_on_c4(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["duality", "--complex", "c4.json", "--k", "1"])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.output)
        assert doc["cofilling_constant"] == doc["filling_constant"] == "1"
        assert doc["equal"] is True


def test_usage_error_exits_two(runner):
    r = runner.invoke(main, ["fill", "--ring", "int"])
    assert r.exit_code == 2


def test_subdivide_writes_provenance_sidecar(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["subdivide", "--in", "sphere.json", "--L", "2",
                                 "--out", "XL.json"])
        assert r.exit_code == 0, r.output
        doc = json.loads(open("XL.json").read())
        assert len(doc["simplices"]) == 16
        prov = json.loads(open("XL.prov.json").read())
        assert prov["L"] == 2
        assert len(prov["vertices"]) == 10


def test_tree_and_verify_cube(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["tree", "--in", "sphere.json", "--k", "2",
                                 "--kind", "spanning", "--out", "t.json"])
        assert r.exit_code == 0
        doc = json.loads(open("t.json").read())
        assert doc["k"] == 2 and len(doc["cells"]) == 3
        r = runner.invoke(main, ["verify", "--kind", "cube-tree", "--n", "3",
                                 "--k", "2", "--r", "2", "--out", "v.json"])
        assert r.exit_code == 0
        rep = json.loads(open("v.json").read())["report"]
        assert rep["checks_passed"] and rep["closed_form_equals_recursive"]


def test_cip_sweep_csv_stable(runner):
    with runner.isolated_filesystem():
        write_inputs()
        args = ["cip-sweep", "--complex", "sphere.json", "--k", "2", "--L",
                "1,2", "--trials", "2", "--seed", "5", "--out", "s.csv"]
        assert runner.invoke(main, args).exit_code == 0
        first = open("s.csv", "rb").read()
        assert runner.invoke(main, args).exit_code == 0
        assert open("s.csv", "rb").read() == first
        lines = first.decode().strip().splitlines()
        assert lines[0] == "L,trial,norm_omega,norm_alpha,ratio"
        assert len(lines) == 5
        meta = json.loads(open("s.csv.meta.json").read())
        assert meta["config"]["seed"] == 5


def test_schedule_roundtrip_and_verify(runner):
    with runner.isolated_filesystem():
        write_inputs()
        # build omega/alpha via the library, then drive the CLI end to end
        from coiso.complexes import load_complex
        from coiso.filling import integral_fill, sample_integral_coboundary, trial_rng
        from coiso.homalg import norm_inf
        X = load_complex("sphere.json")
        om = sample_integral_coboundary(X, 2, trial_rng(2, 1, 0))
        fill = integral_fill(X, om)
        json.dump(om.to_json_dict(), open("om.json", "w"))
        json.dump(fill.alpha.to_json_dict(), open("al.json", "w"))
        layers = max(1, int(norm_inf(fill.alpha)))
        r = runner.invoke(main, ["schedule", "--complex", "sphere.json",
                                 "--omega", "om.json", "--alpha", "al.json",
                                 "--layers", str(layers), "--out", "sch.json"])
        assert r.exit_code == 0, r.output
        doc = json.loads(open("sch.json").read())
        assert doc["report"]["all_passed"] is True
        r = runner.invoke(main, ["verify", "--kind", "schedule", "--in",
                                 "sch.json", "--complex", "sphere.json",
                                 "--out", "vs.json"])
        assert r.exit_code == 0, r.output
        rep = json.loads(open("vs.json").read())["report"]
        assert rep["all_passed"] is True
        # corrupt one horizontal value: verification exits 1, report written
        bad = json.loads(open("sch.json").read())
        if bad["schedule"]["horizontal"]:
            bad["schedule"]["horizontal"][0][2] += 1
        else:
            bad["schedule"]["horizontal"] = [[0, 0, 1]]
        json.dump(bad, open("sch_bad.json", "w"))
        r = runner.invoke(main, ["verify", "--kind", "schedule", "--in",
                                 "sch_bad.json", "--complex", "sphere.json",
                                 "--out", "vb.json"])
        assert r.exit_code == 1
        rep = json.loads(open("vb.json").read())["report"]
        assert rep["all_passed"] is False


@pytest.mark.parametrize("omega,etype", [
    ({"k": 1, "ring": "int", "entries": [[0, "1"], [1, "1"], [99, "1"]]},
     "FillingError"),
    ({"k": 1, "ring": "int", "entries": [[0, "1"], [-1, "-1"]]}, "FillingError"),
    ({"k": 1, "ring": "rat", "entries": [[0, "1.5"], [3, "-1"]]}, "HomalgError"),
    ({"k": 1, "ring": "int"}, "HomalgError"),
    ({"ring": "int", "entries": [[0, "1"], [3, "-1"]]}, "HomalgError"),
    ({"k": 1.9, "entries": [[0.5, "1"], [1.9, "1"]]}, "HomalgError"),
    ({"k": 1, "entries": [[0, True], [1, True]]}, "HomalgError"),
    ({"k": 1, "entries": [[0, "1/0"], [3, "-1"]]}, "HomalgError"),
    ({"k": 1, "entries": [[0, "1"], [0, "-1"]]}, "HomalgError"),
    ({"k": 1, "entries": [[0, "1"], [3, "-1"], [0, "0"]]}, "HomalgError"),
], ids=["index-99", "negative-index", "decimal-entry", "no-entries", "no-k",
        "float-k-and-indices", "boolean-values", "zero-denominator",
        "repeated-cell", "repeated-cell-zeroed"])
@pytest.mark.parametrize("ring", ["int", "rat"])
def test_fill_rejects_malformed_omega(runner, omega, etype, ring):
    with runner.isolated_filesystem():
        write_inputs()
        json.dump(omega, open("o.json", "w"))
        r = runner.invoke(main, ["fill", "--complex", "c4.json", "--omega",
                                 "o.json", "--ring", ring, "--out", "a.json"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)
        assert err["error"]["type"] == etype
        assert err["error"]["message"]


@pytest.mark.parametrize("args,etype", [
    (["subdivide", "--in", "nj.json", "--L", "2", "--out", "s.json"],
     "ComplexError"),
    (["fill", "--complex", "nj.json", "--omega", "w.json", "--out", "a.json"],
     "ComplexError"),
    (["fill", "--complex", "c4.json", "--omega", "nj.json", "--out", "a.json"],
     "HomalgError"),
    (["verify", "--kind", "schedule", "--in", "nj.json", "--complex",
      "sphere.json", "--out", "v.json"], "SchedulerError"),
], ids=["subdivide-in", "fill-complex", "fill-omega", "verify-schedule-in"])
def test_input_that_is_not_json_exits_one(runner, args, etype):
    with runner.isolated_filesystem():
        write_inputs()
        with open("nj.json", "w") as fh:
            fh.write("not json")
        r = runner.invoke(main, args)
        assert r.exit_code == 1, r.output
        assert not isinstance(r.exception, ValueError), r.exception
        err = json.loads(r.stderr)
        assert err["error"]["type"] == etype
        assert "JSON" in err["error"]["message"]


@pytest.mark.parametrize("doc", [
    5,
    [[0, 1], [1, 2]],
    {"simplices": [[0, "a"]]},
    {"simplices": 3},
    {"simplices": [[0, 1], 2]},
    {"simplices": [[0, 1.5]]},
    {"simplices": [[]]},
    {"n": "x", "r": 2},
    {"n": 2, "r": None},
    {"dim": 1},
], ids=["number", "list", "string-vertex", "simplices-not-list",
        "simplex-not-list", "float-vertex", "empty-simplex", "grid-n-string",
        "grid-r-null", "no-cells"])
@pytest.mark.parametrize("command", ["subdivide", "fill"])
def test_malformed_complex_json_exits_one(runner, doc, command):
    with runner.isolated_filesystem():
        write_inputs()
        json.dump(doc, open("cx.json", "w"))
        args = (["subdivide", "--in", "cx.json", "--L", "2", "--out", "s.json"]
                if command == "subdivide" else
                ["fill", "--complex", "cx.json", "--omega", "w.json",
                 "--out", "a.json"])
        r = runner.invoke(main, args)
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit), \
            r.exception
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "ComplexError"
        assert err["error"]["message"]


def _committed_schedule(edit):
    """The committed dD3_L4 k=2 schedule artifact, edited in place."""
    doc = json.loads((INPUTS / "dD3_L4_k2_schedule.json").read_text())
    edit(doc["schedule"])
    return doc


def _float_layers_and_vertical(sd):
    sd["layers"] = 2.7
    sd["vertical"] = [[p + 0.2, i + 0.2, v] for p, i, v in sd["vertical"]]


def _foreign_cells(sd):
    sd["vertical"].append([9999, 0, 1])
    sd["horizontal"].append([5, 77, -1])


def _repeated_vertical_cell(sd):
    p, i, v = sd["vertical"][0]
    sd["vertical"].append([p, i, -v])


def _repeated_horizontal_cell(sd):
    q, j, v = sd["horizontal"][-1]
    sd["horizontal"].append([q, j, v])


@pytest.mark.parametrize("doc", [
    {"vertical": [], "horizontal": []},
    {"schedule": {"layers": 1, "horizontal": []}},
    {"schedule": {"layers": "x", "vertical": [], "horizontal": []}},
    [1, 2],
    _committed_schedule(_float_layers_and_vertical),
    _committed_schedule(_foreign_cells),
    _committed_schedule(_repeated_vertical_cell),
    _committed_schedule(_repeated_horizontal_cell),
], ids=["no-layers", "no-vertical", "layers-not-int", "not-an-object",
        "float-layers-and-vertical", "foreign-cells", "repeated-vertical-cell",
        "repeated-horizontal-cell"])
def test_verify_schedule_rejects_malformed_schedule(runner, doc):
    with runner.isolated_filesystem():
        shutil.copy(INPUTS / "dD3_L4.json", "dD3_L4.json")
        json.dump(doc, open("sch.json", "w"))
        r = runner.invoke(main, ["verify", "--kind", "schedule", "--in",
                                 "sch.json", "--complex", "dD3_L4.json",
                                 "--out", "v.json"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "SchedulerError"
        assert err["error"]["message"].startswith("malformed schedule JSON")


def test_cip_sweep_rejects_a_non_integer_scale(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["cip-sweep", "--complex", "sphere.json", "--k",
                                 "2", "--L", "2,x", "--trials", "1", "--seed",
                                 "0", "--out", "c.csv"])
        assert r.exit_code == 2, r.output
        assert "--L" in r.output and "'2,x'" in r.output


def test_cip_sweep_rejects_a_degree_above_the_dimension(runner):
    with runner.isolated_filesystem():
        write_inputs()
        r = runner.invoke(main, ["cip-sweep", "--complex", "sphere.json", "--k",
                                 "5", "--L", "2", "--trials", "1", "--seed",
                                 "0", "--out", "c.csv"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)
        assert err["error"] == {"type": "FillingError",
                                "message": "k=5 out of range for dim 2"}


@pytest.mark.parametrize("which", ["omega", "alpha"])
def test_schedule_rejects_an_index_outside_the_cells(runner, which):
    with runner.isolated_filesystem():
        write_inputs()
        from coiso.complexes import load_complex
        from coiso.filling import integral_fill, sample_integral_coboundary, trial_rng
        X = load_complex("sphere.json")
        om = sample_integral_coboundary(X, 2, trial_rng(2, 1, 0))
        docs = {"omega": om.to_json_dict(),
                "alpha": integral_fill(X, om).alpha.to_json_dict()}
        docs[which]["entries"].append([99, "1"])
        json.dump(docs["omega"], open("om.json", "w"))
        json.dump(docs["alpha"], open("al.json", "w"))
        r = runner.invoke(main, ["schedule", "--complex", "sphere.json",
                                 "--omega", "om.json", "--alpha", "al.json",
                                 "--layers", "2", "--out", "sch.json"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "SchedulerError"
        assert err["error"]["message"].startswith(f"{which} has entries at "
                                                  f"indices [99]")


@pytest.mark.parametrize("which", ["omega", "alpha"])
def test_verify_schedule_rejects_an_index_outside_the_cells(runner, which):
    # a foreign omega entry [99, "7"] used to verify, with norm bound 10
    # instead of 4
    with runner.isolated_filesystem():
        write_inputs()
        from coiso.complexes import load_complex
        from coiso.filling import integral_fill, sample_integral_coboundary, trial_rng
        X = load_complex("sphere.json")
        om = sample_integral_coboundary(X, 2, trial_rng(2, 1, 0))
        json.dump(om.to_json_dict(), open("om.json", "w"))
        json.dump(integral_fill(X, om).alpha.to_json_dict(), open("al.json", "w"))
        r = runner.invoke(main, ["schedule", "--complex", "sphere.json",
                                 "--omega", "om.json", "--alpha", "al.json",
                                 "--layers", "2", "--out", "sch.json"])
        assert r.exit_code == 0, r.output
        doc = json.loads(open("sch.json").read())
        doc["schedule"][which]["entries"].append([99, "7"])
        json.dump(doc, open("sch_bad.json", "w"))
        r = runner.invoke(main, ["verify", "--kind", "schedule", "--in",
                                 "sch_bad.json", "--complex", "sphere.json",
                                 "--out", "vb.json"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)["error"]
        assert err["type"] == "SchedulerError"
        assert err["message"].startswith(f"{which} has entries at indices [99]")


def test_exact_simplex_cap_exits_one_with_a_structured_error(runner, monkeypatch):
    from coiso.homalg import apply_coboundary, Cochain
    from coiso.complexes import load_complex
    from coiso.lp import LinfProblem
    monkeypatch.setattr(LinfProblem, "_reconstruct", lambda *a, **k: None)
    with runner.isolated_filesystem():
        # C160: a 320x321 tableau, the shortest cycle over the cap is C158
        json.dump({"dim": 1, "simplices": [[i, (i + 1) % 160] for i in range(160)]},
                  open("c160.json", "w"))
        om = apply_coboundary(load_complex("c160.json"), Cochain(0, {0: 1}, "int"))
        json.dump(om.to_json_dict(), open("om.json", "w"))
        r = runner.invoke(main, ["fill", "--complex", "c160.json", "--omega",
                                 "om.json", "--ring", "rat", "--out", "a.json"])
        assert r.exit_code == 1, r.output
        err = json.loads(r.stderr)["error"]
        assert err["type"] == "LPError"
        assert err["message"].endswith(
            "320x321 tableau (102720 entries), above the cap of 100000")
