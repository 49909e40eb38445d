"""Every JSON reader of the CLI, fuzzed through `coiso.cli.main`.

Each property writes one JSON document, feeds it to the subcommands that
read it (the complex to fill, duality, tree, subdivide, schedule and verify;
the cochain to fill and schedule; the schedule artifact to verify), the
other inputs being valid files from tests/golden/inputs, and asserts that
the run ends with exit 0, or exit 1 with the structured {"error": ...} on
stderr (or, for verify, a written report whose checks failed), and never a
traceback.  The documents are random JSON values and valid documents with
one part replaced by a random JSON value; their integers are small, or
past every size bound, so each run stays short.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coiso.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"

# small integers reach deep into the code; the huge ones test every bound
INTS = st.integers(-2, 4) | st.sampled_from([10 ** 30, -10 ** 30, 2 ** 63, 10 ** 9])
KEYS = st.sampled_from(["simplices", "n", "r", "dim", "k", "ring", "entries",
                        "layers", "vertical", "horizontal", "omega", "alpha",
                        "schedule", "x"])
LEAVES = (st.none() | st.booleans() | INTS
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(["1", "-1", "1/2", "0/1", "1/0", "a", "", "3.0",
                             "int", "rat"]))
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12)


def _valid(name):
    return json.loads((INPUTS / name).read_text())


def _paths(doc, prefix=()):
    """Every path into doc, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, v in doc.items():
            yield from _paths(v, prefix + (key,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated(draw, doc):
    """doc with the value at one of its paths replaced by random JSON."""
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON)
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def documents(*names):
    return JSON | st.one_of(*(mutated(_valid(n)) for n in names))


def _invoke(text, argv):
    """(result, the JSON written to out.json or None) of argv, run in a temp
    dir holding the golden inputs and text as doc.json."""
    with tempfile.TemporaryDirectory() as tmp:
        for f in INPUTS.iterdir():
            shutil.copy(f, os.path.join(tmp, f.name))
        with open(os.path.join(tmp, "doc.json"), "w") as fh:
            fh.write(text)
        old = os.getcwd()
        os.chdir(tmp)
        try:
            r = CliRunner().invoke(main, argv)
            out = Path("out.json")
            return r, json.loads(out.read_text()) if out.exists() else None
        finally:
            os.chdir(old)


def _run(doc, argv):
    """Run argv on doc; fail on a traceback or an exit other than 0 or a
    structured exit 1."""
    r, report = _invoke(json.dumps(doc), argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        f"{argv} on {doc!r:.200}: {r.exc_info!r}"
    assert r.exit_code in (0, 1), (argv, doc, r.output)
    if r.exit_code == 1:
        if r.stderr:
            assert set(json.loads(r.stderr)) == {"error"}, r.stderr
        else:
            # verify: checks that fail are report content, with exit 1
            assert argv[0] == "verify" and report is not None, (argv, doc)
            assert not (report["report"].get("all_passed")
                        or report["report"].get("checks_passed"))


FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

COMPLEX_COMMANDS = {
    "fill-int": ["fill", "--complex", "doc.json", "--omega", "c4_omega.json",
                 "--ring", "int", "--out", "out.json"],
    "fill-rat": ["fill", "--complex", "doc.json", "--omega", "c4_omega.json",
                 "--ring", "rat", "--out", "out.json"],
    "duality": ["duality", "--complex", "doc.json", "--k", "1", "--out", "out.json"],
    "tree-spanning": ["tree", "--in", "doc.json", "--k", "1", "--out", "out.json"],
    "tree-wrapping": ["tree", "--in", "doc.json", "--k", "0", "--kind",
                      "wrapping", "--out", "out.json"],
    "subdivide": ["subdivide", "--in", "doc.json", "--L", "2", "--out", "out.json"],
    "schedule": ["schedule", "--complex", "doc.json", "--omega", "dD3_L4_k2.json",
                 "--alpha", "dD3_L4_k2_alpha.json", "--layers", "2",
                 "--out", "out.json"],
    "verify": ["verify", "--kind", "schedule", "--in", "dD3_L4_k2_schedule.json",
               "--complex", "doc.json", "--out", "out.json"],
}


@pytest.mark.parametrize("command", sorted(COMPLEX_COMMANDS))
@FUZZ
@given(doc=documents("c4.json", "dD3.json", "grid22.json"))
def test_complex_reader_never_tracebacks(command, doc):
    _run(doc, COMPLEX_COMMANDS[command])


COCHAIN_COMMANDS = {
    "fill-int": ["fill", "--complex", "c4.json", "--omega", "doc.json",
                 "--ring", "int", "--out", "out.json"],
    "fill-rat": ["fill", "--complex", "c4.json", "--omega", "doc.json",
                 "--ring", "rat", "--out", "out.json"],
    "schedule-omega": ["schedule", "--complex", "dD3_L4.json", "--omega",
                       "doc.json", "--alpha", "dD3_L4_k2_alpha.json",
                       "--layers", "2", "--out", "out.json"],
    "schedule-alpha": ["schedule", "--complex", "dD3_L4.json", "--omega",
                       "dD3_L4_k2.json", "--alpha", "doc.json", "--layers", "2",
                       "--out", "out.json"],
}


@pytest.mark.parametrize("command", sorted(COCHAIN_COMMANDS))
@FUZZ
@given(doc=documents("c4_omega.json", "dD3_L4_k2.json", "dD3_L4_k2_alpha.json"))
def test_cochain_reader_never_tracebacks(command, doc):
    _run(doc, COCHAIN_COMMANDS[command])


@settings(FUZZ, max_examples=60)
@given(doc=documents("dD3_L4_k2_schedule.json"))
def test_schedule_reader_never_tracebacks(doc):
    _run(doc, ["verify", "--kind", "schedule", "--in", "doc.json",
               "--complex", "dD3_L4.json", "--out", "out.json"])


@pytest.mark.parametrize("argv,etype", [
    (["fill", "--complex", "doc.json", "--omega", "c4_omega.json",
      "--out", "out.json"], "ComplexError"),
    (["fill", "--complex", "c4.json", "--omega", "doc.json",
      "--out", "out.json"], "HomalgError"),
    (["verify", "--kind", "schedule", "--in", "doc.json",
      "--complex", "dD3_L4.json", "--out", "out.json"], "SchedulerError"),
], ids=["complex", "cochain", "schedule"])
def test_json_nested_past_the_recursion_limit_exits_one(argv, etype):
    # json.load raises RecursionError, not ValueError, on such a document
    r, _ = _invoke("[" * 100_000 + "]" * 100_000, argv)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exc_info
    err = json.loads(r.stderr)["error"]
    assert err["type"] == etype
    assert "maximum recursion depth exceeded" in err["message"]
