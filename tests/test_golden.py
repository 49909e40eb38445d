"""CLI artifacts compared byte for byte with committed goldens.

Each case runs the CLI in a fresh directory that holds a copy of
tests/golden/inputs, with relative paths, and compares its exit code, its
stdout, its stderr and every file it writes with tests/golden/<case>/.  An
output change must therefore be deliberate: regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py

and declare the change.  With an installed console script,

    python tests/test_golden.py --console

runs every case through `coiso` in a subprocess instead, from a temp dir,
and exits 1 when any differs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from coiso.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _fill(name, complex_path, omega_path, ring):
    return name, ["fill", "--complex", complex_path, "--omega", omega_path,
                  "--ring", ring, "--out", "fill.json"]


# name -> (argv, exit code)
CASES = dict([
    ("cip-sweep-dD3-k2", (["cip-sweep", "--complex", "dD3.json", "--k", "2",
                           "--L", "2,4", "--trials", "3", "--seed", "0",
                           "--out", "sweep.csv"], 0)),
    *((f"s2demo-L4-seed{s}", (["s2demo", "--L", "4", "--seed", str(s),
                               "--out", "r.json"], 0)) for s in (1, 2, 3)),
    ("subdivide-dD3-L4", (["subdivide", "--in", "dD3.json", "--L", "4",
                           "--out", "sub.json"], 0)),
    *((name, (argv, 0)) for name, argv in (
        _fill("fill-C4-int", "c4.json", "c4_omega.json", "int"),
        _fill("fill-C4-rat", "c4.json", "c4_omega.json", "rat"),
        # omega = +-10^400: no HiGHS guess can take it, so the exact simplex
        # answers (lp_mode "simplex")
        _fill("fill-C4-beyond-float-rat", "c4.json", "c4_beyond_float.json",
              "rat"),
        _fill("fill-dD3L4-k1-int", "dD3_L4.json", "dD3_L4_k1.json", "int"),
        _fill("fill-dD3L4-k1-rat", "dD3_L4.json", "dD3_L4_k1.json", "rat"),
        _fill("fill-dD3L4-k2-int", "dD3_L4.json", "dD3_L4_k2.json", "int"),
        _fill("fill-dD3L4-k2-rat", "dD3_L4.json", "dD3_L4_k2.json", "rat"),
        _fill("fill-dD3L4-k2-mixed-rat", "dD3_L4.json", "dD3_L4_k2_mixed.json",
              "rat"),
        # the 2x2 grid of the unit square, through the same trees and lift
        _fill("fill-grid22-k2-int", "grid22.json", "grid22_k2.json", "int"))),
    ("duality-dD3-k2", (["duality", "--complex", "dD3.json", "--k", "2"], 0)),
    ("duality-dD4-k2", (["duality", "--complex", "dD4.json", "--k", "2"], 0)),
    # torsion: RP^2 has no 2-cycle, so the ell-1 side spans all 10 triangles
    ("duality-RP2-k2", (["duality", "--complex", "rp2.json", "--k", "2"], 0)),
    # the lowest-row pivot rule of greedy_basis, through both tree kinds
    *((f"tree-{kind}-dD3L4-k1", (["tree", "--in", "dD3_L4.json", "--k", "1",
                                  "--kind", kind, "--out", "tree.json"], 0))
      for kind in ("spanning", "wrapping")),
    # alpha is the integral fill of fill-dD3L4-k2-int (unit-row pivots), and
    # dD3_L4_k2_schedule.json is the schedule case's own artifact
    ("schedule-dD3L4-k2", (["schedule", "--complex", "dD3_L4.json",
                            "--omega", "dD3_L4_k2.json",
                            "--alpha", "dD3_L4_k2_alpha.json",
                            "--layers", "2", "--out", "sched.json"], 0)),
    ("verify-schedule-dD3L4-k2", (["verify", "--kind", "schedule",
                                   "--in", "dD3_L4_k2_schedule.json",
                                   "--complex", "dD3_L4.json",
                                   "--out", "verify.json"], 0)),
    # NotACoboundary: the certificate's cycle and its pairing (-1/15 on C4)
    *((name, (argv, 1)) for name, argv in (
        _fill("not-a-coboundary-C4-rat", "c4.json", "c4_foreign.json", "rat"),
        _fill("not-a-coboundary-dD3L4-int", "dD3_L4.json",
              "dD3_L4_k2_foreign.json", "int"))),
    # foreign input: a float cell index (3.0) in omega, a cell listed twice
    # in omega, a missing complex file, a horizontal schedule cell at level 77 of 2, and a schedule
    # whose omega is 1/2 on a cell
    *((name, (argv, 1)) for name, argv in (
        _fill("fill-C4-float-index", "c4.json", "c4_float_index.json", "int"),
        _fill("fill-C4-repeated-cell", "c4.json", "c4_repeated_cell.json", "int"),
        # a --complex file that does not exist
        _fill("fill-missing-complex", "nope.json", "c4_omega.json", "int"),
        ("verify-schedule-dD3L4-foreign-cell",
         ["verify", "--kind", "schedule", "--in",
          "dD3_L4_k2_schedule_foreign.json", "--complex", "dD3_L4.json",
          "--out", "verify.json"]),
        ("verify-schedule-dD3L4-half-omega",
         ["verify", "--kind", "schedule", "--in",
          "dD3_L4_k2_schedule_half.json", "--complex", "dD3_L4.json",
          "--out", "verify.json"]))),
    # edgewise subdivision of the 2x2 grid of the unit square is refused
    ("subdivide-grid-refused", (["subdivide", "--in", "grid22.json", "--L", "2",
                                 "--out", "sub.json"], 1)),
    # a grid of (2r+1)^n cells past the cap, r = 10^30, is refused before
    # any cell is enumerated
    ("duality-grid-huge-refused", (["duality", "--complex", "grid_huge.json",
                                    "--k", "1"], 1)),
    # torsion on RP^2: a 2-cochain fills integrally exactly when its entry
    # sum is even, through the Smith form of the stuck 1x3 block
    *((name, (argv, code)) for (name, argv), code in (
        (_fill("fill-RP2-int", "rp2.json", "rp2_e0_e1.json", "int"), 0),
        (_fill("fill-RP2-e0-int", "rp2.json", "rp2_e0.json", "int"), 1))),
])


def _artifacts(workdir, exit_code, stdout, stderr):
    """{artifact name: bytes} of a finished run: its exit code, nonempty
    stdout and stderr, and every file it wrote in workdir."""
    out = {"exit_code": b"%d\n" % exit_code}
    if stdout:
        out["stdout"] = stdout
    if stderr:
        out["stderr"] = stderr
    for f in sorted(workdir.iterdir()):
        if not (INPUTS / f.name).exists():
            out[f.name] = f.read_bytes()
    return out


def run_case(name, workdir):
    """Run one case in workdir through click; returns its artifacts."""
    argv, _ = CASES[name]
    for f in INPUTS.iterdir():
        shutil.copy(f, workdir / f.name)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        r = CliRunner().invoke(main, argv)
    finally:
        os.chdir(old)
    if r.exception is not None and not isinstance(r.exception, SystemExit):
        raise r.exception
    return _artifacts(workdir, r.exit_code, r.stdout_bytes, r.stderr_bytes)


def run_console_case(name, workdir, command=("coiso",), env=None):
    """Run one case in workdir through the console script `command` in a
    subprocess; returns its artifacts."""
    argv, _ = CASES[name]
    for f in INPUTS.iterdir():
        shutil.copy(f, workdir / f.name)
    r = subprocess.run([*command, *argv], cwd=workdir, env=env,
                       capture_output=True)
    return _artifacts(workdir, r.returncode, r.stdout, r.stderr)


def check_console_script():
    """Every case through the console script, each in a fresh temp dir;
    prints one line per case and returns the number that differ from their
    goldens."""
    import tempfile

    bad = 0
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_console_case(name, Path(tmp))
        want = {f.name: f.read_bytes() for f in (GOLDEN / name).iterdir()}
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        bad += bool(diff)
        print(name, f"differs: {diff}" if diff else "ok")
    return bad


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_the_goldens(name, tmp_path):
    got = run_case(name, tmp_path)
    want = {f.name: f.read_bytes() for f in (GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{name}/{key} differs from its golden"
    assert got["exit_code"] == b"%d\n" % CASES[name][1]


@pytest.mark.parametrize("name", ["fill-grid22-k2-int", "subdivide-grid-refused"])
def test_console_runs_match_the_goldens(name, tmp_path):
    # the subprocess path that checks the installed console script, on a
    # stand-in command
    import coiso

    env = dict(os.environ, PYTHONPATH=str(Path(coiso.__file__).parents[1]))
    got = run_console_case(name, tmp_path, (sys.executable, "-c",
                           "from coiso.cli import main; main()"), env)
    assert got == {f.name: f.read_bytes() for f in (GOLDEN / name).iterdir()}


def test_verify_input_is_the_schedule_golden():
    assert (INPUTS / "dD3_L4_k2_schedule.json").read_bytes() == \
        (GOLDEN / "schedule-dD3L4-k2" / "sched.json").read_bytes()


def _regenerate():
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(name, Path(tmp))
        dest = GOLDEN / name
        if dest.exists():
            shutil.rmtree(dest)
        dest.mkdir()
        for key, data in got.items():
            (dest / key).write_bytes(data)
        print(name, sorted(got), file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["--console"]:
        sys.exit(1 if check_console_script() else 0)
    _regenerate()
