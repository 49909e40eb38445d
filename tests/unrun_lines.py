"""List the executable lines of src/coiso that a pytest run never runs.

Run from the repository root, with pytest's arguments after the script's
name (the default is the tier-1 suite):

    PYTHONPATH=src python tests/unrun_lines.py [pytest args ...]

Every thread is traced with sys.settrace and threading.settrace, stdlib
only, and pytest runs in this process.  A line is executable when some code
object compiled from its file starts a line there.  The lines of KNOWN are
reported apart, each with its reason.  Tests that run coiso in a fresh
process are not followed.  The exit status is pytest's; the listing gates
nothing.  Tracing makes the suite about four times slower.
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coiso"

# (file, function): why tier-1 never runs the function's lines in-process
KNOWN = {
    ("lp.py", "_highs_core"): "loads scipy's HiGHS extension once per "
    "process; only the fresh-process tests of tests/test_highs_loader.py "
    "run it before a test has loaded the extension",
}


def _codes(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _codes(const)


def _lines(code):
    """The lines that code and the code nested in it start."""
    return {line for c in _codes(code) for _, _, line in c.co_lines()
            if line is not None}


def executable_lines(path):
    """(lines, known): the executable lines of path, and those of each of
    its KNOWN functions, by function name."""
    module = compile(path.read_text(), str(path), "exec")
    known = {c.co_name: _lines(c) for c in _codes(module)
             if (path.name, c.co_name) in KNOWN}
    return _lines(module), known


def main(args):
    prefix = str(SRC) + os.sep
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun_total = 0
    print("\nexecutable src/ lines that the run never ran:")
    for path in sorted(SRC.glob("*.py")):
        lines, known = executable_lines(path)
        total += len(lines)
        unrun = lines - ran[str(path)]
        for func, func_lines in known.items():
            if unrun & func_lines:
                print(f"  {path.name}: {_ranges(unrun & func_lines)} known, "
                      f"{func}: {KNOWN[path.name, func]}")
                unrun -= func_lines
        unrun_total += len(unrun)
        if unrun:
            print(f"  {path.name}: {_ranges(unrun)}")
    print(f"{unrun_total} of {total} executable src/ lines unrun, "
          f"not counting the known ones")
    return status


def _ranges(lines):
    """'3, 7-9, 12' for the sorted line numbers."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider",
                                   "--continue-on-collection-errors"]))
