"""Command line surface: deterministic, machine-readable artifacts.

Every JSON artifact embeds the config that produced it and the tool version;
rationals serialize as "p/q" strings; re-running any subcommand with the same
config and seed produces byte-identical output.  Domain errors exit 1 with a
structured JSON object on stderr; usage errors exit 2.
"""

from __future__ import annotations

import csv
import json
import sys

import click

from . import __version__
from .exact import load_json, rat_str
from .complexes import load_complex, ComplexError
from .homalg import load_cochain, HomalgError
from .subdivision import edgewise_subdivide, SubdivisionError
from .trees import (greedy_spanning_tree, wrapping_tree, TreeError)
from .cubetree import cube_tree, cube_tree_recursive, verify_cube_tree, CubeTreeError
from .filling import (linf_fill_rational, integral_fill, estimate_cip,
                      coiso_constants_tiny, FillingError, NotACoboundary)
from .lp import LPError
from .scheduler import (degree_schedule, verify_schedule, s2_null_demo,
                        SchedulerError, ScheduleInvariantError, PrismSchedule)

_DOMAIN_ERRORS = (ComplexError, HomalgError, SubdivisionError, TreeError,
                  CubeTreeError, FillingError, SchedulerError, LPError)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _artifact(config, payload) -> str:
    doc = {"config": config, "tool_version": __version__}
    doc.update(payload)
    return _dump(doc)


def _write_artifact(path, config, payload):
    with open(path, "w") as fh:
        fh.write(_artifact(config, payload))


def _emit_error(e):
    info = {"type": type(e).__name__, "message": str(e)}
    if isinstance(e, NotACoboundary):
        info["certificate"] = {
            "kind": "cycle-pairing",
            "cycle": [[int(i), rat_str(v)] for i, v in sorted(e.witness.items())],
            "pairing": rat_str(e.pairing),
        }
    if isinstance(e, ScheduleInvariantError):
        info["report"] = _jsonable(e.report)
    sys.stderr.write(_dump({"error": info}))


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return x
    return rat_str(x)


def _domain_guard(fn):
    import functools

    @functools.wraps(fn)
    def wrapped(*a, **kw):
        try:
            return fn(*a, **kw)
        except _DOMAIN_ERRORS as e:
            _emit_error(e)
            raise SystemExit(1)
    return wrapped


@click.group()
def main():
    """Exact cochain filling, trees and degree schedules."""


@main.command()
@click.option("--in", "in_path", required=True, help="Complex JSON")
@click.option("--L", "L", required=True, type=int)
@click.option("--out", required=True)
@_domain_guard
def subdivide(in_path, L, out):
    """Edgewise-subdivide a complex; writes the result plus a .prov.json sidecar."""
    X = load_complex(in_path)
    S = edgewise_subdivide(X, L)
    config = {"subcommand": "subdivide", "in": in_path, "L": L, "out": out}
    _write_artifact(out, config, S.result.to_json_dict())
    side = out[:-5] if out.endswith(".json") else out
    with open(side + ".prov.json", "w") as fh:
        fh.write(_dump(S.provenance_json_dict()))


@main.command()
@click.option("--in", "in_path", default=None, help="Complex JSON (spanning/wrapping)")
@click.option("--k", "k", required=True, type=int)
@click.option("--kind", type=click.Choice(["spanning", "wrapping", "cube"]),
              default="spanning", show_default=True)
@click.option("--n", "n", type=int, default=None, help="Cube dimension (cube only)")
@click.option("--r", "r", type=int, default=None, help="Grid resolution (cube only)")
@click.option("--out", required=True)
@_domain_guard
def tree(in_path, k, kind, n, r, out):
    """Build a spanning, wrapping, or grid-cube tree."""
    config = {"subcommand": "tree", "in": in_path, "k": k, "kind": kind,
              "n": n, "r": r, "out": out}
    if kind == "cube":
        if n is None or r is None:
            raise click.UsageError("cube trees need --n and --r")
        T = cube_tree(n, k, r)
        payload = {"k": k, "cells": [int(i) for i in T.cells]}
    else:
        if in_path is None:
            raise click.UsageError("spanning/wrapping trees need --in")
        X = load_complex(in_path)
        T = greedy_spanning_tree(X, k) if kind == "spanning" else wrapping_tree(X, k)
        payload = {"k": k, "cells": [int(i) for i in T.cells]}
    _write_artifact(out, config, payload)


@main.command()
@click.option("--complex", "complex_path", required=True)
@click.option("--omega", "omega_path", required=True)
@click.option("--ring", type=click.Choice(["int", "rat"]), default="int",
              show_default=True)
@click.option("--out", required=True)
@_domain_guard
def fill(complex_path, omega_path, ring, out):
    """Norm-minimal cofilling of a coboundary; integral correction with --ring int."""
    X = load_complex(complex_path)
    omega = load_cochain(omega_path)
    if ring == "int":
        res = integral_fill(X, omega)
    else:
        res = linf_fill_rational(X, omega)
    config = {"subcommand": "fill", "complex": complex_path,
              "omega": omega_path, "ring": ring, "out": out}
    _write_artifact(out, config, {
        "alpha": res.alpha.to_json_dict(),
        "report": {
            "norm_inf": rat_str(res.norm_inf_alpha),
            "residual_zero": True,     # a fill raises on a nonzero residual
            "details": _jsonable(res.details),
        },
    })


def _int_list(ctx, param, spec):
    try:
        return [int(x) for x in spec.split(",") if x]
    except ValueError:
        raise click.BadParameter(f"{spec!r} is not a comma-separated list of "
                                 f"integers")


@main.command(name="cip-sweep")
@click.option("--complex", "complex_path", required=True)
@click.option("--k", "k", required=True, type=int)
@click.option("--L", "L_list", required=True, callback=_int_list,
              help="Comma-separated list, e.g. 2,4,8")
@click.option("--trials", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--out", required=True, help="CSV output path")
@_domain_guard
def cip_sweep(complex_path, k, L_list, trials, seed, out):
    """Empirical coisoperimetric-constant sweep over subdivision scales."""
    X = load_complex(complex_path)
    table = estimate_cip(X, k, L_list, trials, seed)
    config = {"subcommand": "cip-sweep", "complex": complex_path, "k": k,
              "L": L_list, "trials": trials, "seed": seed, "out": out}
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["L", "trial", "norm_omega", "norm_alpha", "ratio"])
        for row in sorted(table["rows"], key=lambda r: (r["L"], r["trial"])):
            if "error" in row:
                w.writerow([row["L"], row["trial"], "error", row["error"], ""])
            else:
                w.writerow([row["L"], row["trial"], rat_str(row["norm_omega"]),
                            rat_str(row["norm_alpha"]), rat_str(row["ratio"])])
    with open(out + ".meta.json", "w") as fh:
        fh.write(_dump({"config": config, "tool_version": __version__,
                        "summary": {str(L): (rat_str(v) if v is not None else None)
                                    for L, v in table["summary"].items()}}))


@main.command()
@click.option("--complex", "complex_path", required=True)
@click.option("--omega", "omega_path", required=True)
@click.option("--alpha", "alpha_path", required=True)
@click.option("--layers", required=True, type=int)
@click.option("--out", required=True)
@_domain_guard
def schedule(complex_path, omega_path, alpha_path, layers, out):
    """Build and verify the layered degree schedule."""
    X = load_complex(complex_path)
    omega = load_cochain(omega_path)
    alpha = load_cochain(alpha_path)
    sched, report = degree_schedule(X, omega, alpha, layers)
    config = {"subcommand": "schedule", "complex": complex_path,
              "omega": omega_path, "alpha": alpha_path, "layers": layers,
              "out": out}
    _write_artifact(out, config, {"schedule": sched.to_json_dict(),
                                  "report": _jsonable(report)})


@main.command()
@click.option("--L", "L", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--out", required=True)
@_domain_guard
def s2demo(L, seed, out):
    """Degree-zero sphere demo: sample, fill, schedule, verify."""
    report = s2_null_demo(L, seed)
    config = {"subcommand": "s2demo", "L": L, "seed": seed, "out": out}
    _write_artifact(out, config, _jsonable(report))


@main.command()
@click.option("--kind", type=click.Choice(["schedule", "cube-tree"]), required=True)
@click.option("--in", "in_path", default=None, help="Schedule artifact (schedule kind)")
@click.option("--complex", "complex_path", default=None,
              help="Complex JSON (schedule kind)")
@click.option("--n", "n", type=int, default=None)
@click.option("--k", "k", type=int, default=None)
@click.option("--r", "r", type=int, default=None)
@click.option("--out", required=True)
@_domain_guard
def verify(kind, in_path, complex_path, n, k, r, out):
    """Re-run verification checks; failing checks are report content."""
    config = {"subcommand": "verify", "kind": kind, "in": in_path,
              "complex": complex_path, "n": n, "k": k, "r": r, "out": out}
    if kind == "cube-tree":
        if n is None or k is None or r is None:
            raise click.UsageError("cube-tree verification needs --n --k --r")
        T = cube_tree(n, k, r)
        recursive = cube_tree_recursive(n, k, r)
        report = verify_cube_tree(T)
        report["closed_form_equals_recursive"] = (T.cells == recursive.cells)
        report["checks_passed"] = (report["checks_passed"]
                                   and report["closed_form_equals_recursive"])
        _write_artifact(out, config, {"report": _jsonable(report)})
        ok = report["checks_passed"]
    else:
        if in_path is None or complex_path is None:
            raise click.UsageError("schedule verification needs --in and --complex")
        X = load_complex(complex_path)
        doc = load_json(in_path, SchedulerError, "schedule")
        report = verify_schedule(PrismSchedule.from_json_dict(doc, X))
        _write_artifact(out, config, {"report": _jsonable(report)})
        ok = report["all_passed"]
    if not ok:
        raise SystemExit(1)


@main.command()
@click.option("--complex", "complex_path", required=True)
@click.option("--k", "k", required=True, type=int)
@click.option("--out", default=None, help="Optional output path (stdout otherwise)")
@_domain_guard
def duality(complex_path, k, out):
    """Cofilling and filling constants on a tiny complex; they must agree."""
    X = load_complex(complex_path)
    co, fi = coiso_constants_tiny(X, k)
    config = {"subcommand": "duality", "complex": complex_path, "k": k, "out": out}
    payload = {"cofilling_constant": rat_str(co), "filling_constant": rat_str(fi),
               "equal": co == fi}
    if out:
        _write_artifact(out, config, payload)
    else:
        sys.stdout.write(_artifact(config, payload))


if __name__ == "__main__":
    main()
