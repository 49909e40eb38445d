"""The package surface: lazy exports, what a process loads, and the plain
value classes' repr and ==."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coiso
from coiso import filling
from coiso.cubetree import CubeTree
from coiso.exact import RAT
from coiso.filling import FillingResult
from coiso.homalg import Chain, Cochain
from coiso.scheduler import PrismSchedule
from coiso.trees import SpanningTree, WrappingTree

SRC = str(Path(coiso.__file__).resolve().parents[1])


def _run(code):
    r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


# -- start-up ----------------------------------------------------------------------

def test_the_duality_check_loads_no_tree_scheduler_or_dataclasses_module():
    out = _run("import sys\n"
               "import coiso\n"
               "assert coiso.coiso_constants_tiny(coiso.simplex_boundary(3), 2)[0] == 1 / 2\n"
               "print(sorted(m for m in ('coiso.trees', 'coiso.scheduler', 'coiso.subdivision',\n"
               "                         'coiso.cubetree', 'coiso.cli', 'dataclasses')\n"
               "             if m in sys.modules))\n")
    assert out == "[]\n"


def test_importing_the_package_loads_none_of_its_modules():
    out = _run("import sys\n"
               "import coiso\n"
               "print(sorted(m for m in sys.modules if m.startswith('coiso.')))\n")
    assert out == "[]\n"


def test_a_fill_loads_the_trees_with_the_lift_data_and_no_dataclasses():
    out = _run("import sys\n"
               "import coiso\n"
               "X = coiso.simplex_boundary(3)\n"
               "omega = coiso.apply_coboundary(X, coiso.Cochain(1, {0: 1}, 'int'))\n"
               "assert coiso.integral_fill(X, omega).ring == 'int'\n"
               "print('coiso.trees' in sys.modules, 'dataclasses' in sys.modules)\n")
    assert out == "True False\n"


# -- lazy exports --------------------------------------------------------------------

def test_every_export_resolves_and_is_listed():
    listing = dir(coiso)
    for name in coiso.__all__:
        value = getattr(coiso, name)
        assert value is getattr(sys.modules[f"coiso.{coiso._EXPORTS[name]}"], name)
        assert name in listing
    assert "__version__" in listing


def test_star_import_gives_exactly_all():
    ns = {}
    exec("from coiso import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(coiso.__all__)
    assert len(set(coiso.__all__)) == len(coiso.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'coiso' has no attribute 'no_such_name'"):
        coiso.no_such_name
    with pytest.raises(ImportError):
        from coiso import no_such_name  # noqa: F401


def test_a_submodule_loads_on_first_access():
    out = _run("import coiso\n"
               "print(coiso.lp.__name__, coiso.trees.SpanningTree is coiso.SpanningTree)\n")
    assert out == "coiso.lp True\n"
    assert coiso.__getattr__("linalg") is sys.modules["coiso.linalg"]


def test_a_name_patched_in_its_module_shows_through_the_package_and_is_undone(monkeypatch):
    real = filling.integral_fill

    def patched(X, omega):
        return real(X, omega)

    with monkeypatch.context() as m:
        m.setattr(filling, "integral_fill", patched)
        assert coiso.integral_fill is patched
    assert coiso.integral_fill is real
    assert "integral_fill" not in vars(coiso)


# -- plain value classes -------------------------------------------------------------
# the repr strings are those the classes printed as dataclasses

_W = {0: Fraction(1), 2: Fraction(-1, 2)}
_W_REPR = "Cochain(k=1, entries={0: Fraction(1, 1), 2: Fraction(-1, 2)}, ring='rat')"


def _instances():
    w = Cochain(1, dict(_W))
    return [
        (w, _W_REPR),
        (Cochain(2, {1: 3}, "int"), "Cochain(k=2, entries={1: Fraction(3, 1)}, ring='int')"),
        (Chain(1, {0: 1}), "Chain(k=1, entries={0: Fraction(1, 1)}, ring='rat')"),
        (FillingResult(Cochain(0, {1: 2}, "int"), w, "int", Fraction(2), {"g_upper": 1}),
         "FillingResult(alpha=Cochain(k=0, entries={1: Fraction(2, 1)}, ring='int'), "
         f"omega={_W_REPR}, ring='int', norm_inf_alpha=Fraction(2, 1), "
         "details={'g_upper': 1})"),
        (FillingResult(w, w, "rat", 1),
         f"FillingResult(alpha={_W_REPR}, omega={_W_REPR}, ring='rat', norm_inf_alpha=1, "
         "details={})"),
        (SpanningTree("X", 1, (0, 2)), "SpanningTree(X='X', k=1, cells=(0, 2))"),
        (SpanningTree("X", 1, (0, 2), {"basis_cells": [3]}),
         "SpanningTree(X='X', k=1, cells=(0, 2))"),
        (WrappingTree("X", 0, (0,)), "WrappingTree(X='X', k=0, cells=(0,))"),
        (CubeTree("G", 1, (1, 4)), "CubeTree(grid='G', k=1, cells=(1, 4))"),
        (PrismSchedule("P", {(0, 1): 2}, {(1, 0): -1}, w, Cochain(0, {}, "int")),
         "PrismSchedule(prism='P', vertical={(0, 1): 2}, horizontal={(1, 0): -1}, "
         f"omega={_W_REPR}, alpha=Cochain(k=0, entries={{}}, ring='int'))"),
    ]


@pytest.mark.skipif(RAT is not Fraction, reason="the strings spell Fraction's repr")
@pytest.mark.parametrize("i", range(len(_instances())))
def test_value_class_repr_is_the_dataclass_form(i):
    value, text = _instances()[i]
    assert repr(value) == text


@pytest.mark.parametrize("i", range(len(_instances())))
def test_value_classes_compare_by_fields_and_are_unhashable(i):
    value, _ = _instances()[i]
    twin, _ = _instances()[i]
    assert value == twin and not value != twin
    assert value != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_value_classes_differ_by_field_and_by_class():
    assert Cochain(1, {0: 1}) != Cochain(1, {0: 1}, "int")
    assert Cochain(1, {0: 1}) != Cochain(2, {0: 1})
    assert Chain(1, {0: 1}) != Cochain(1, {0: 1})
    assert Cochain(1, {0: 1}) != Chain(1, {0: 1})
    assert WrappingTree("X", 1, (0,)) != SpanningTree("X", 1, (0,))
    assert SpanningTree("X", 1, (0,)) != SpanningTree("X", 1, (1,))
    assert CubeTree("G", 1, (0,)) != CubeTree("G", 2, (0,))
    # the cached relative classes are neither compared nor printed
    assert SpanningTree("X", 1, (0,), {"classes": []}) == SpanningTree("X", 1, (0,))


def test_value_classes_take_their_fields_by_keyword():
    w = Cochain(k=1, entries={0: 1}, ring="int")
    assert w == Cochain(1, {0: 1}, "int")
    a = FillingResult(alpha=w, omega=w, ring="int", norm_inf_alpha=1)
    b = FillingResult(alpha=w, omega=w, ring="int", norm_inf_alpha=1)
    assert a.details == {} and a.details is not b.details
    T = SpanningTree(X="X", k=1, cells=(0,), _rel={"basis_cells": []})
    assert T.rel_data() == {"basis_cells": []}
    assert PrismSchedule(prism="P", vertical={}, horizontal={}, omega=w, alpha=w).norm_inf() == 0
