"""Exact rational arithmetic backend.

All contract-bearing numbers in this package are exact rationals.  gmpy2's
mpq is used when it is installed (a drop-in for Fraction here and roughly an
order of magnitude faster).  gmpy2 is optional and often absent; then
fractions.Fraction is the backend, and it is the one CI tests.  Both expose
.numerator/.denominator and print as "p/q" or "p", which is the serialized
form everywhere.

The input rules every module shares live here too: `int_index` for an
index, `int_rows` for the entries of an integer matrix, and `load_json`
for an input file.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction

try:
    from gmpy2 import mpq as RAT
except ImportError:  # gmpy2 is optional
    RAT = Fraction

ZERO = RAT(0)
ONE = RAT(1)


def rat(p, q=None):
    """Build an exact rational from ints, a rational, or a 'p/q' string."""
    if q is not None:
        return RAT(p, q)
    if isinstance(p, str):
        if "/" in p:
            num, den = p.split("/")
            return RAT(int(num), int(den))
        return RAT(int(p))
    if isinstance(p, float):
        raise TypeError("floats are not accepted as exact rationals: %r" % (p,))
    return RAT(p)


def rat_str(x) -> str:
    """Serialize an exact rational as 'p/q' (or 'p' when integral)."""
    return str(RAT(x))


def int_index(x) -> int:
    """operator.index(x), except that a bool raises TypeError: True is not
    the index 1."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a boolean, not an integer index")
    return operator.index(x)


def int_rows(rows, error, name):
    """Copies of the sparse rows (dict col -> value) with the zeros dropped
    and every entry an int.  An int, or an exact rational with denominator
    1, is kept as an int; a float, a boolean or any other rational raises
    error, naming the row and column, so no entry is truncated.  A column
    is read by `int_index`, and one it refuses raises error too."""
    out = []
    for i, r in enumerate(rows):
        row = {}
        for j, v in r.items():
            if type(j) is not int:
                try:
                    j = int_index(j)
                except TypeError:
                    raise error(f"{name}: column {j!r} of row {i} is not an "
                                f"integer index") from None
            if type(v) is not int:
                if (isinstance(v, (bool, float))
                        or getattr(v, "denominator", 0) != 1):
                    raise error(f"{name}: entry {v!r} at row {i}, column {j} "
                                f"is not an integer")
                v = int(v)
            if v:
                row[j] = v
        out.append(row)
    return out


def load_json(path, error, kind):
    """The JSON document in the file at path; a file that cannot be read or
    is not JSON raises error, naming the kind of file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise error(f"cannot read {kind} file {path}: {e.strerror or e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON, or nested too deep
        raise error(f"{kind} file is not JSON: {e}") from e


def is_integral(x) -> bool:
    """True for an exact rational or int with denominator 1."""
    return x.denominator == 1
