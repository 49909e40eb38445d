"""Exact rational arithmetic backend.

All contract-bearing numbers in this package are exact rationals.  gmpy2's
mpq is used when it is installed (a drop-in for Fraction here and roughly an
order of magnitude faster).  gmpy2 is optional and often absent; then
fractions.Fraction is the backend, and it is the one CI tests.  Both expose
.numerator/.denominator and print as "p/q" or "p", which is the serialized
form everywhere.
"""

from __future__ import annotations

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


def is_integral(x) -> bool:
    """True for an exact rational or int with denominator 1."""
    return x.denominator == 1
