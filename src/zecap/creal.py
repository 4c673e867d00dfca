"""Computable reals as lazy rational approximants with a 2^-n error modulus.

A value is an expression tree; asking for precision n yields a Fraction
within 2^-n of the represented real.  Approximants are deterministic and
cached, so the same precision always returns the identical rational.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Optional

from .errors import InputError


class CReal:
    """A real number given by approximants r_n with |x - r_n| < 2^-n."""

    __slots__ = ("_fn", "description", "exact", "_cache")

    def __init__(
        self,
        fn: Callable[[int], Fraction],
        description: str,
        exact: Optional[Fraction] = None,
    ):
        self._fn = fn
        self.description = description
        self.exact = exact
        self._cache: dict[int, Fraction] = {}

    def approx(self, n: int) -> Fraction:
        if n < 0:
            raise InputError("precision must be nonnegative")
        if self.exact is not None:
            return self.exact
        got = self._cache.get(n)
        if got is None:
            got = self._fn(n)
            self._cache[n] = got
        return got

    def lower_bound(self, n: int) -> Fraction:
        """A rational certainly <= the value (exact when the value is rational)."""
        if self.exact is not None:
            return self.exact
        return self.approx(n) - Fraction(1, 1 << n)

    def upper_bound(self, n: int) -> Fraction:
        if self.exact is not None:
            return self.exact
        return self.approx(n) + Fraction(1, 1 << n)

    def __repr__(self) -> str:
        return f"CReal({self.description})"


def from_rational(q) -> CReal:
    q = Fraction(q)
    return CReal(lambda n: q, str(q), exact=q)


def _int_nth_root(x: int, d: int) -> int:
    """floor(x ** (1/d)) for nonnegative integers, exact."""
    if x < 0:
        raise InputError("radicand must be nonnegative")
    if x <= 1 or d == 1:
        return x  # a Newton step from 2 would build 2^(d-1)
    if d == 2:
        return math.isqrt(x)
    # Newton iteration on integers, seeded from the bit length
    r = 1 << ((x.bit_length() + d - 1) // d)
    while True:
        nr = ((d - 1) * r + x // r ** (d - 1)) // d
        if nr >= r:
            break
        r = nr
    while r ** d > x:
        r -= 1
    return r


def sqrt_int(k: int) -> CReal:
    """Square root of a nonnegative integer."""
    return root_pow2(k, 1)


def root_pow2(k: int, m: int) -> CReal:
    """2^m-th root of a nonnegative integer k; exact when k is a perfect power."""
    if k < 0:
        raise InputError("radicand must be nonnegative")
    if m < 0:
        raise InputError("root level must be nonnegative")
    if m == 0:
        return from_rational(k)
    d = 1 << m
    r = _int_nth_root(k, d)
    if r ** d == k:
        return from_rational(r)

    def fn(n: int, k=k, d=d) -> Fraction:
        # floor((k * 2^(d p)) ** (1/d)) / 2^p with p = n+1 gives error < 2^-(n+1)
        p = n + 1
        t = _int_nth_root(k << (d * p), d)
        return Fraction(t, 1 << p)

    label = f"sqrt({k})" if m == 1 else f"{k}^(1/{d})"
    return CReal(fn, label)


def add(x: CReal, y: CReal) -> CReal:
    if x.exact is not None and y.exact is not None:
        return from_rational(x.exact + y.exact)

    def fn(n: int) -> Fraction:
        return x.approx(n + 1) + y.approx(n + 1)

    return CReal(fn, f"({x.description} + {y.description})")


_SQRT_RE = re.compile(r"^sqrt\(\s*(\d+)\s*\)$")
_SUM_RE = re.compile(r"^([^+]+)\+\s*sqrt\(\s*(\d+)\s*\)$")


def parse_real(text: str) -> CReal:
    """Parse 'a/b', '2.5', 'sqrt(k)', or 'a+sqrt(k)' into a computable real,
    described by the text read, stripped."""
    t = text.strip().replace(" ", "")
    if not t:
        raise InputError("empty real expression")
    if m := _SQRT_RE.match(t):
        x = sqrt_int(parse_integer(m.group(1), "radicand"))
    elif m := _SUM_RE.match(t):
        x = add(_parse_rational(m.group(1)), sqrt_int(parse_integer(m.group(2), "radicand")))
    else:
        x = _parse_rational(t)
    x.description = text.strip()
    return x


def parse_integer(digits: str, what: str) -> int:
    """A string of decimal digits as an int; too many digits is an InputError."""
    try:
        return int(digits)
    except ValueError:  # past Python's int-to-str digit limit
        raise InputError(f"{what} has {len(digits)} digits, too many to read") from None


_EXPONENT_RE = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")
_DIGIT_LIMIT = 4300  # Python's default int-to-str digit limit
_DECIMAL_DIGITS = 12  # places after the point in every decimal a report prints


def check_exponent(text: str, what: str) -> None:
    """Refuse a decimal exponent past the int-to-str digit limit before
    ``Fraction`` expands it in full: ``1e300000000`` is a 10^8-digit int."""
    m = _EXPONENT_RE.search(text)
    if m is None:
        return
    exponent = m.group(1).replace("_", "").lstrip("0")
    # by length first: int() itself refuses a numeral past the limit
    if len(exponent) > len(str(_DIGIT_LIMIT)) or int(exponent or "0") > _DIGIT_LIMIT:
        raise InputError(f"{what} {text!r} has too many digits")


def _parse_rational(t: str) -> CReal:
    check_exponent(t, "real expression")
    try:
        return from_rational(Fraction(t))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse real expression {t!r}") from None


def decimal_string(q: Fraction) -> str:
    """Plain decimal rendering of a rational, for reports, cut at ``_DECIMAL_DIGITS`` places."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    frac = str(rem * 10**_DECIMAL_DIGITS // q.denominator).rjust(_DECIMAL_DIGITS, "0")
    # a remainder below the last place keeps its zeros: "1.000", not "1."
    return f"{sign}{whole}.{frac.rstrip('0') or frac}"
