"""Exact rational simplex and integer positive-definiteness certification.

Small and dense: rational input is scaled to integers and eliminated
fraction-free, so all arithmetic is on Python ints.  These back the certified
bounds in the spectrum module; nothing here is a general-purpose optimization
surface.
"""

from __future__ import annotations

import math
from fractions import Fraction


class UnboundedError(Exception):
    """The LP has unbounded objective (a bug in the caller's model)."""


def _to_integers(xs) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, and that lcm."""
    xs = [x if isinstance(x, int) else Fraction(x) for x in xs]
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def simplex_max(
    c: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.y subject to rows.y <= rhs, y >= 0, with rhs >= 0.

    Dense tableau simplex with Bland's rule (finite by anti-cycling), from
    the slack basis, which rhs >= 0 makes feasible.  Returns (optimum,
    argument).  The tableau stays in ints by fraction-free pivoting
    (Edmonds 1967; Bareiss 1968): each row, the cost row too, is scaled to
    integers, the rational tableau is the int one over d, the basis
    determinant, and each update (p*row - f*pivot_row) // d is exact.  A
    row's scale only rescales its slack, so the pivots stay the same.
    """
    m = len(rows)
    n = len(c)
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError(f"need {m} rhs entries and rows of {n} coefficients")
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative for the slack start")
    # columns: n structurals, m slacks, rhs; row m: reduced costs, -objective
    tab = []
    for i in range(m):
        row, _ = _to_integers([*rows[i], rhs[i]])
        tab.append(row[:n] + [0] * i + [1] + [0] * (m - 1 - i) + row[n:])
    cost, cost_scale = _to_integers(c)
    tab.append(cost + [0] * (m + 1))
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        enter = next((j for j in range(n + m) if tab[m][j] > 0), -1)  # Bland
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            # least ratio rhs/a, then least basic index; the ratios of
            # positive entries compare by cross-multiplying
            if a > 0 and (leave < 0 or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m + 1):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(p * x - f * y) // d for x, y in zip(tab[i], prow)]
        d = p
        basis[leave] = enter

    y = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = Fraction(tab[i][-1], d)
    return Fraction(-tab[m][-1], d * cost_scale), y


def is_positive_definite(matrix: list[list[Fraction]]) -> bool:
    """Sylvester test with fraction-free (Bareiss) elimination, exact.

    Expects a symmetric rational matrix.  Returns True iff it is strictly
    positive definite; a zero pivot (merely semidefinite) returns False,
    callers add a margin when they need to certify a PSD fact.
    """
    n = len(matrix)
    if n == 0:
        return True
    flat, _ = _to_integers([x for row in matrix for x in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (pivot * rowi[j] - aik * rowk[j]) // prev
        prev = pivot
    return True
