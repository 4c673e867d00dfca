"""Exact rational simplex and integer positive-definiteness certification.

Small and dense: rational input is scaled to integers.  The simplex pivots
fraction-free on Python ints.  The packing LP max sum y s.t. rows.y <= 1,
y >= 0 lets a float simplex propose an optimal basis and proves the primal
and dual solutions read off it by weak duality in Python ints.  The
positive-definiteness test lets floats propose a Cholesky factor and proves
it with an exact integer residual check (int64 products, Python ints for
the residual).  When a proof fails, the exact fallback runs: the
fraction-free simplex, or fraction-free elimination.  Floats never decide a
value or a verdict.  These back the certified bounds in the spectrum
module; nothing here is a general-purpose optimization surface.
"""

from __future__ import annotations

import math
from fractions import Fraction


# The rounded factor has |entries| <= 2^51 and is split at 2^26 into int64
# halves, so every partial sum of its three int64 products stays below
# n * 2^52 <= 2^62: an exactness precondition, not a tuning knob.
_RESIDUAL_MAX_N = 1 << 10
_FACTOR_BITS = 51
_SPLIT = 26
_EPS = 1e-9  # float simplex: entries below this count as zero


class UnboundedError(Exception):
    """The LP has unbounded objective (a bug in the caller's model)."""


def _to_integers(xs) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, and that lcm."""
    if all(isinstance(x, int) for x in xs):
        return list(xs), 1
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


def packing_optimum(rows: list[list[int]]) -> Fraction | None:
    """Exact optimum of max sum y s.t. rows.y <= 1, y >= 0, or None.

    Floats propose, integers prove (Applegate, Cook, Dash and Espinoza,
    Oper. Res. Lett. 2007): a float simplex proposes a basis, its integer
    primal and dual solutions are read off the basis matrix, and weak
    duality checked in Python ints proves their common value optimal.
    None means "not proved"; the caller then runs simplex_max.
    """
    import numpy as np

    a = np.array(rows, dtype=float)
    cert = _packing_certificate(a, *_packing_basis(a, 10 * sum(a.shape)))
    if cert is None or not _proves_packing(rows, *cert):
        return None
    return Fraction(sum(cert[0]), cert[2])


def _packing_basis(a: np.ndarray, max_pivots: int) -> tuple[list[int], list[int]]:
    """Tight rows and basic columns of the basis that a float Bland-rule
    simplex on max sum y s.t. a y <= 1, y >= 0 reaches from the slack basis
    within max_pivots; it may be neither optimal nor feasible.  The tableau
    is condensed (Tucker), (m+1)(n+1) floats, not m(m+n): row i reads
    x_rowvar[i] + sum_j tab[i, j] x_colvar[j] = tab[i, n], the last row has
    the objective, and variables n.. are the slacks."""
    import numpy as np

    m, n = a.shape
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = a
    tab[:m, n] = 1
    tab[m, :n] = -1
    rowvar, colvar = np.arange(n, n + m), np.arange(n)
    for _ in range(max_pivots):
        enter = np.flatnonzero(tab[m, :n] < -_EPS)
        if not enter.size:
            break
        s = enter[colvar[enter].argmin()]
        col = tab[:, s].copy()
        ratio = np.divide(tab[:m, n], col[:m], out=np.full(m, np.inf), where=col[:m] > _EPS)
        ties = np.flatnonzero(ratio <= ratio.min() + _EPS)
        r = ties[rowvar[ties].argmin()]
        pivot = tab[r] / col[r]
        tab -= np.outer(col, pivot)
        tab[r] = pivot
        tab[:, s] = -col / col[r]
        tab[r, s] = 1 / col[r]
        rowvar[r], colvar[s] = colvar[s], rowvar[r]
    tight = sorted(v - n for v in colvar.tolist() if v >= n)
    return tight, sorted(v for v in rowvar.tolist() if v < n)


def _packing_certificate(a: np.ndarray, tight: list[int], basic: list[int]):
    """(y, pi, D) from B = a[tight, basic]: D = |det B|, and the ints y and
    pi are D B^-1 1 and D B^-T 1 (adjugate sums), rounded and padded with
    zeros.  None when B is singular or too large for float rounding."""
    import numpy as np

    b = a[np.ix_(tight, basic)]
    det = abs(np.linalg.det(b))
    if not 0.5 < det < 2.0**50:
        return None
    d = round(det)
    inv = np.linalg.inv(b) * d
    y, pi = [0] * a.shape[1], [0] * a.shape[0]
    for j, v in zip(basic, np.rint(inv.sum(axis=1)).tolist()):
        y[j] = int(v)
    for i, v in zip(tight, np.rint(inv.sum(axis=0)).tolist()):
        pi[i] = int(v)
    return y, pi, d


def _proves_packing(rows: list[list[int]], y: list[int], pi: list[int], d: int) -> bool:
    """Weak LP duality in integers: y/d is feasible for max sum y s.t.
    rows.y <= 1, y >= 0, pi/d for its dual min sum pi s.t. rows^T pi >= 1,
    pi >= 0, and their objectives are equal, so both are optimal."""
    return (
        d > 0
        and min(y) >= 0
        and all(sum(x * v for x, v in zip(row, y)) <= d for row in rows)
        and min(pi) >= 0
        and all(sum(p * x for p, x in zip(pi, col)) >= d for col in zip(*rows))
        and sum(y) == sum(pi)
    )


def is_positive_definite(matrix: list[list[Fraction]]) -> bool:
    """Exact test for strict positive definiteness.

    Expects a symmetric rational matrix.  Returns True iff it is strictly
    positive definite; a zero eigenvalue (merely semidefinite) returns
    False, callers add a margin when they need to certify a PSD fact.  A
    rounded-Cholesky residual certificate decides the common case; Sylvester's
    test by fraction-free (Bareiss) elimination decides whatever the
    certificate does not prove.
    """
    n = len(matrix)
    if n == 0:
        return True
    flat, _ = _to_integers([x for row in matrix for x in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    return _residual_certificate(a) or _bareiss(a)


def _residual_certificate(a: list[list[int]]) -> bool:
    """True when a rounded float Cholesky factor proves a positive definite.

    The rounding-and-residual method (Peyrl and Parrilo, Theor. Comput. Sci.
    2008; Rump, BIT 2006).  With 2^e > max |a_ij|, the float factor of
    a*2^-e - delta*I, delta half the float estimate of lambda_min, is rounded
    to an int matrix L on a 2^-k grid, and R = a*2^2k - L L^T * 2^e is formed
    exactly.  L L^T is PSD, so a positive diagonal that strictly dominates
    every row of R proves a = (R + L L^T * 2^e) / 2^2k positive definite.
    Float error can only make the check fail: False means "not proved".
    """
    import numpy as np

    n = len(a)
    e = max(max(map(abs, row)) for row in a).bit_length()
    # the row test proves a > 0 only for a symmetric, nonzero a
    if n > _RESIDUAL_MAX_N or e == 0 or a != [list(col) for col in zip(*a)]:
        return False
    cut = max(0, e - 62)  # shifted below 2^62, ints of any size make finite floats
    m = np.ldexp(np.array([[x >> cut for x in row] for row in a], dtype=float), cut - e)
    lam = float(np.linalg.eigvalsh(m)[0])
    if not 0 < lam < math.inf:
        return False
    m[np.diag_indices(n)] -= lam / 2
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    k = _FACTOR_BITS - math.frexp(float(np.abs(factor).max()))[1]
    rounded = np.rint(np.ldexp(factor, k)).astype(np.int64)
    hi, lo = rounded >> _SPLIT, rounded & (1 << _SPLIT) - 1
    hl = hi @ lo.T
    # L L^T = hh * 2^(2 SPLIT) + (hl + lh) * 2^SPLIT + ll; each row of R is
    # formed divided by 2^min(2k, e), which leaves the row test unchanged
    sa, sp = max(0, 2 * k - e), max(0, e - 2 * k)
    products = zip(a, (hi @ hi.T).tolist(), (hl + hl.T).tolist(), (lo @ lo.T).tolist())
    for i, (row, hh, cross, ll) in enumerate(products):
        r = [(x << sa) - (((h << _SPLIT) + c << _SPLIT) + q << sp)
             for x, h, c, q in zip(row, hh, cross, ll)]
        if 2 * r[i] <= sum(map(abs, r)):  # r_ii <= sum of |r_ij| over j != i
            return False
    return True


def _bareiss(a: list[list[int]]) -> bool:
    """Sylvester test with fraction-free (Bareiss) elimination of the int
    matrix a, in place: True iff every leading principal minor is positive."""
    n = len(a)
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
