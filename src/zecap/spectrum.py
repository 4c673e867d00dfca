"""Certified upper bounds on graph Shannon capacity.

Two spectrum points are computed:

* Lovász theta, via a first-order splitting method (ADMM) on the dense
  primal SDP  max <J,B> s.t. tr B = 1, B_uv = 0 on edges, B PSD.  The
  float solution is only a guide: both ends of the reported interval are
  re-certified in exact rational arithmetic (a dual witness matrix whose
  largest eigenvalue is bounded by an exact positive-definiteness check,
  and a primal feasible matrix built the same way), so floating point
  never crosses the module boundary uncertified.

* The fractional clique cover number, as the exact rational optimum of
  the covering LP over maximal cliques (computed through its equal-value
  dual with Bland-rule simplex on Fractions).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import creal
from .alpha import LadderValue, ladder as alpha_ladder
from .errors import BudgetError, ConvergenceError, InputError
from .exact import is_positive_definite, simplex_max
from .graphs import Graph

THETA_MAX_VERTICES = 64
CHIF_MAX_VERTICES = 24
CHIF_MAX_CLIQUES = 10_000
_GRID_BITS = 40  # rational certificates live on a 2^-40 grid
_GRID = 1 << _GRID_BITS

KIND_THETA = "lovasz_theta"
KIND_CLIQUE_COVER = "fractional_clique_cover"


@dataclass
class UpperBound:
    """A certified capacity upper bound: the truth lies in [lo, hi]."""

    kind: str
    lo: Fraction
    hi: Fraction
    tolerance: Fraction

    @property
    def value(self) -> Fraction:
        return self.hi


# ---------------------------------------------------------------------------
# fractional clique cover


def maximal_cliques(g: Graph, cap: int = CHIF_MAX_CLIQUES) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch with pivoting)."""
    out: list[int] = []

    def extend(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                raise BudgetError(
                    f"more than {cap} maximal cliques", reason="clique budget"
                )
            return
        # pivot with most candidates knocked out
        pivot = -1
        best = -1
        m = p | x
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            cnt = (p & g.masks[v]).bit_count()
            if cnt > best:
                best = cnt
                pivot = v
            m ^= lsb
        cand = p & ~g.masks[pivot] if pivot >= 0 else p
        while cand:
            lsb = cand & -cand
            v = lsb.bit_length() - 1
            extend(r | lsb, p & g.masks[v], x & g.masks[v])
            p ^= lsb
            x |= lsb
            cand ^= lsb
        return

    if g.n == 0:
        return []
    extend(0, (1 << g.n) - 1, 0)
    return out


def fractional_clique_cover(
    g: Graph,
    max_vertices: int = CHIF_MAX_VERTICES,
    max_cliques: int = CHIF_MAX_CLIQUES,
) -> UpperBound:
    """Exact fractional clique cover number.

    Value of  min sum x_C  s.t. every vertex is covered with weight >= 1,
    x >= 0, over maximal cliques; solved as the equal-value packing dual
    max sum y_v  s.t. sum_{v in C} y_v <= 1 per maximal clique, which has
    a feasible slack start.  Strong LP duality makes the optima equal.
    """
    if g.n == 0:
        return UpperBound(KIND_CLIQUE_COVER, Fraction(0), Fraction(0), Fraction(0))
    if g.n > max_vertices:
        raise BudgetError(
            f"clique cover capped at {max_vertices} vertices, got {g.n}",
            reason="vertex budget",
        )
    cliques = maximal_cliques(g, max_cliques)
    rows = []
    one = Fraction(1)
    zero = Fraction(0)
    for cl in cliques:
        rows.append([one if cl >> v & 1 else zero for v in range(g.n)])
    value, _ = simplex_max([one] * g.n, rows, [one] * len(rows))
    return UpperBound(KIND_CLIQUE_COVER, value, value, Fraction(0))


# ---------------------------------------------------------------------------
# Lovász theta


def _rationalize(x: float) -> Fraction:
    return Fraction(round(x * _GRID), _GRID)


def _rationalize_up(x: float) -> Fraction:
    return Fraction(math.ceil(x * _GRID) + 1, _GRID)


def _certify_upper(a_float: np.ndarray, edge_list: list[tuple[int, int]], n: int) -> Fraction:
    """Exact upper bound on lambda_max of a dual witness matrix.

    The witness has ones on the diagonal and on non-edges; edge entries are
    free, so any such matrix bounds theta from above by its largest
    eigenvalue.  We snap the float entries to a rational grid and certify
    hi*I - A positive definite by exact elimination.
    """
    a_rat = [[Fraction(1)] * n for _ in range(n)]
    for u, v in edge_list:
        q = _rationalize(float(a_float[u, v]))
        a_rat[u][v] = q
        a_rat[v][u] = q
    lam = float(np.linalg.eigvalsh(a_float)[-1])
    delta = max(1e-10, 1e-13 * n * float(np.abs(a_float).max()))
    for _ in range(48):
        hi = _rationalize_up(lam + delta)
        m = [
            [(hi if i == j else Fraction(0)) - a_rat[i][j] for j in range(n)]
            for i in range(n)
        ]
        if is_positive_definite(m):
            return hi
        delta *= 2
    raise ConvergenceError("could not certify the dual witness")


def _certify_lower(y_float: np.ndarray, edge_list: list[tuple[int, int]], n: int) -> Fraction:
    """Exact lower bound on theta from a primal feasible matrix.

    Snap the near-optimal PSD iterate to rationals, zero its edge entries
    exactly, add a tiny diagonal to make positive-definiteness provable,
    normalize the trace; <J, B> of the result is a certified lower bound.
    """
    s = 0.5 * (y_float + y_float.T)
    for u, v in edge_list:
        s[u, v] = 0.0
        s[v, u] = 0.0
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q = _rationalize(float(s[i, j]))
            b[i][j] = q
            b[j][i] = q
    for u, v in edge_list:
        b[u][v] = Fraction(0)
        b[v][u] = Fraction(0)
    # smallest eigenvalue estimate guides the diagonal lift; the exact
    # elimination below is the actual proof of feasibility
    mu = float(np.linalg.eigvalsh(s)[0])
    c = _rationalize_up(max(0.0, -mu) + 2.0 ** -(_GRID_BITS - 8))
    for _ in range(40):
        m = [
            [b[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        if is_positive_definite(m):
            trace = sum(m[i][i] for i in range(n))
            total = sum(sum(row) for row in m)
            return total / trace
        c *= 4
    raise ConvergenceError("could not certify the primal witness")


@functools.lru_cache(maxsize=512)
def _theta_interval(g: Graph, tol: Fraction, max_iterations: int) -> tuple[Fraction, Fraction]:
    n = g.n
    edge_list = g.edges()
    tol_f = float(min(tol, n))  # theta is in [1, n]; float(tol) may overflow
    jmat = np.ones((n, n))
    eye = np.eye(n)
    x = eye / n
    y = x.copy()
    u = np.zeros((n, n))
    rho = 1.0
    erows = np.array([e[0] for e in edge_list], dtype=int)
    ecols = np.array([e[1] for e in edge_list], dtype=int)

    def project_affine(w: np.ndarray) -> np.ndarray:
        w = 0.5 * (w + w.T)
        if len(edge_list):
            w[erows, ecols] = 0.0
            w[ecols, erows] = 0.0
        d = (1.0 - np.trace(w)) / n
        w[np.diag_indices(n)] += d
        return w

    best: tuple[Fraction, Fraction] | None = None
    iters = 0
    chunk = 250
    y_prev = y.copy()
    while iters < max_iterations:
        for _ in range(chunk):
            x = project_affine(y - u + jmat / rho)
            w, vecs = np.linalg.eigh(x + u)
            y = (vecs * np.clip(w, 0.0, None)) @ vecs.T
            u += x - y
        iters += chunk
        # residual balancing keeps rho sane across graph sizes
        pres = float(np.linalg.norm(x - y))
        dres = float(rho * np.linalg.norm(y - y_prev))
        y_prev = y.copy()
        if pres > 10 * dres and pres > 1e-14:
            rho *= 2.0
            u /= 2.0
        elif dres > 10 * pres and dres > 1e-14:
            rho /= 2.0
            u *= 2.0
        # dual candidate: edge entries harvested from the scaled multiplier
        z = -rho * u
        cand1 = np.ones((n, n))
        cand2 = np.ones((n, n))
        if len(edge_list):
            cand1[erows, ecols] = -z[erows, ecols]
            cand1[ecols, erows] = -z[ecols, erows]
            cand2[erows, ecols] = z[erows, ecols]
            cand2[ecols, erows] = z[ecols, erows]
        cand1 = 0.5 * (cand1 + cand1.T)
        cand2 = 0.5 * (cand2 + cand2.T)
        t1 = float(np.linalg.eigvalsh(cand1)[-1])
        t2 = float(np.linalg.eigvalsh(cand2)[-1])
        a_best = cand1 if t1 <= t2 else cand2
        t_hat = min(t1, t2)
        v_hat = float(jmat.ravel() @ y.ravel()) / max(float(np.trace(y)), 1e-12)
        if t_hat - v_hat < 0.6 * tol_f:
            hi = _certify_upper(a_best, edge_list, n)
            lo = _certify_lower(y, edge_list, n)
            if best is None or hi - lo < best[1] - best[0]:
                best = (lo, hi)
            if best[1] - best[0] <= tol:
                return best
    raise ConvergenceError(
        f"theta splitting did not reach tolerance {tol} in {max_iterations} iterations"
    )


def lovasz_theta(g: Graph, tol, max_iterations: int = 400_000) -> UpperBound:
    """Certified interval around the Lovász theta number of g.

    Returns [lo, hi] with hi - lo <= tol and theta in the interval; hi is a
    genuine capacity upper bound regardless of solver accuracy.
    """
    if g.n == 0:
        raise InputError("theta of the empty graph is undefined")
    if g.n > THETA_MAX_VERTICES:
        raise BudgetError(
            f"theta solver capped at {THETA_MAX_VERTICES} vertices, got {g.n}",
            reason="vertex budget",
        )
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError("tolerance must be positive")
    lo, hi = _theta_interval(g, tol, max_iterations)
    return UpperBound(KIND_THETA, lo, hi, tol)


# ---------------------------------------------------------------------------
# the two-sided sandwich


@dataclass
class BoundsReport:
    """Everything the capacity sandwich produced for one graph."""

    graph: Graph
    ladder: list[LadderValue]
    theta: UpperBound | None
    clique_cover: UpperBound | None
    lower: Fraction
    lower_real: creal.CReal | None
    upper: Fraction | None
    errors: list[str] = field(default_factory=list)

    def width(self) -> Fraction | None:
        if self.upper is None:
            return None
        return self.upper - self.lower


def sandwich(
    g: Graph,
    m_max: int,
    tol,
    node_budget: int | None = None,
    max_power_vertices: int | None = None,
    precision_bits: int = 48,
) -> BoundsReport:
    """Ladder lower bounds plus both upper bounds, with errors aggregated.

    Lower values come only from the independence ladder (never from the
    theta interval's low end, which bounds theta, not capacity).
    """
    tol = Fraction(tol)
    errors: list[str] = []
    try:
        steps = alpha_ladder(g, m_max, node_budget, max_power_vertices)
    except BudgetError as e:
        steps = list(e.partial or [])
        errors.append(f"ladder: {e}")
    theta_bound = None
    if g.n > 0:
        try:
            theta_bound = lovasz_theta(g, tol)
        except (BudgetError, ConvergenceError) as e:
            errors.append(f"theta: {e}")
    cover_bound = None
    try:
        cover_bound = fractional_clique_cover(g)
    except BudgetError as e:
        errors.append(f"clique cover: {e}")

    lower = Fraction(0)
    lower_real = None
    for step in steps:
        cand = step.root.lower_bound(precision_bits)
        if cand >= lower:
            lower = cand
            lower_real = step.root
    uppers = []
    if theta_bound is not None:
        uppers.append(theta_bound.hi)
    if cover_bound is not None:
        uppers.append(cover_bound.hi)
    upper = min(uppers) if uppers else None
    return BoundsReport(
        graph=g,
        ladder=steps,
        theta=theta_bound,
        clique_cover=cover_bound,
        lower=lower,
        lower_real=lower_real,
        upper=upper,
        errors=errors,
    )
