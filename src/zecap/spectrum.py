"""Certified upper bounds on graph Shannon capacity.

Two spectrum points are computed:

* Lovász theta, by one primal-dual interior-point solve per graph of the
  SDP pair  max <J,X> s.t. tr X = 1, X_uv = 0 on edges, X PSD  and  min t
  s.t. tI - A PSD, A = 1 on the diagonal and on non-edges.  Its float
  solution is only a proposal: both ends of the interval are proved once,
  in exact rational arithmetic, by positive-definiteness checks of a dual
  witness and of a primal feasible matrix.  The certified interval is
  cached per graph and each requested tolerance is checked against it.

* The fractional clique cover number, as the exact rational optimum of
  the covering LP over maximal cliques.  It is computed through the
  equal-value packing dual: a float simplex proposes an optimal basis, and
  its clique weights and fractional independent set are proved optimal by
  an integer duality check; the fraction-free Bland-rule simplex in
  integers runs only when that proof fails.

``BoundsReport`` is the capacity bracket: the independence ladder raises its
lower end, and these two bounds lower its upper end.  ``sandwich`` runs it on
a fixed plan; ``decide.squeeze_capacity`` on an adaptive one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import creal
from .alpha import LadderValue, PowerLadder, ladder as alpha_ladder
from .errors import BudgetError, ConvergenceError, InputError
from .exact import is_positive_definite, packing_optimum, simplex_max
from .graphs import Graph

THETA_MAX_VERTICES = 64
CHIF_MAX_VERTICES = 24
CHIF_MAX_CLIQUES = 10_000
_GRID_BITS = 40  # rational certificates live on a 2^-40 grid
_GRID = 1 << _GRID_BITS
_LOWER_BITS = 48  # the bracket reads ladder roots to within 2^-48 from below

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
    exact.packing_optimum proves the optimum from a float-proposed basis:
    integer clique weights pi and vertex weights y over a common D, both
    feasible and of equal sum.  simplex_max runs only when that proof fails.
    """
    if g.n == 0:
        return UpperBound(KIND_CLIQUE_COVER, Fraction(0), Fraction(0), Fraction(0))
    if g.n > max_vertices:
        raise BudgetError(
            f"clique cover capped at {max_vertices} vertices, got {g.n}",
            reason="vertex budget",
        )
    cliques = maximal_cliques(g, max_cliques)
    rows = [[cl >> v & 1 for v in range(g.n)] for cl in cliques]
    value = packing_optimum(rows)
    if value is None:
        value, _ = simplex_max([1] * g.n, rows, [1] * len(rows))
    return UpperBound(KIND_CLIQUE_COVER, value, value, Fraction(0))


# ---------------------------------------------------------------------------
# Lovász theta
#
# Both ends are proved on the 2^-40 grid: float entries x become the ints
# round(x * 2^40), and a diagonal shift s, in grid units too, is grown until
# base + s*I passes the exact positive-definiteness test.  That test proves
# each shifted matrix with a rounded float Cholesky factor and an exact
# integer residual; fraction-free elimination is only its fallback.


def _snap(x: float) -> int:
    return round(x * _GRID)


def _lift(base: list[list[int]], shifts, what: str) -> int:
    """The first s in shifts for which base + s*I is positive definite."""
    for s in shifts:
        if is_positive_definite(
            [[x + s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(base)]
        ):
            return s
    raise ConvergenceError(f"could not certify the {what}")


def _certify_upper(witness: np.ndarray, edge_list: list[tuple[int, int]]) -> Fraction:
    """Exact upper bound on lambda_max of a dual witness matrix A.

    A has ones on the diagonal and on non-edges; edge entries are free, so
    any such matrix bounds theta from above by its largest eigenvalue.  The
    edge entries are snapped to the grid and hi*I - A is certified positive
    definite, starting just above the float estimate of lambda_max.
    """
    n = len(witness)
    minus_a = [[-_GRID] * n for _ in range(n)]
    for u, v in edge_list:
        minus_a[u][v] = minus_a[v][u] = -_snap(float(witness[u, v]))
    lam = float(np.linalg.eigvalsh(witness)[-1])
    delta = max(1e-10, 1e-13 * n * float(np.abs(witness).max()))
    shifts = (math.ceil((lam + delta * 2**k) * _GRID) + 1 for k in range(48))
    return Fraction(_lift(minus_a, shifts, "dual witness"), _GRID)


def _certify_lower(x: np.ndarray, edge_list: list[tuple[int, int]]) -> Fraction:
    """Exact lower bound on theta from a primal feasible matrix.

    Snap the symmetrized iterate, its edge entries zero, to the grid as B
    and lift it by c*I until positive definite; normalized to trace 1,
    B + c*I is primal feasible, so <J, B + cI> / tr(B + cI) bounds theta.
    """
    s = 0.5 * (x + x.T)
    for u, v in edge_list:
        s[u, v] = s[v, u] = 0.0
    b = [[_snap(e) for e in row] for row in s.tolist()]
    # the smallest eigenvalue estimate guides the lift; the exact test proves it
    mu = float(np.linalg.eigvalsh(s)[0])
    c0 = math.ceil((max(0.0, -mu) + 2.0 ** -(_GRID_BITS - 8)) * _GRID) + 1
    lift = len(b) * _lift(b, (c0 << 2 * k for k in range(40)), "primal witness")
    return Fraction(sum(map(sum, b)) + lift, sum(row[i] for i, row in enumerate(b)) + lift)


def _theta_solve(n: int, erows: np.ndarray, ecols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior-point solve (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) of the
    theta SDP pair with constraints A_0 = I, A_uv = (E_uv + E_vu)/2.

    S = sum_i y_i A_i - J is rebuilt from y = (t, z) at every step, so the
    dual stays exactly feasible; the primal residual rides in the Newton
    system.  Steps run until the gap reaches machine precision or stalls;
    returns the dual witness tI - S and the primal X of the iterate whose
    certified interval promises to be narrowest.
    """
    b = np.concatenate(([1.0], np.zeros(len(erows))))  # tr X = 1, X_uv = 0
    jmat = np.ones((n, n))
    x = np.eye(n) / n
    y = b * (n + 1.0)
    uu, uv, vu, vv = (np.ix_(p, q) for p in (erows, ecols) for q in (erows, ecols))
    best, best_width, mu_prev = (x, y), math.inf, math.inf

    def adjoint(v: np.ndarray) -> np.ndarray:  # sum_i v_i A_i
        out = np.diag(np.full(n, v[0]))
        out[erows, ecols] = out[ecols, erows] = v[1:] / 2
        return out

    def apply(p: np.ndarray) -> np.ndarray:  # (<A_i, P>)_i
        return np.concatenate(([np.trace(p)], (p[erows, ecols] + p[ecols, erows]) / 2))

    def step_to_boundary(root_inv: np.ndarray, d: np.ndarray) -> float:
        lam = np.linalg.eigvalsh(root_inv @ d @ root_inv.T)[0]
        return 1.0 if lam >= 0 else min(1.0, -0.98 / lam)

    for _ in range(60):
        s = adjoint(y) - jmat
        rp = b - apply(x)
        mu = float(np.vdot(x, s)) / n
        try:
            w, v = np.linalg.eigh(s)
            if w[0] <= 0:
                break
            # float forecast of the interval _certify_lower and _certify_upper prove
            xs = x.copy()
            xs[erows, ecols] = xs[ecols, erows] = 0.0
            lift = n * (max(0.0, -np.linalg.eigvalsh(xs)[0]) + 2.0 ** -(_GRID_BITS - 8))
            width = y[0] - (xs.sum() + lift) / (np.trace(xs) + lift)
            if width < best_width:
                best, best_width = (x, y), width
            scale = 1 + abs(y[0])
            if mu < 1e-15 * scale and np.abs(rp).max() < 1e-13:
                break  # converged
            if mu < 1e-10 * scale and mu > mu_prev / 2:
                break  # stalled: rounding now outweighs the Newton step
            mu_prev = mu
            winv = (v / w) @ v.T
            s_root_inv = (v / np.sqrt(w)) @ v.T
            x_root_inv = np.linalg.inv(np.linalg.cholesky(x))
            # Schur complement M_ij = <A_i X A_j, S^-1>, gathered by edge index
            xw = x @ winv
            schur = np.empty((len(b), len(b)))
            schur[0, 0] = np.trace(xw)
            schur[0, 1:] = schur[1:, 0] = apply(xw)[1:]
            ee = x[vu] * winv[uv]
            ee += ee.T
            ee += x[vv] * winv[uu]
            ee += x[uu] * winv[vv]
            schur[1:, 1:] = ee / 4

            def direction(rc_w: np.ndarray):
                dy = np.linalg.solve(schur, apply(rc_w) - rp)
                ds = adjoint(dy)
                dx = rc_w - x @ ds @ winv
                return (dx + dx.T) / 2, dy, ds

            dx, dy, ds = direction(-x)
            gap = np.vdot(x + step_to_boundary(x_root_inv, dx) * dx,
                          s + step_to_boundary(s_root_inv, ds) * ds) / n
            sigma = min(1.0, max(float(gap), 0.0) / mu) ** 3
            dx, dy, ds = direction(sigma * mu * winv - x - dx @ ds @ winv)
            ap = step_to_boundary(x_root_inv, dx)
            ad = step_to_boundary(s_root_inv, ds)
        except np.linalg.LinAlgError:
            break
        x = x + ap * dx
        y = y + ad * dy
    x, y = best
    return y[0] * np.eye(n) - adjoint(y) + jmat, x


@functools.lru_cache(maxsize=512)
def _theta_interval(g: Graph) -> tuple[Fraction, Fraction]:
    edge_list = g.edges()
    witness, x = _theta_solve(g.n, *np.array(edge_list, dtype=int).reshape(-1, 2).T)
    return _certify_lower(x, edge_list), _certify_upper(witness, edge_list)


def lovasz_theta(g: Graph, tol) -> UpperBound:
    """Certified interval around the Lovász theta number of g.

    One interior-point solve per graph proposes a primal and a dual
    matrix; both ends are proved exactly, once, and that interval is
    cached and checked against every tol.  Returns [lo, hi] with
    hi - lo <= tol and theta in the interval; hi is a genuine capacity
    upper bound regardless of solver accuracy.  Raises ConvergenceError
    when the certified interval is wider than tol, as it always is for tol
    below about n * 2^-32 * (theta - 1).
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
    lo, hi = _theta_interval(g)
    if hi - lo > tol:
        raise ConvergenceError(
            f"certified theta interval has width {float(hi - lo):.3g}, above tolerance {tol}"
        )
    return UpperBound(KIND_THETA, lo, hi, tol)


# ---------------------------------------------------------------------------
# the capacity bracket


@dataclass
class BoundsReport:
    """A certified capacity bracket [lower, upper] of one graph, refined in place.

    ``lower`` comes only from the independence ladder (never from the theta
    interval's low end, which bounds theta, not capacity); ``upper`` is the
    least of the certified theta and clique-cover bounds, None before either
    is found.  Each refinement only ever narrows the bracket.  A refinement
    stopped by a budget or by the theta solver leaves the bracket as it was
    and records the stop under ``errors``; any other exception propagates.
    """

    powers: PowerLadder
    ladder: list[LadderValue] = field(default_factory=list)
    theta: UpperBound | None = None
    clique_cover: UpperBound | None = None
    lower: Fraction = Fraction(0)
    lower_real: creal.CReal | None = None
    upper: Fraction | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def graph(self) -> Graph:
        return self.powers.graph

    def width(self) -> Fraction | None:
        return None if self.upper is None else self.upper - self.lower

    def capped_upper(self) -> Fraction:
        """upper capped at the vertex count, itself a capacity upper bound."""
        n = Fraction(self.graph.n)
        return n if self.upper is None else min(self.upper, n)

    def add_ladder(self, m: int, node_budget: int | None = None, bits: int = _LOWER_BITS) -> None:
        """Raise lower to the best ladder root up to level m, read to within
        2^-bits from below; node_budget is the ladder's shared pool."""
        try:
            steps = alpha_ladder(self.powers, m, node_budget)
        except BudgetError as e:
            steps = e.partial
            self.errors.append(f"ladder: {e}")
        for step in steps[len(self.ladder):]:
            cand = step.root.lower_bound(bits)
            if cand >= self.lower:
                self.lower, self.lower_real = cand, step.root
        self.ladder = max(self.ladder, steps, key=len)

    def add_theta(self, tol) -> None:
        """Lower upper to the certified theta bound at tolerance tol."""
        if self.graph.n == 0:
            return  # theta is undefined; the clique cover gives 0
        try:
            self.theta = lovasz_theta(self.graph, tol)
        except (BudgetError, ConvergenceError) as e:
            self.errors.append(f"theta: {e}")
            return
        self._lower_upper(self.theta.hi)

    def add_cover(self) -> None:
        """Lower upper to the exact fractional clique cover number."""
        try:
            self.clique_cover = fractional_clique_cover(self.graph)
        except (BudgetError, ConvergenceError) as e:
            self.errors.append(f"clique cover: {e}")
            return
        self._lower_upper(self.clique_cover.hi)

    def _lower_upper(self, bound: Fraction) -> None:
        self.upper = bound if self.upper is None else min(self.upper, bound)


def sandwich(
    g: Graph,
    m_max: int,
    tol,
    node_budget: int | None = None,
    max_power_vertices: int | None = None,
) -> BoundsReport:
    """The fixed plan: ladder levels 0..m_max, then theta, then the clique cover."""
    report = BoundsReport(PowerLadder(g, max_power_vertices))
    report.add_ladder(m_max, node_budget)
    report.add_theta(tol)
    report.add_cover()
    return report
