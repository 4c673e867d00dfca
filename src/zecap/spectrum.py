"""Certified upper bounds on graph Shannon capacity.

Two spectrum points are computed, Lovász theta and the fractional clique
cover number chi_f-bar, each by one fold over ``Graph.recipe``: both
multiply over strong products, add over disjoint unions and take the
larger side over a join, the complement of a union of complements
(Zuiddam 2019).

* Lovász theta is closed-form at any precision on the named leaves: exact
  on complete and edgeless graphs and even cycles, an integer enclosure of
  n cos(pi/n) / (1 + cos(pi/n)) on odd cycles, and n / theta on their
  complements.  It multiplies over the complement of a product too.

* chi_f-bar is exact on the named leaves: n/2 on C_n for n >= 4 and
  n / alpha on the complement of a named leaf.

A complement with no closed form is taken whole, as a literal leaf (a graph
built from an index, a bit string, an edge list or a channel) is, and these
are the one place where a solver runs (``_literal``); for theta that is
only the complement of a literal.  Each gets the integer k exactly where a
greedy independent set and a greedy partition into cliques both have size
k (``alpha.greedy_bounds``): the sandwich alpha <= theta <= chi_f-bar <=
chi-bar (Lovász 1979) pins both points to k.  Otherwise theta is one
primal-dual interior-point solve of the SDP pair
max <J,X> s.t. tr X = 1, X_uv = 0 on edges, X PSD  and  min t s.t.
tI - A PSD, A = 1 on the diagonal and on non-edges, on at most
THETA_MAX_VERTICES vertices.  Its float solution is only a proposal: both
ends of the interval are proved once, in exact rational arithmetic, by
positive-definiteness checks of a dual witness and of a primal feasible
matrix.  chi_f-bar is the exact rational optimum of the covering LP over
maximal cliques, on at most CHIF_MAX_VERTICES vertices, computed through the
equal-value packing dual: a float simplex proposes an optimal basis, and its
clique weights and fractional independent set are proved optimal by an
integer duality check; the fraction-free Bland-rule simplex in integers runs
only when that proof fails.  Each literal leaf's graph, greedy bounds and
solver interval, and theta's leaf intervals, are kept by recipe node in the
table the call's graph holds (``Graph.values``): each is found once per call.

``BoundsReport`` is the capacity bracket: the independence ladder raises its
lower end, and these two bounds lower its upper end.  Its one plan,
``BoundsReport.refine``, runs to the end in ``sandwich`` and to a target width
or round budget in ``decide.squeeze_capacity``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import creal
from .alpha import LadderValue, PowerLadder, check_level, greedy_bounds, ladder as alpha_ladder
from .errors import BudgetError, ConvergenceError, InputError
from .exact import is_positive_definite, packing_optimum, simplex_max
from .graphs import Graph, co_recipe, once, recipe_graph, recipe_vertices, require_fits

THETA_MAX_VERTICES = 64
CHIF_MAX_VERTICES = 24
CHIF_MAX_CLIQUES = 10_000
_GRID_BITS = 40  # rational certificates live on a 2^-40 grid
_GRID = 1 << _GRID_BITS
_LOWER_BITS = 48  # the bracket reads ladder roots to within 2^-48 from below
_CLOSED_MIN_BITS = 64  # closed-form theta of recipe graphs starts on a 2^-64 grid

KIND_THETA = "lovasz_theta"
KIND_CLIQUE_COVER = "fractional_clique_cover"


@dataclass
class UpperBound:
    """A certified capacity upper bound: the truth lies in [lo, hi]."""

    kind: str
    lo: Fraction
    hi: Fraction
    tolerance: Fraction


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
                    f"more than {cap} maximal cliques", used=len(out), reason="clique budget"
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


def fractional_clique_cover(g: Graph) -> UpperBound:
    """Exact fractional clique cover number.

    Value of  min sum x_C  s.t. every vertex is covered with weight >= 1,
    x >= 0, over maximal cliques.  It is folded over g's recipe
    (``_chif_leaf``), at any size; only a literal leaf, or a complement
    with no closed form, goes to ``_literal``, once per g.values: the
    greedy sandwich, else the LP on that leaf's at most CHIF_MAX_VERTICES
    vertices (else BudgetError).  The LP is solved as the equal-value
    packing dual  max sum y_v  s.t. sum_{v in C} y_v <= 1 per maximal
    clique, which has a feasible slack start.  Strong LP duality makes the
    optima equal.  exact.packing_optimum proves the optimum from a
    float-proposed basis: integer clique weights pi and vertex weights y
    over a common D, both feasible and of equal sum.  simplex_max runs only when that proof fails.
    """
    lo, hi = _fold(g.recipe, functools.partial(_chif_leaf, values=g.values))
    return UpperBound(KIND_CLIQUE_COVER, lo, hi, Fraction(0))


def _clique_lp(g: Graph) -> tuple[Fraction, Fraction]:
    """chi_f-bar of g by the packing LP over its maximal cliques."""
    cliques = maximal_cliques(g)
    rows = [[cl >> v & 1 for v in range(g.n)] for cl in cliques]
    value = packing_optimum(rows)
    if value is None:
        value, _ = simplex_max([1] * g.n, rows, [1] * len(rows))
    return value, value


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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def _sdp_interval(g: Graph) -> tuple[Fraction, Fraction]:
    """The certified interval of one interior-point solve on g."""
    import numpy as np

    edge_list = g.edges()
    witness, x = _theta_solve(g.n, *np.array(edge_list, dtype=int).reshape(-1, 2).T)
    return _certify_lower(x, edge_list), _certify_upper(witness, edge_list)


# ---------------------------------------------------------------------------
# theta and chi_f-bar folded over the recipe
#
# theta composes over the recipe with no SDP (Lovász 1979): theta(C_n) =
# n cos(pi/n) / (1 + cos(pi/n)) for odd n (Corollary 5), theta(G x H) =
# theta(G) theta(H) (Theorem 7), and theta(co G) = n / theta(G) on the
# named leaves, all vertex-transitive (Theorem 8).  theta adds over + and
# multiplies over the co-normal product co G * co H = co(G x H) (Knuth, The
# Sandwich Theorem, 1994).  The complement of a union is the join of its
# terms' complements, and on a join both points take the larger side: every
# pair across it is adjacent, so the sides' representations or clique
# covers combine freely.  The odd-cycle value is enclosed in Python ints at
# w = p + guard bits, each end rounded away from theta.  chi_f-bar composes
# over x and + alike (Scheinerman and Ullman, Fractional Graph Theory, 1997,
# ch. 3), not over co-normal products; on co K, co E, co C it is n / alpha.


def _arctan_inv(x: int, w: int) -> tuple[int, int]:
    """2^w * arctan(1/x) for x >= 2, and a bound on its error.

    Each term floor(2^w / ((2k+1) x^(2k+1))) is exact to below 1, and the
    alternating tail after the last nonzero one is below 1 as well."""
    total, power, k = 0, (1 << w) // x, 0
    while power:
        total += (-1) ** k * (power // (2 * k + 1))
        power //= x * x
        k += 1
    return total, k + 1


def _cos_bounds(t_lo: int, t_hi: int, w: int) -> tuple[int, int]:
    """Ints lo <= 2^w cos(t) <= hi for every t in [t_lo, t_hi] / 2^w, 0 < t < 1.

    Terms 2^w t^(2k) / (2k)! are enclosed from t_lo below and t_hi above; they
    fall with k, so the Taylor series stopped after a subtracted term is a
    lower bound, and one term before that an upper bound."""
    sq_lo, sq_hi = t_lo * t_lo >> w, -(-t_hi * t_hi >> w)  # 2^w t^2, rounded outward
    term_lo = term_hi = lo = hi = 1 << w
    k = 0
    while k % 2 == 0 or term_hi > 1:
        k += 1
        term_lo = (term_lo * sq_lo >> w) // ((2 * k - 1) * 2 * k)
        term_hi = -((-term_hi * sq_hi >> w) // ((2 * k - 1) * 2 * k))
        if k % 2:
            lo, hi = lo - term_hi, hi - term_lo
        else:
            lo, hi = lo + term_lo, hi + term_hi
    return lo, hi + term_lo


def _odd_cycle_theta(n: int, p: int) -> tuple[Fraction, Fraction]:
    """theta(C_n), odd n >= 5, on the 2^-p grid; pi is Machin's formula."""
    w = p + p.bit_length() + n.bit_length() + 16
    (a, ea), (b, eb) = _arctan_inv(5, w), _arctan_inv(239, w)
    pi, err = 16 * a - 4 * b, 16 * ea + 4 * eb
    c_lo, c_hi = _cos_bounds((pi - err) // n, -(-(pi + err) // n), w)
    one = 1 << w
    # n c / (1 + c) rises with c
    return (Fraction((n * c_lo << p) // (one + c_lo), 1 << p),
            Fraction(-(-(n * c_hi << p) // (one + c_hi)), 1 << p))


# how each point combines its operands' values; an empty join is empty
_COMBINE = {"+": sum, "x": math.prod, "join": functools.partial(max, default=Fraction(0))}


def _fold(d, leaf):
    """One spectrum point's interval on the graph with recipe d.

    Every point of the asymptotic spectrum adds over +, multiplies over x
    and takes the larger side over a join co(co G + co H) (Zuiddam 2019);
    leaf(kind, arg) gives it on leaves and on every other complement."""
    kind, arg = d
    if kind == "co" and arg[0] == "+":
        kind, arg = "join", [co_recipe(term) for term in arg[1]]
    if kind not in _COMBINE:
        return leaf(kind, arg)
    parts = [_fold(term, leaf) for term in arg]
    combine = _COMBINE[kind]
    return combine(lo for lo, _ in parts), combine(hi for _, hi in parts)


def _literal(d, what: str, cap: int, solve, values: dict) -> tuple[Fraction, Fraction]:
    """A spectrum point's interval on the graph with recipe d, taken whole.

    The graph takes at most cap vertices (else ``require_fits``'s stop, with
    what naming the solver), checked before it is built.  Where
    alpha.greedy_bounds meets at k, an independent set and a partition into
    cliques of the same size k pin the point to k; otherwise solve(g) gives
    it.  The graph, its greedy bounds and solve's interval are kept in
    values under d, so each is found once per table."""
    require_fits(what, recipe_vertices(d), cap)
    graph = functools.partial(once, values, (d, "graph"), functools.partial(recipe_graph, d))
    k, cover = once(values, (d, "greedy"), lambda: greedy_bounds(graph()))
    if k == cover:  # the sandwich closes: alpha = theta = chi_f-bar = k
        return Fraction(k), Fraction(k)
    return once(values, (d, what), lambda: solve(graph()))


def _theta_closed(d, p: int, values: dict) -> tuple[Fraction, Fraction]:
    """theta's interval at p bits for recipe d, co over x read as a co-normal
    product; each leaf's is kept in values under (leaf, p)."""
    def leaf(kind, arg):
        return once(values, ((kind, arg), p), lambda: closed(kind, arg))

    def closed(kind, arg):
        if kind == "co" and arg[0] == "x":  # the product of the factors' complements
            return _fold(("x", tuple(map(co_recipe, arg[1]))), leaf)
        if kind == "co" and arg[0] != "G" and arg[1]:  # n / theta on K, E, C; empty, a literal's 0
            lo, hi = leaf(*arg)
            return arg[1] / hi, arg[1] / lo
        if kind in ("G", "co"):
            return _literal((kind, arg), "theta solver", THETA_MAX_VERTICES, _sdp_interval, values)
        if kind == "C" and arg >= 5 and arg % 2:
            return _odd_cycle_theta(arg, p)
        return _chif_leaf(kind, arg, values)  # K_n, E_n and the other cycles are perfect

    return _fold(d, leaf)


def _chif_leaf(kind: str, arg, values: dict) -> tuple[Fraction, Fraction]:
    """chi_f-bar of a leaf or a complement: closed on the named leaves and
    on their complements, where it is the leaf's n / alpha; any other
    complement is taken whole, as a literal leaf is."""
    if kind == "C" and arg >= 4:
        value = Fraction(arg, 2)
    elif kind in ("K", "E", "C"):
        value = Fraction({"K": min(arg, 1), "E": arg, "C": 1}[kind])
    elif kind == "co" and arg[0] in ("K", "E", "C"):
        kind, n = arg
        value = Fraction(n, max({"K": 1, "E": n, "C": n // 2}[kind], 1))
    else:
        return _literal((kind, arg), "clique cover", CHIF_MAX_VERTICES, _clique_lp, values)
    return value, value


def _theta_interval(d, tol: Fraction, values: dict | None = None) -> tuple[Fraction, Fraction]:
    """Certified theta interval of the graph with recipe d, at most tol wide
    unless a literal leaf's SDP interval keeps it wider.

    p starts at 64 bits, so a closed form is never wider than an SDP's, and
    rises until the interval fits.  Each raise adds at least 2 bits, which
    shrinks the closed-form parts 4x (2x where an end's rounding straddles
    a grid point), while an SDP leaf's width is fixed; so p stops rising
    once a raise leaves more than 3/4 of the width."""
    values = {} if values is None else values
    p = _CLOSED_MIN_BITS
    lo, hi = _theta_closed(d, p, values)
    while hi - lo > tol:
        width = hi - lo
        excess = width / tol
        p += excess.numerator.bit_length() - excess.denominator.bit_length() + 2
        lo, hi = _theta_closed(d, p, values)
        if 4 * (hi - lo) > 3 * width:
            break
    return lo, hi


def lovasz_theta(g: Graph, tol) -> UpperBound:
    """Certified interval around the Lovász theta number of g.

    theta is folded over g's recipe (``_theta_closed``): closed forms on the
    named leaves, their complements, joins and complements of products, at
    any tol and any size, and on a literal leaf or its complement the
    greedy sandwich, where it meets at k, else one interior-point solve on
    at most THETA_MAX_VERTICES vertices (else BudgetError).  Both ends of
    its interval are proved exactly, once per table (``Graph.values``),
    and checked against every tol.  Returns [lo, hi] with hi - lo <= tol
    and theta in the interval; hi is a genuine capacity upper bound
    regardless of solver accuracy.  When a literal leaf's certified
    interval keeps the result wider than tol, as it does for tol below
    about n * 2^-32 * (theta - 1), ConvergenceError is raised; it carries
    the interval, still certified, as its ``partial``.
    """
    if g.n == 0:
        raise InputError("theta of the empty graph is undefined")
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError("tolerance must be positive")
    lo, hi = _theta_interval(g.recipe, tol, g.values)
    if hi - lo > tol:
        raise ConvergenceError(
            f"certified theta interval has width {float(hi - lo):.3g}, above tolerance {tol}",
            partial=UpperBound(KIND_THETA, lo, hi, tol),
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
    is found.  Each refinement only ever narrows the bracket.  A stop of a
    budget or of the theta solver is recorded under ``stops`` as a (name,
    exception) pair, and any certified bound it carries is kept; any other
    exception propagates.  ``errors`` renders the stops as "name: message".
    """

    powers: PowerLadder
    ladder: list[LadderValue] = field(default_factory=list)
    theta: UpperBound | None = None
    clique_cover: UpperBound | None = None
    lower: Fraction = Fraction(0)
    lower_real: creal.CReal | None = None
    upper: Fraction | None = None
    stops: list[tuple[str, BudgetError | ConvergenceError]] = field(default_factory=list)

    @property
    def graph(self) -> Graph:
        return self.powers.graph

    @property
    def errors(self) -> list[str]:
        return [f"{name}: {e}" for name, e in self.stops]

    def width(self) -> Fraction | None:
        return None if self.upper is None else self.upper - self.lower

    def capped_upper(self) -> Fraction:
        """upper capped at the vertex count, itself a capacity upper bound."""
        n = Fraction(self.graph.n)
        return n if self.upper is None else min(self.upper, n)

    def refine(self, top: int, tol, node_budget: int | None = None, rounds: int | None = None,
               target: Fraction | None = None) -> int:
        """Run the plan: ladder level 0, the clique cover, theta at tol, then
        ladder levels 1..top, none after a level that stopped.  Levels share
        node_budget and are read to 2^-48, or to 2^-(k + 4) under a target
        2^-k.  Ends early after ``rounds`` refinements or once capped_upper()
        - lower < target; returns the number of refinements run."""
        check_level(top)
        bits = _LOWER_BITS
        if target is not None:  # 2^(bits - 4) <= 1 / target < 2^(bits - 3)
            bits = (target.denominator // target.numerator).bit_length() + 3
        used = 0
        plan = (0, self.add_cover, functools.partial(self.add_theta, tol))  # ints are ladder levels
        for step in itertools.chain(plan, range(1, top + 1)):
            if used == rounds or target is not None and self.capped_upper() - self.lower < target:
                break
            if callable(step):
                step()
            elif len(self.ladder) < step:
                break  # a lower level stopped, and only ladder levels are left
            else:
                self.add_ladder(step, node_budget, bits)
            used += 1
        return used

    def add_ladder(self, m: int, node_budget: int | None = None, bits: int = _LOWER_BITS) -> None:
        """Raise lower to the best ladder root up to level m, read to within
        2^-bits from below; node_budget is the ladder's shared pool."""
        try:
            steps = alpha_ladder(self.powers, m, node_budget, self.ladder)
        except BudgetError as e:
            steps = e.partial
            self.stops.append(("ladder", e))
        for step in steps[len(self.ladder):]:
            cand = step.root.lower_bound(bits)
            if cand >= self.lower:
                self.lower, self.lower_real = cand, step.root
        self.ladder = max(self.ladder, steps, key=len)

    def add_theta(self, tol) -> None:
        """Lower upper to the certified theta bound at tolerance tol."""
        if self.graph.n > 0:  # theta is undefined on the empty graph; the clique cover gives 0
            self.theta = self._add_upper("theta", lovasz_theta, tol) or self.theta

    def add_cover(self) -> None:
        """Lower upper to the exact fractional clique cover number."""
        cover = self._add_upper("clique cover", fractional_clique_cover)
        self.clique_cover = cover or self.clique_cover

    def _add_upper(self, name: str, bound, *args) -> UpperBound | None:
        """bound(graph, *args), or the bound its recorded stop carries; upper drops to its hi."""
        try:
            found = bound(self.graph, *args)
        except (BudgetError, ConvergenceError) as e:
            self.stops.append((name, e))
            found = e.partial
        if found is not None:
            self.upper = found.hi if self.upper is None else min(self.upper, found.hi)
        return found


def sandwich(g: Graph, m_max: int, tol, node_budget: int | None = None,
             max_power_vertices: int | None = None) -> BoundsReport:
    """The bracket after the whole plan, up to ladder level m_max."""
    report = BoundsReport(PowerLadder(g, max_power_vertices))
    report.refine(m_max, tol, node_budget)
    return report
