"""Budgeted semi-decision machinery for capacity threshold questions.

The primitive is one level test, ``_level_test``: level k compares the
exact integer alpha(g^(2^k)) against threshold approximants, firing
exactly when

    alpha(g^(2^k)) - r(n)^(2^k)  >  L_k * 2^-n

with L_k = 2^k * (|r(1)| + 1)^(2^k - 1), a certified Lipschitz constant for
t -> t^(2^k) on the interval the approximants can reach.  A firing is an
exact rational certificate that the capacity exceeds the threshold; the
test never fires when it does not.  The comparison runs in integers, and
the rational sides are built only when it fires.  Certificates are
re-checked by the same function.

The alpha values come from one per-graph level store, ``_LevelStore``:
each level is found at most once and a level that cannot be found keeps
its stall reason.  A level is solved cold on its strong power with the
full per-solve node budget, unless an earlier level met the clique-cover
bound alpha(g^(2^j)) = c^(2^j); that closes every later level at c^(2^k)
with no power built and no search (Shannon 1956; see ``alpha.ladder``).
The dovetail, the single-level run and the enumeration all read from it;
the enumeration shares one store among isomorphic graphs.

Levels are dovetailed on a triangular schedule (stage t runs one step of
each of levels 0..t-1), so every level gets unbounded attention if the
budget allows.  Everything is budgeted: dovetail steps, branch-and-bound
nodes per alpha solve, and strong-power vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import creal
from .alpha import greedy_clique_cover, ladder as alpha_ladder, solve_alpha
from .errors import BudgetError, ConvergenceError, InputError
from .graphs import (
    ISO_MAX_VERTICES,
    Graph,
    decode,
    encode,
    is_isomorphic,
    power_fits,
    strong_power,
)
from .spectrum import fractional_clique_cover, lovasz_theta, sandwich

HALTED = "Halted"
BUDGET_EXHAUSTED = "BudgetExhausted"
VALUE = "Value"

DEFAULT_POWER_CAP = 512
DEFAULT_NODE_BUDGET = 20_000
DEFAULT_LEVEL_CAP = 6  # 2^6-th powers of approximants stay cheap
ENUM_POWER_CAP = 256


def lipschitz_constant(lam: creal.CReal, k: int) -> Fraction:
    """Certified |t^(2^k)| slope bound around the threshold approximants."""
    r1 = abs(lam.approx(1))
    return (1 << k) * (r1 + 1) ** ((1 << k) - 1)


def _level_test(
    alpha_power: int, lam: creal.CReal, k: int, n: int, slope: Fraction | None = None
) -> tuple[Fraction, Fraction] | None:
    """The sides (lhs, rhs) of the level-k test at precision n if it fires.

    slope is ``lipschitz_constant(lam, k)``, which callers that test one
    level many times pass in.  The comparison runs on integers: with
    r(n) = p/q and e = 2^k, lhs > rhs exactly when
    (alpha q^e - p^e) 2^n den(slope) > num(slope) q^e.
    """
    if slope is None:
        slope = lipschitz_constant(lam, k)
    r = lam.approx(n)
    e = 1 << k
    q_e = r.denominator**e
    gap = alpha_power * q_e - r.numerator**e  # lhs * q^e
    if (gap * slope.denominator) << n <= slope.numerator * q_e:
        return None
    return Fraction(gap, q_e), Fraction(slope, 1 << n)


@dataclass
class Certificate:
    """Exact arithmetic witnessing capacity > threshold at one level."""

    graph_index: int
    lambda_expr: str
    level: int
    precision: int
    alpha_power: int
    lhs: Fraction
    rhs: Fraction

    def verify(self, lam: creal.CReal) -> bool:
        sides = _level_test(self.alpha_power, lam, self.level, self.precision)
        return sides == (self.lhs, self.rhs)


@dataclass
class DecisionOutcome:
    status: str
    certificate: Certificate | None
    progress: dict[int, dict]
    steps_used: int
    log: list[tuple[int, int, int]] = field(default_factory=list)


class _LevelStore:
    """alpha(g^(2^k)) for the levels k of one graph, each found at most once.

    A level is solved cold on its strong power with the full per-solve node
    budget, unless an earlier solved level j met the clique-cover bound
    alpha(g^(2^j)) = c^(2^j) of a greedy partition of g into c cliques
    (``greedy_clique_cover``).  That closes every level k > j at c^(2^k)
    (see ``alpha.ladder``) with no power built and no search, so such a
    level reports 0 nodes.  The level cap and the vertex budget stall a
    level first, closed or not.
    """

    __slots__ = (
        "graph", "node_budget", "power_cap", "level_cap", "top", "alpha", "nodes", "stalled",
        "cover", "closed_above",
    )

    def __init__(self, g: Graph, node_budget: int | None, power_cap: int, level_cap: int):
        self.graph = g
        self.node_budget = node_budget
        self.power_cap = power_cap
        self.level_cap = level_cap
        self.alpha: dict[int, int] = {}
        self.nodes: dict[int, int] = {}
        self.stalled: dict[int, str] = {}  # level cap / vertex budget / node budget
        self.cover = greedy_clique_cover(g)
        self.closed_above: int | None = None  # the first solved level at its bound
        top = 0  # the highest level that fits, or 0
        while top + 1 <= level_cap and power_fits(g.n, 1 << (top + 1), power_cap):
            top += 1
        self.top = top

    def solve(self, level: int) -> int | None:
        """alpha at this level, or None once the level has stalled."""
        if level not in self.alpha and level not in self.stalled:
            if level > self.level_cap:
                self.stalled[level] = "level cap"
            elif not power_fits(self.graph.n, 1 << level, self.power_cap):
                self.stalled[level] = "vertex budget"
            elif self.closed_above is not None and level > self.closed_above:
                self.alpha[level] = self.cover ** (1 << level)
                self.nodes[level] = 0
            else:
                try:
                    power = strong_power(self.graph, 1 << level, self.power_cap)
                    witness, self.nodes[level] = solve_alpha(power, self.node_budget)
                    self.alpha[level] = witness.size
                    if self.closed_above is None and witness.size == self.cover ** (1 << level):
                        self.closed_above = level
                except BudgetError as e:
                    self.stalled[level] = str(e.reason)
                    self.nodes[level] = e.used or 0
        return self.alpha.get(level)


class _LevelRun:
    """Precision counter of one level inside the dovetail."""

    __slots__ = ("level", "next_n", "slope")

    def __init__(self, level: int):
        self.level = level
        self.next_n = 1
        self.slope: Fraction | None = None  # set at the first test, once alpha is known

    def step(self, store: _LevelStore, lam: creal.CReal, expr: str) -> Certificate | None:
        alpha_value = store.solve(self.level)
        if alpha_value is None:
            return None
        if self.slope is None:
            self.slope = lipschitz_constant(lam, self.level)
        n = self.next_n
        self.next_n += 1
        sides = _level_test(alpha_value, lam, self.level, n, self.slope)
        if sides is None:
            return None
        return Certificate(encode(store.graph), expr, self.level, n, alpha_value, *sides)

    def describe(self, store: _LevelStore) -> dict:
        return {
            "alpha": store.alpha.get(self.level),
            "last_precision": self.next_n - 1,
            "stalled": store.stalled.get(self.level),
            "nodes_used": store.nodes.get(self.level, 0),
        }


def semidecide_level(
    g: Graph,
    lam: creal.CReal,
    level: int,
    step_budget: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    power_cap: int = DEFAULT_POWER_CAP,
    level_cap: int = DEFAULT_LEVEL_CAP,
    lambda_expr: str = "",
) -> DecisionOutcome:
    """Run a single level for up to step_budget precision steps."""
    if level < 0:
        raise InputError("level must be nonnegative")
    if step_budget < 1:
        raise InputError("step budget must be positive")
    store = _LevelStore(g, node_budget, power_cap, level_cap)
    run = _LevelRun(level)
    expr = lambda_expr or lam.description
    for step in range(1, step_budget + 1):
        cert = run.step(store, lam, expr)
        if cert is not None or level in store.stalled:
            break
    status = BUDGET_EXHAUSTED if cert is None else HALTED
    return DecisionOutcome(status, cert, {level: run.describe(store)}, step)


def semidecide_gt(
    g: Graph,
    lam: creal.CReal,
    budget: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    power_cap: int = DEFAULT_POWER_CAP,
    level_cap: int = DEFAULT_LEVEL_CAP,
    lambda_expr: str = "",
) -> DecisionOutcome:
    """Dovetail all levels; Halted certifies capacity(g) > threshold.

    budget counts dovetail steps (one scheduled level-step each).  The
    triangular schedule guarantees that after t stages level k has run
    t - k steps, so no level starves.
    """
    if budget < 1:
        raise InputError("budget must be positive")
    expr = lambda_expr or lam.description
    store = _LevelStore(g, node_budget, power_cap, level_cap)
    runs: list[_LevelRun] = []
    steps_used = 0
    log: list[tuple[int, int, int]] = []
    stage = 0
    while steps_used < budget:
        stage += 1
        runs.append(_LevelRun(stage - 1))
        for run in runs[:stage]:
            if steps_used >= budget:
                break
            steps_used += 1
            cert = run.step(store, lam, expr)
            log.append((stage, run.level, run.next_n - 1))
            if cert is not None:
                progress = {r.level: r.describe(store) for r in runs}
                return DecisionOutcome(HALTED, cert, progress, steps_used, log)
    progress = {r.level: r.describe(store) for r in runs}
    return DecisionOutcome(BUDGET_EXHAUSTED, None, progress, steps_used, log)


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class EmittedGraph:
    slot: int  # position in the underlying graph schedule (1-based)
    graph_index: int
    certificate: Certificate


@dataclass
class EnumerationState:
    stage: int
    pending: list[int]  # schedule slots still undecided (1-based)
    emitted: list[EmittedGraph]

    def emitted_indices(self) -> list[int]:
        return [e.graph_index for e in self.emitted]


def enumerate_gt(
    lam: creal.CReal,
    graph_horizon: int,
    stage_budget: int,
    power_cap: int = ENUM_POWER_CAP,
    node_budget: int | None = 200_000,
    level_cap: int = DEFAULT_LEVEL_CAP,
    lambda_expr: str = "",
) -> EnumerationState:
    """Staged enumeration of graphs whose capacity exceeds the threshold.

    Stage k admits the k-th graph of the numbering (slot k holds index
    k-1) and gives every pending slot j one test at level min(k-j+1, cap)
    and precision k-j+1, stepping down past levels whose solve stalled.
    A graph is emitted, with its certificate, the first time a test fires;
    graphs needing levels beyond the vertex budget simply stay pending.

    Slots holding isomorphic graphs on at most ``ISO_MAX_VERTICES``
    vertices share one level store, so each level of an isomorphism class
    is solved once; alpha of a power does not depend on the labels.  Each
    slot still runs its own tests at its own precision.
    """
    if graph_horizon < 0:
        raise InputError("graph horizon must be nonnegative")
    if stage_budget < 0:
        raise InputError("stage budget must be nonnegative")
    expr = lambda_expr or lam.description
    classes: dict[tuple, list[_LevelStore]] = {}  # keyed by sorted degrees

    def store_of(g: Graph) -> _LevelStore:
        if g.n > ISO_MAX_VERTICES:
            return _LevelStore(g, node_budget, power_cap, level_cap)
        bucket = classes.setdefault(tuple(sorted(m.bit_count() for m in g.masks)), [])
        for store in bucket:
            if is_isomorphic(store.graph, g):
                return store
        bucket.append(_LevelStore(g, node_budget, power_cap, level_cap))
        return bucket[-1]

    slopes: dict[int, Fraction] = {}  # lipschitz_constant(lam, level)
    pending: dict[int, _LevelStore] = {}
    emitted: list[EmittedGraph] = []
    stage = 0
    for stage in range(1, stage_budget + 1):
        if stage <= graph_horizon:
            pending[stage] = store_of(decode(stage - 1))
        for slot in sorted(pending):
            store = pending[slot]
            age = stage - slot + 1
            level = min(age, store.top)
            while level > 0 and level in store.stalled:
                level -= 1
            alpha_value = store.solve(level)
            if alpha_value is None:
                continue
            if level not in slopes:
                slopes[level] = lipschitz_constant(lam, level)
            sides = _level_test(alpha_value, lam, level, age, slopes[level])
            if sides is not None:
                cert = Certificate(slot - 1, expr, level, age, alpha_value, *sides)
                emitted.append(EmittedGraph(slot=slot, graph_index=slot - 1, certificate=cert))
                del pending[slot]
    return EnumerationState(stage=stage, pending=sorted(pending), emitted=emitted)


# ---------------------------------------------------------------------------
# grid localization


@dataclass
class GridCell:
    """Dyadic cells of side 2^-M that certifiably contain the capacity."""

    resolution: int
    cells: list[int]
    lower: Fraction
    upper: Fraction


def _cell_of(x: Fraction, m_res: int) -> int:
    # value v lands in cell k when k/2^M < v <= (k+1)/2^M; 0 goes to cell 0
    return max(0, math.ceil(x * (1 << m_res)) - 1)


def locate_grid(
    g: Graph,
    resolution: int,
    tol=Fraction(1, 10**4),
    m_max: int = 1,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> GridCell:
    """Locate the capacity among the 2^(2M) dyadic cells at resolution M."""
    if resolution < 0:
        raise InputError("resolution must be nonnegative")
    if (1 << resolution) < g.n:
        raise InputError(
            f"resolution 2^{resolution} cannot cover a graph on {g.n} vertices"
        )
    report = sandwich(g, m_max, tol, node_budget=node_budget)
    lower = report.lower
    upper = report.upper if report.upper is not None else Fraction(g.n)
    upper = min(upper, Fraction(g.n)) if g.n else Fraction(0)
    last = (1 << (2 * resolution)) - 1
    first_cell = min(_cell_of(lower, resolution), last)
    last_cell = min(_cell_of(upper, resolution), last)
    return GridCell(
        resolution=resolution,
        cells=list(range(first_cell, last_cell + 1)),
        lower=lower,
        upper=upper,
    )


# ---------------------------------------------------------------------------
# interval squeeze


@dataclass
class SqueezeResult:
    status: str
    lower: Fraction
    upper: Fraction
    rounds_used: int

    def width(self) -> Fraction:
        return self.upper - self.lower


def squeeze_capacity(
    g: Graph,
    k_bits: int,
    budget: int = 16,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    power_cap: int = DEFAULT_POWER_CAP,
) -> SqueezeResult:
    """Shrink a certified capacity interval below width 2^-k_bits.

    The plan is ladder level 0, the exact clique cover, theta once (its
    interval is certified once per graph, so a smaller tolerance could
    only fail), then ladder levels 1, 2, ... while their powers fit.  The
    interval is monotone in the budget: more rounds only ever shrink it.
    """
    if k_bits < 0:
        raise InputError("width exponent must be nonnegative")
    if budget < 1:
        raise InputError("budget must be positive")
    target = Fraction(1, 1 << k_bits)
    lower = Fraction(0)
    upper = Fraction(g.n)
    precision = k_bits + 4

    rounds = 0
    plan: list[tuple[str, object]] = [("ladder", 0), ("cover", None), ("theta", target / 4)]
    next_level = 1
    while rounds < budget:
        if upper - lower < target:
            return SqueezeResult(VALUE, lower, upper, rounds)
        if not plan:
            if not power_fits(g.n, 1 << next_level, power_cap):
                break
            plan.append(("ladder", next_level))
            next_level += 1
        action, arg = plan.pop(0)
        rounds += 1
        try:
            if action == "ladder":
                steps = alpha_ladder(g, int(arg), node_budget, power_cap)
                cand = steps[-1].root.lower_bound(precision)
                lower = max(lower, cand)
            elif action == "cover":
                cover = fractional_clique_cover(g)
                upper = min(upper, cover.hi)
            elif action == "theta" and g.n > 0:
                bound = lovasz_theta(g, arg)
                upper = min(upper, bound.hi)
        except (BudgetError, ConvergenceError):
            continue  # a failed refinement leaves the interval as it was
    status = VALUE if upper - lower < target else BUDGET_EXHAUSTED
    return SqueezeResult(status, lower, upper, rounds)
