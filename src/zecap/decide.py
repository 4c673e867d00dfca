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

The alpha values come from one ``alpha.PowerLadder`` per graph, which finds
each level at most once, in order, by squaring and warm-starting, and closes
the levels above the first one that meets the clique-cover bound (Shannon
1956).  Each level it searches gets the full per-solve node budget.  This
module adds only its own policy: the level cap, the dovetail and the level
test.  The dovetail, the single-level run and the enumeration all read from
a ladder; the enumeration shares one ladder among isomorphic graphs.

Levels are dovetailed on a triangular schedule (stage t runs one step of
each of levels 0..t-1), so every level gets unbounded attention if the
budget allows.  Everything is budgeted: dovetail steps, branch-and-bound
nodes per alpha solve, and strong-power vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import creal
from .alpha import PowerLadder
from .errors import BudgetError, InputError
from .graphs import ISO_MAX_VERTICES, Graph, decode, encode, is_isomorphic, power_fits
from .spectrum import BoundsReport, sandwich

# unused here; perfbench/spans.py's REQUIRED_SITES pins these bindings
from .alpha import ladder as alpha_ladder, solve_alpha
from .graphs import strong_power
from .spectrum import lovasz_theta

HALTED = "Halted"
BUDGET_EXHAUSTED = "BudgetExhausted"
VALUE = "Value"

DEFAULT_POWER_CAP = 512
DEFAULT_NODE_BUDGET = 20_000
DEFAULT_LEVEL_CAP = 6  # 2^6-th powers of approximants stay cheap
ENUM_POWER_CAP = 256
LOCATE_MAX_CELLS = 1024  # cells a locate report may list


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


class _LevelRun:
    """Precision counter of one level inside the dovetail."""

    __slots__ = ("level", "capped", "stepped", "next_n", "slope")

    def __init__(self, level: int, level_cap: int):
        self.level = level
        self.capped = level > level_cap  # past the level cap: never solved
        self.stepped = False
        self.next_n = 1
        self.slope: Fraction | None = None  # set at the first test, once alpha is known

    def step(
        self, powers: PowerLadder, node_budget: int | None, lam: creal.CReal, expr: str
    ) -> Certificate | None:
        self.stepped = True
        alpha_value = None if self.capped else powers.solve(self.level, node_budget)
        if alpha_value is None:
            return None
        if self.slope is None:
            self.slope = lipschitz_constant(lam, self.level)
        n = self.next_n
        self.next_n += 1
        sides = _level_test(alpha_value, lam, self.level, n, self.slope)
        if sides is None:
            return None
        return Certificate(encode(powers.graph), expr, self.level, n, alpha_value, *sides)

    def stalled(self, powers: PowerLadder) -> str | None:
        """level cap / vertex budget / node budget, once a step has met it."""
        if self.capped:
            return "level cap" if self.stepped else None
        stop = powers.stops.get(self.level)
        return None if stop is None else str(stop.reason)

    def describe(self, powers: PowerLadder) -> dict:
        return {
            "alpha": powers.alpha.get(self.level),
            "last_precision": self.next_n - 1,
            "stalled": self.stalled(powers),
            "nodes_used": powers.nodes.get(self.level, 0),
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
    powers = PowerLadder(g, power_cap)
    run = _LevelRun(level, level_cap)
    expr = lambda_expr or lam.description
    for step in range(1, step_budget + 1):
        cert = run.step(powers, node_budget, lam, expr)
        if cert is not None or run.stalled(powers) is not None:
            break
    status = BUDGET_EXHAUSTED if cert is None else HALTED
    return DecisionOutcome(status, cert, {level: run.describe(powers)}, step)


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
    powers = PowerLadder(g, power_cap)
    runs: list[_LevelRun] = []
    steps_used = 0
    log: list[tuple[int, int, int]] = []
    stage = 0
    while steps_used < budget:
        stage += 1
        runs.append(_LevelRun(stage - 1, level_cap))
        for run in runs[:stage]:
            if steps_used >= budget:
                break
            steps_used += 1
            cert = run.step(powers, node_budget, lam, expr)
            log.append((stage, run.level, run.next_n - 1))
            if cert is not None:
                progress = {r.level: r.describe(powers) for r in runs}
                return DecisionOutcome(HALTED, cert, progress, steps_used, log)
    progress = {r.level: r.describe(powers) for r in runs}
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
    vertices share one ``PowerLadder``, so each level of an isomorphism
    class is solved once; alpha of a power does not depend on the labels.
    Each slot still runs its own tests at its own precision.
    """
    if graph_horizon < 0:
        raise InputError("graph horizon must be nonnegative")
    if stage_budget < 0:
        raise InputError("stage budget must be nonnegative")
    expr = lambda_expr or lam.description
    classes: dict[tuple, list[PowerLadder]] = {}  # keyed by sorted degrees

    def ladder_of(g: Graph) -> PowerLadder:
        if g.n > ISO_MAX_VERTICES:
            return PowerLadder(g, power_cap)
        bucket = classes.setdefault(tuple(sorted(m.bit_count() for m in g.masks)), [])
        for powers in bucket:
            if is_isomorphic(powers.graph, g):
                return powers
        bucket.append(PowerLadder(g, power_cap))
        return bucket[-1]

    slopes: dict[int, Fraction] = {}  # lipschitz_constant(lam, level)
    pending: dict[int, tuple[PowerLadder, int]] = {}  # slot -> (ladder, top level)
    emitted: list[EmittedGraph] = []
    stage = 0
    for stage in range(1, stage_budget + 1):
        if stage <= graph_horizon:
            g = decode(stage - 1)
            top = 0  # the highest level up to the level cap whose power fits, or 0
            while top < level_cap and power_fits(g.n, 1 << (top + 1), power_cap):
                top += 1
            pending[stage] = ladder_of(g), top
        for slot in sorted(pending):
            powers, top = pending[slot]
            age = stage - slot + 1
            level = min(age, top)
            while level > 0 and level in powers.stops:
                level -= 1
            alpha_value = powers.solve(level, node_budget)
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
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> GridCell:
    """Locate the capacity among the 2^(2M) dyadic cells at resolution M.

    The bracket is the sandwich at ladder level 1.  More than
    ``LOCATE_MAX_CELLS`` cells is a BudgetError, raised before any is listed.
    """
    if resolution < 0:
        raise InputError("resolution must be nonnegative")
    if (1 << resolution) < g.n:
        raise InputError(
            f"resolution 2^{resolution} cannot cover a graph on {g.n} vertices"
        )
    report = sandwich(g, 1, tol, node_budget=node_budget)
    lower, upper = report.lower, report.capped_upper()
    last = (1 << (2 * resolution)) - 1
    first_cell = min(_cell_of(lower, resolution), last)
    last_cell = min(_cell_of(upper, resolution), last)
    count = last_cell - first_cell + 1
    if count > LOCATE_MAX_CELLS:
        raise BudgetError(
            f"{count} cells at resolution {resolution}, above the cap of {LOCATE_MAX_CELLS}",
            used=count,
            reason="cell budget",
        )
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

    One round is one refinement of one ``BoundsReport``: ladder level 0, the
    exact clique cover, theta once (its interval is certified once per
    graph, so a smaller tolerance could only fail), then ladder levels 1,
    2, ... while their powers fit.  The bracket's one ``PowerLadder`` solves
    each level at most once.  The upper end starts at the vertex count, and
    the interval is monotone in the budget: more rounds only ever shrink it.
    """
    if k_bits < 0:
        raise InputError("width exponent must be nonnegative")
    if budget < 1:
        raise InputError("budget must be positive")
    target = Fraction(1, 1 << k_bits)
    bits = k_bits + 4
    report = BoundsReport(PowerLadder(g, power_cap))

    def plan():
        yield partial(report.add_ladder, 0, node_budget, bits)
        yield report.add_cover
        yield partial(report.add_theta, target / 4)
        level = 1
        while power_fits(g.n, 1 << level, power_cap):
            yield partial(report.add_ladder, level, node_budget, bits)
            level += 1

    rounds = 0
    for refine in plan():
        if rounds == budget or report.capped_upper() - report.lower < target:
            break
        refine()
        rounds += 1
    upper = report.capped_upper()
    status = VALUE if upper - report.lower < target else BUDGET_EXHAUSTED
    return SqueezeResult(status, report.lower, upper, rounds)
