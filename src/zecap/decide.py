"""Budgeted semi-decision machinery for capacity threshold questions.

The primitive is one level test, ``_level_test``: level k compares the
exact integer alpha(g^(2^k)) against threshold approximants, firing
exactly when

    alpha(g^(2^k)) - r(n)^(2^k)  >  L_k * 2^-n

with L_k = 2^k * (|r(1)| + 1)^(2^k - 1), a certified Lipschitz constant for
t -> t^(2^k) on the interval the approximants can reach; its one cache is on
``lipschitz_constant``.  A firing is an exact rational certificate that the
capacity exceeds the threshold; the test never fires when it does not.  The
comparison runs in integers, and the rational sides are built only when it
fires.  Certificates are re-checked by the same function, and name their
threshold by its ``description``: for a ``creal.parse_real`` threshold, the
text it was read from.

The alpha values come from one ``alpha.PowerLadder`` per graph, which finds
each level at most once, in order, by squaring and warm-starting, and closes
the levels above the first one that meets the clique-cover bound (Shannon
1956).  Each level it searches gets the full per-solve node budget.  The
dovetail and the enumeration take every step through one level step,
``_test_level``, which solves the level on a ladder, runs the level test
and builds the certificate when it fires; the enumeration shares one ladder
among isomorphic graphs.  This module adds only its own policy: the level
cap and the two schedules.

Levels are dovetailed on a triangular schedule (stage t runs one step of
each of levels 0..t-1), so every level gets unbounded attention if the
budget allows.  Everything is budgeted: dovetail steps, branch-and-bound
nodes per alpha solve, and strong-power vertex counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import creal
from .alpha import PowerLadder
from .errors import InputError
from .graphs import INDEX_MAX_VERTICES, ISO_MAX_VERTICES, Graph, decode, encode, is_isomorphic
from .graphs import require_fits
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
LEVEL_CAP = 6  # 2^6-th powers of approximants stay cheap
ENUM_POWER_CAP = 256
ENUM_NODE_BUDGET = 200_000
SQUEEZE_ROUND_BUDGET = 16
SQUEEZE_MAX_EXPONENT = 4096  # interval ends on a 2^-4100 grid print in 1,235 digits
LOCATE_MAX_CELLS = 1024  # cells a locate report may list
LOCATE_MAX_RESOLUTION = 4096  # cell indices below 2^8192 print in 2,467 digits


@functools.lru_cache
def lipschitz_constant(lam: creal.CReal, k: int) -> Fraction:
    """Certified |t^(2^k)| slope bound around the threshold approximants."""
    r1 = abs(lam.approx(1))
    return (1 << k) * (r1 + 1) ** ((1 << k) - 1)


def _level_test(
    alpha_power: int, lam: creal.CReal, k: int, n: int
) -> tuple[Fraction, Fraction] | None:
    """The sides (lhs, rhs) of the level-k test at precision n if it fires.

    The comparison runs on integers: with r(n) = p/q, e = 2^k and slope
    L = L_k, lhs > rhs exactly when (alpha q^e - p^e) 2^n den(L) > num(L) q^e.
    """
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

    graph_index: int | None  # None above INDEX_MAX_VERTICES vertices
    lambda_expr: str
    level: int
    precision: int
    alpha_power: int
    lhs: Fraction
    rhs: Fraction

    def verify(self, lam: creal.CReal) -> bool:
        sides = _level_test(self.alpha_power, lam, self.level, self.precision)
        return sides == (self.lhs, self.rhs)


def _test_level(powers, level, n, node_budget, lam, index) -> Certificate | None:
    """Solve level on the ladder and test it at precision n: the certificate
    if the test fires, None if it does not or the level has stopped."""
    alpha_value = powers.solve(level, node_budget)
    sides = None if alpha_value is None else _level_test(alpha_value, lam, level, n)
    if sides is None:
        return None
    return Certificate(index, lam.description, level, n, alpha_value, *sides)


@dataclass
class DecisionOutcome:
    status: str
    certificate: Certificate | None
    progress: dict[int, dict]
    steps_used: int
    log: list[tuple[int, int, int]]


def semidecide_gt(
    g: Graph,
    lam: creal.CReal,
    budget: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    power_cap: int = DEFAULT_POWER_CAP,
) -> DecisionOutcome:
    """Dovetail all levels; Halted certifies capacity(g) > threshold.

    budget counts scheduled steps, not tests: a step on a level past the
    level cap, or on one that has stopped, still counts and runs no test.
    The triangular schedule guarantees that after t stages level k has had
    t - k steps, so no level starves; its first step is step (k+1)(k+2)/2.
    """
    if budget < 1:
        raise InputError("budget must be positive")
    index = encode(g) if g.n <= INDEX_MAX_VERTICES else None
    powers = PowerLadder(g, power_cap)
    tests: list[int] = []  # tests[k] run at level k, the last at precision tests[k]
    log: list[tuple[int, int, int]] = []
    cert = None
    schedule = ((stage, level) for stage in itertools.count(1) for level in range(stage))
    for stage, level in itertools.islice(schedule, budget):
        if level == 0:
            tests.append(0)  # each stage brings in one more level
        if level <= LEVEL_CAP:
            cert = _test_level(powers, level, tests[level] + 1, node_budget, lam, index)
            tests[level] += level in powers.alpha  # no test ran if the level stopped
        log.append((stage, level, tests[level]))
        if cert is not None:
            break
    steps_used = len(log)
    progress = {
        k: {
            "alpha": powers.alpha.get(k),
            "last_precision": n,
            "stalled": str(powers.stops[k].reason) if k in powers.stops else None,
            "nodes_used": powers.nodes.get(k, 0),
        }
        for k, n in enumerate(tests)
    }
    for k in range(LEVEL_CAP + 1, len(tests)):
        if steps_used >= (k + 1) * (k + 2) // 2:  # level k's first step
            progress[k]["stalled"] = "level cap"
    return DecisionOutcome(HALTED if cert else BUDGET_EXHAUSTED, cert, progress, steps_used, log)


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


def enumerate_gt(
    lam: creal.CReal,
    graph_horizon: int,
    stage_budget: int,
    power_cap: int = ENUM_POWER_CAP,
    node_budget: int | None = ENUM_NODE_BUDGET,
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

    pending: dict[int, tuple[PowerLadder, int]] = {}  # slot -> (ladder, top level)
    emitted: list[EmittedGraph] = []
    stage = 0
    for stage in range(1, stage_budget + 1):
        if stage <= graph_horizon:
            powers = ladder_of(decode(stage - 1))
            pending[stage] = powers, powers.top(LEVEL_CAP)
        for slot in sorted(pending):
            powers, top = pending[slot]
            age = stage - slot + 1
            level = min(age, top)
            while level > 0 and level in powers.stops:
                level -= 1
            cert = _test_level(powers, level, age, node_budget, lam, slot - 1)
            if cert is not None:
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
    if not 0 <= resolution <= LOCATE_MAX_RESOLUTION:
        raise InputError(f"resolution must be in 0..{LOCATE_MAX_RESOLUTION}, got {resolution}")
    if (1 << resolution) < g.n:
        raise InputError(f"resolution 2^{resolution} cannot cover a graph on {g.n} vertices")
    report = sandwich(g, 1, tol, node_budget=node_budget)
    lower, upper = report.lower, report.capped_upper()
    last = (1 << (2 * resolution)) - 1
    first_cell = min(_cell_of(lower, resolution), last)
    last_cell = min(_cell_of(upper, resolution), last)
    require_fits(f"resolution {resolution}", last_cell - first_cell + 1, LOCATE_MAX_CELLS,
                 "cells", "cell budget")
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
    budget: int = SQUEEZE_ROUND_BUDGET,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    power_cap: int = DEFAULT_POWER_CAP,
) -> SqueezeResult:
    """Shrink a certified capacity interval below width 2^-k_bits.

    One round is one step of ``BoundsReport.refine``'s plan: ladder level 0,
    the exact clique cover, theta once at 2^-(k_bits+2) (a tolerance it
    misses still yields the certified interval), then ladder levels 1, 2,
    ... while their powers fit and none has stopped, read to 2^-(k_bits+4).
    The bracket's one ``PowerLadder`` solves each level at most once, and
    the call's table each literal leaf.  The upper end starts at the vertex count,
    and the interval is monotone in the budget: more rounds only shrink it.
    """
    if k_bits < 0:
        raise InputError("width exponent must be nonnegative")
    if k_bits > SQUEEZE_MAX_EXPONENT:
        raise InputError(f"width exponent {k_bits} is above the maximum {SQUEEZE_MAX_EXPONENT}")
    if budget < 1:
        raise InputError("budget must be positive")
    target = Fraction(1, 1 << k_bits)
    report = BoundsReport(PowerLadder(g, power_cap))
    top = report.powers.top(budget)  # no plan of budget rounds reaches a higher level
    rounds = report.refine(top, target / 4, node_budget, budget, target)
    upper = report.capped_upper()
    status = VALUE if upper - report.lower < target else BUDGET_EXHAUSTED
    return SqueezeResult(status, report.lower, upper, rounds)
