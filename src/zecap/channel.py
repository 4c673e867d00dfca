"""Discrete memoryless channels and their zero-error combinatorics.

A channel is an exact rational stochastic matrix.  Everything zero-error
factors through its confusability graph — inputs joined when some output
has positive probability under both — so "positive" must be exact, never
a float threshold.  Block codes of length n are independent sets in the
n-th strong power of that graph, and the capacity sandwich for the graph
doubles as a zero-error capacity sandwich for the channel on a log2 scale.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .alpha import IndependentSetWitness, solve_alpha
from .creal import check_exponent, decimal_string
from .errors import InputError
from .graphs import Graph, strong_power
from .spectrum import BoundsReport, sandwich


@dataclass(frozen=True)
class Channel:
    """Conditional distribution table: rows[x][y] = probability of y given x."""

    x_size: int
    y_size: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.x_size < 1 or self.y_size < 1:
            raise InputError("channel needs at least one input and one output")
        if len(self.rows) != self.x_size:
            raise InputError(
                f"expected {self.x_size} rows, got {len(self.rows)}"
            )
        for i, row in enumerate(self.rows, start=1):
            if len(row) != self.y_size:
                raise InputError(
                    f"row {i}: expected {self.y_size} entries, got {len(row)}"
                )
            if any(p < 0 for p in row):
                raise InputError(f"row {i}: negative probability")
            total = sum(row)
            if total != 1:
                raise InputError(f"row {i}: probabilities sum to {decimal_string(total)}, not 1")

    def support(self, x: int) -> int:
        """Bitmask over outputs with positive probability on input x."""
        mask = 0
        for y, p in enumerate(self.rows[x]):
            if p > 0:
                mask |= 1 << y
        return mask


def _parse_probability(text: str, where: str) -> Fraction:
    """One cell as a Fraction in [0, 1], so that a row's sum stays below its
    width and prints within the int-to-str digit limit."""
    text = text.strip()
    check_exponent(text, f"{where}: probability")
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: bad probability {text!r} ({e})") from e
    if not 0 <= p <= 1:
        raise InputError(f"{where}: probability {text!r} is not in [0, 1]")
    return p


def channel_from_csv(text: str) -> Channel:
    """One CSV line per input; entries are fractions or decimals."""
    rows: list[tuple[Fraction, ...]] = []
    width = None
    reader = csv.reader(io.StringIO(text))
    for lineno, record in enumerate(reader, start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        row = tuple(
            _parse_probability(cell, f"line {lineno}, column {i}")
            for i, cell in enumerate(record, start=1)
        )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(
                f"line {lineno}: expected {width} entries, got {len(row)}"
            )
        total = sum(row)
        if total != 1:
            raise InputError(
                f"line {lineno}: probabilities sum to {decimal_string(total)}, not 1"
            )
        rows.append(row)
    if not rows:
        raise InputError("channel file has no rows")
    return Channel(len(rows), width, tuple(rows))


def channel_from_json(text: str) -> Channel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(data, dict):
        raise InputError("channel JSON must be an object")
    for key in ("x_size", "y_size", "rows"):
        if key not in data:
            raise InputError(f"channel JSON missing {key!r}")
    for key in ("x_size", "y_size"):
        if type(data[key]) is not int:  # bool and float are not sizes
            raise InputError(f"{key} must be an integer, got {data[key]!r}")
    rows = []
    raw_rows = data["rows"]
    if not isinstance(raw_rows, list):
        raise InputError("rows must be a list")
    for i, raw in enumerate(raw_rows, start=1):
        if not isinstance(raw, list):
            raise InputError(f"row {i}: must be a list")
        rows.append(
            tuple(
                _parse_probability(str(cell), f"row {i}, column {j}")
                for j, cell in enumerate(raw, start=1)
            )
        )
    return Channel(data["x_size"], data["y_size"], tuple(rows))


def confusability_graph(ch: Channel) -> Graph:
    """Inputs become vertices; an edge marks a shared positive output."""
    supports = [ch.support(x) for x in range(ch.x_size)]
    masks = [0] * ch.x_size
    for a in range(ch.x_size):
        for b in range(a + 1, ch.x_size):
            if supports[a] & supports[b]:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return Graph(ch.x_size, tuple(masks))


@dataclass
class ZeroErrorCode:
    """A maximum zero-error block code with its independence witness."""

    block_length: int
    words: tuple[tuple[int, ...], ...]
    witness: IndependentSetWitness

    @property
    def size(self) -> int:
        return len(self.words)


def _decode_word(vertex: int, base: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        vertex, digit = divmod(vertex, base)
        digits.append(digit)
    return tuple(reversed(digits))


def words_distinguishable(ch: Channel, u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """True when no length-n output word has positive probability under both."""
    return any(not ch.support(a) & ch.support(b) for a, b in zip(u, w))


def max_zero_error_code(
    ch: Channel,
    n: int,
    node_budget: int | None = None,
    max_vertices: int | None = None,
) -> ZeroErrorCode:
    """Largest set of pairwise-distinguishable length-n input words."""
    if n < 1:
        raise InputError("block length must be at least 1")
    g = confusability_graph(ch)
    power = strong_power(g, n, max_vertices)
    witness, _ = solve_alpha(power, node_budget)
    words = tuple(
        _decode_word(v, ch.x_size, n) for v in sorted(witness.vertices)
    )
    return ZeroErrorCode(block_length=n, words=words, witness=witness)


@dataclass
class ChannelCapacityReport:
    """Capacity sandwich on both scales: codebook growth and bits per use."""

    bounds: BoundsReport
    log2_lower: float
    log2_upper: float


def capacity_bounds(
    ch: Channel,
    m_max: int,
    tol,
    node_budget: int | None = None,
    max_power_vertices: int | None = None,
) -> ChannelCapacityReport:
    """The confusability graph's sandwich; log2 upper is at most log2 of the inputs."""
    report = sandwich(confusability_graph(ch), m_max, tol, node_budget, max_power_vertices)
    log2_lower = _log2_fraction(report.lower) if report.lower > 0 else 0.0
    return ChannelCapacityReport(report, log2_lower, _log2_fraction(report.capped_upper()))


def _log2_fraction(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)
