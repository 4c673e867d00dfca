"""Command-line surface: every subcommand emits one JSON report to stdout.

Reports share a fixed envelope — command, canonicalized inputs, results,
budgets, version, wall time — and serialize with sorted keys so identical
inputs produce identical bytes (wall time aside).  Exit codes: 0 success,
2 input error, 3 budget exhausted, 4 solver failure; ``bounds`` and
``capacity`` exit 3 if a budget stopped a refinement, else 4 if a solver
did.  An error report keeps the inputs parsed before the stop and all
budgets.  Every stop carries its certified ``partial`` result (an alpha
search's best set, a theta interval, or null); a budget stop also carries
its ``reason`` and the amount ``used``, on a size stop the vertices needed.
Input graphs of at most 64 vertices are echoed under ``inputs`` edge by
edge; larger ones as ``{"vertices", "edge_count"}``, since the expression
beside them determines them.  Result graphs always list every edge.

Graphs are given as expressions: numbering indices ("689"), bit strings
("5:1001100101"), named shortcuts (C3..C9 cycles, K1..K9 complete, E1..E9
edgeless, S the single vertex), compositions with + (disjoint union),
* (strong product), ^ (strong power), the prefix ~ (complement, binding
tightest: ~C7^2 is (~C7)^2), parentheses — or, as the whole text, the edge
list "n; u-v, u-v".
Thresholds accept "a/b", decimals, "sqrt(k)", and "a+sqrt(k)".
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .alpha import IndependentSetWitness, PowerLadder, ladder, solve_alpha
from .channel import (
    Channel,
    capacity_bounds,
    channel_from_csv,
    channel_from_json,
    confusability_graph,
)
from .creal import CReal, check_exponent, decimal_string, parse_integer, parse_real
from .decide import (
    Certificate,
    DEFAULT_NODE_BUDGET,
    DEFAULT_POWER_CAP,
    ENUM_NODE_BUDGET,
    ENUM_POWER_CAP,
    HALTED,
    SQUEEZE_ROUND_BUDGET,
    VALUE,
    enumerate_gt,
    locate_grid,
    semidecide_gt,
    squeeze_capacity,
)
from .errors import BudgetError, ConvergenceError, InputError
from .graphs import (
    INDEX_MAX_VERTICES,
    Graph,
    complement,
    decode,
    disjoint_union,
    encode,
    graph_from_bitstring,
    graph_from_edgetext,
    graph_to_bitstring,
    recipe_graph,
    require_fits,
    strong_power,
    strong_product,
    vertex_budget,
)
from .preorder import (
    ASYM_SEARCH_BUDGET,
    LEQ_MAX_VERTICES,
    TEST_F_NODE_BUDGET,
    TEST_F_POWER_CAP,
    asymptotic_leq_bounded,
    leq,
)
from .spectrum import BoundsReport, UpperBound, fractional_clique_cover, lovasz_theta, sandwich

if TYPE_CHECKING:
    import argparse

REAL_BITS = 48  # precision at which computable reals are reported

# one process answers one command: at exit, move the heap out of the
# interpreter's shutdown collections, which would only walk it
atexit.register(gc.freeze)


# ---------------------------------------------------------------------------
# graph expressions


_TOKEN_RE = re.compile(r"\s*([A-Z]\d*|\d+:[^\s+*^()~]*|\d+|[+*^()~])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise InputError(
                f"bad graph expression near {text[pos:pos + 8]!r} (position {pos})"
            )
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise InputError("empty graph expression")
    return tokens


_NAME_RE = re.compile(r"([CKE])(\d+)$")


def _named_graph(token: str) -> Graph:
    if token == "S":
        return recipe_graph(("E", 1))
    m = _NAME_RE.match(token)
    if m:
        kind, size = m.group(1), parse_integer(m.group(2), "graph size")
        if size >= (3 if kind == "C" else 1):
            require_fits("graph", size, vertex_budget())  # before any mask is built
            return recipe_graph((kind, size))
    raise InputError(
        f"unknown graph name {token!r} (use S, C3.., K1.., E1.., or an index)"
    )


class _ExpressionParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise InputError("graph expression ended unexpectedly")
        self.pos += 1
        return token

    def parse(self) -> Graph:
        g = self.union()
        if self.peek() is not None:
            raise InputError(f"unexpected token {self.peek()!r} in graph expression")
        return g

    def union(self) -> Graph:
        terms = [self.product()]
        while self.peek() == "+":
            self.take()
            terms.append(self.product())
        return terms[0] if len(terms) == 1 else disjoint_union(*terms)

    def product(self) -> Graph:
        g = self.power()
        while self.peek() == "*":
            self.take()
            g = strong_product(g, self.power())
        return g

    def power(self) -> Graph:
        g = self.atom()
        while self.peek() == "^":
            self.take()
            token = self.take()
            if not token.isdigit():
                raise InputError(f"power exponent must be an integer, got {token!r}")
            g = strong_power(g, parse_integer(token, "power exponent"))
        return g

    def atom(self) -> Graph:
        flip = False
        while self.peek() == "~":  # ~~g is g: count the prefixes, build one complement
            self.take()
            flip = not flip
        token = self.take()
        if token == "(":
            g = self.union()
            if self.take() != ")":
                raise InputError("unbalanced parentheses in graph expression")
        elif token.isdigit():
            g = decode(parse_integer(token, "graph index"))
        elif ":" in token:
            g = graph_from_bitstring(token)
        else:
            g = _named_graph(token)
        return complement(g) if flip else g


def parse_graph(text: str) -> Graph:
    """Parse an index, a literal form, or a composition expression.

    A bit string 'n:0101' is an atom of the expression grammar; an edge
    list is read only as the whole text."""
    stripped = text.strip()
    if ";" in stripped:
        return graph_from_edgetext(stripped)
    try:
        return _ExpressionParser(_tokenize(stripped)).parse()
    except RecursionError:  # about 250 levels of parentheses
        raise InputError("graph expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# JSON rendering helpers


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def real_json(x: CReal) -> dict:
    approx = x.approx(REAL_BITS)
    return {
        "decimal": decimal_string(approx),
        "value": frac_str(approx),
        "modulus": "0/1" if x.exact is not None else frac_str(Fraction(1, 1 << REAL_BITS)),
        "precision_bits": REAL_BITS,
        "description": x.description,
        "exact": x.exact is not None,
    }


def graph_json(g: Graph) -> dict:
    out: dict = {"vertices": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.n <= 40:
        out["index"] = encode(g)
    if g.n <= 64:
        out["bitstring"] = graph_to_bitstring(g)
    return out


def certificate_json(cert: Certificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "graph_index": cert.graph_index,
        "lambda_expr": cert.lambda_expr,
        "k": cert.level,
        "n": cert.precision,
        "alpha_power": cert.alpha_power,
        "inequality_lhs": frac_str(cert.lhs),
        "inequality_rhs": frac_str(cert.rhs),
    }


def _ladder_json(levels) -> list[dict]:
    return [
        {
            "m": lv.m,
            "alpha": lv.alpha_value,
            "value": real_json(lv.root),
        }
        for lv in levels
    ]


def _interval_json(lower: Fraction, upper: Fraction | None) -> dict:
    return {
        "lower": frac_str(lower),
        "lower_decimal": decimal_string(lower),
        "upper": None if upper is None else frac_str(upper),
        "upper_decimal": None if upper is None else decimal_string(upper),
        "width": None if upper is None else frac_str(upper - lower),
    }


def _bounds_json(report: BoundsReport) -> dict:
    theta = None
    if report.theta is not None:
        theta = {
            "lo": frac_str(report.theta.lo),
            "hi": frac_str(report.theta.hi),
            "tolerance": frac_str(report.theta.tolerance),
        }
    cover = None
    if report.clique_cover is not None:
        cover = {"value": frac_str(report.clique_cover.hi)}
    return {
        **_interval_json(report.lower, report.upper),
        "lower_real": None
        if report.lower_real is None
        else real_json(report.lower_real),
        "theta": theta,
        "clique_cover": cover,
        "ladder": _ladder_json(report.ladder),
        "errors": list(report.errors),
    }


def _stop_json(e: BudgetError | ConvergenceError) -> dict:
    """A budget or solver stop and its certified partial: an alpha search's
    best set, or a theta interval.  A budget stop adds its reason and the
    amount used."""
    partial = None
    if isinstance(e.partial, IndependentSetWitness):
        partial = {"size": e.partial.size, "witness": sorted(e.partial.vertices)}
    elif isinstance(e.partial, UpperBound):
        partial = {"lo": frac_str(e.partial.lo), "hi": frac_str(e.partial.hi)}
    if isinstance(e, ConvergenceError):
        return {"error": str(e), "kind": "solver", "partial": partial}
    return {"error": str(e), "kind": "budget", "reason": e.reason, "used": e.used,
            "partial": partial}


def _stops_code(stops) -> int:
    """3 if any of these stops is a budget's, else 4 if any is a solver's, else 0."""
    return min((3 if isinstance(e, BudgetError) else 4 for e in stops), default=0)


def _write_ladder_csv(path: str, levels) -> None:
    lines = ["m,alpha,value"]
    for lv in levels:
        lines.append(f"{lv.m},{lv.alpha_value},{decimal_string(lv.root.approx(REAL_BITS))}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_bounds_csv(path: str, report: BoundsReport) -> None:
    lines = ["kind,m,value"]
    for lv in report.ladder:
        lines.append(f"ladder,{lv.m},{decimal_string(lv.root.approx(REAL_BITS))}")
    if report.clique_cover is not None:
        lines.append(f"clique_cover,,{decimal_string(report.clique_cover.hi)}")
    if report.theta is not None:
        lines.append(f"theta_lo,,{decimal_string(report.theta.lo)}")
        lines.append(f"theta_hi,,{decimal_string(report.theta.hi)}")
    lines.append(f"lower,,{decimal_string(report.lower)}")
    if report.upper is not None:
        lines.append(f"upper,,{decimal_string(report.upper)}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# input parsing: each helper records what it parsed under ``inputs``, so an
# error report keeps everything parsed before the failure


def _graph_input(inputs: dict, source: str = "expression", key: str = "graph") -> Graph:
    g = parse_graph(inputs[source])
    # above 64 vertices the echo is a summary: the expression under ``source``
    # already determines the graph, and its edge list can run to megabytes
    inputs[key] = (
        graph_json(g) if g.n <= 64 else {"vertices": g.n, "edge_count": g.edge_count()}
    )
    return g


def _tol_input(inputs: dict) -> Fraction:
    text = inputs["tol"]
    check_exponent(text, "tolerance")
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse tolerance {text!r}") from None
    if tol <= 0:
        raise InputError("tolerance must be positive")
    try:
        inputs["tol"] = frac_str(tol)
    except ValueError:  # past Python's int-to-str digit limit
        raise InputError(f"tolerance {text!r} has too many digits") from None
    return tol


def _lambda_input(inputs: dict) -> CReal:
    lam = parse_real(inputs["lambda"])
    inputs["lambda"] = lam.description  # the text read, stripped
    return lam


def _channel_input(inputs: dict) -> Channel:
    path = inputs["channel"]
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read channel file {path!r}: {e}") from e
    is_json = path.endswith(".json") or text.lstrip().startswith("{")
    ch = channel_from_json(text) if is_json else channel_from_csv(text)
    inputs.update(x_size=ch.x_size, y_size=ch.y_size)
    return ch


# ---------------------------------------------------------------------------
# the command table: each subcommand is declared once, above its handler.
# Report keys under ``inputs`` and ``budgets`` are the table's dests,
# recorded by ``run`` before the handler runs: a dest in ``_BUDGETS`` is a
# budget, ``csv`` (an output path) is neither, and every other is an input.

_BUDGETS = {"node_budget", "power_cap", "max_vertices", "step_budget", "search_budget",
            "round_budget"}


def _arg(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs  # spelled as for add_argument


# shared flags; a command may override their defaults
_FLAGS = {
    "--graph": dict(dest="expression", required=True,
                    help="graph expression, e.g. C5, 'S+C5', 'K3*E2', 689, '5:1001100101'"),
    "--m": dict(dest="m_max", type=int, default=1, help="deepest ladder level"),
    "--tol": dict(default="1e-4", help="theta interval tolerance"),
    "--lambda": dict(dest="lambda", required=True, help="threshold expression"),
    "--node-budget": dict(type=int, help="branch-and-bound node cap per independence solve"),
    "--power-cap": dict(type=int, default=None, help="strong-power vertex cap"),
    "--csv": dict(help="also write the series to this CSV file"),
    "--channel": dict(required=True, help="channel file (CSV or JSON)"),
}
_LADDER_NODE_BUDGET = _arg("--node-budget", type=int,
                           help="branch-and-bound node pool shared by the ladder levels")
_GRAPH_PAIR = [
    _arg("left_expression", metavar="left", help="graph expression"),
    _arg("right_expression", metavar="right", help="graph expression"),
]


class _Command(NamedTuple):
    handler: Callable  # (args, inputs) -> (results, exit_code)
    summary: str
    flags: list  # names in _FLAGS, or _arg(...) of the command's own
    defaults: dict  # per-command defaults of shared flags


_COMMANDS: dict[str, _Command] = {}


def _command(name, summary, flags, **defaults):
    def register(handler):
        _COMMANDS[name] = _Command(handler, summary, flags, defaults)
        return handler

    return register


@_command("encode", "numbering index of a graph expression", [_arg("expression")])
def _cmd_encode(args, inputs):
    g = parse_graph(args.expression)
    if g.n > INDEX_MAX_VERTICES:  # checked before the index is built
        raise InputError(f"indices are printed up to {INDEX_MAX_VERTICES} vertices, got {g.n}")
    return {"index": encode(g), "graph": graph_json(g)}, 0


@_command("decode", "graph at a numbering index", [_arg("index", type=int)])
def _cmd_decode(args, inputs):
    return {"graph": graph_json(decode(args.index))}, 0


@_command("alpha", "maximum independent set with witness", ["--graph", "--node-budget"])
def _cmd_alpha(args, inputs):
    witness, nodes = solve_alpha(_graph_input(inputs), args.node_budget)
    return {
        "alpha": witness.size,
        "witness": sorted(witness.vertices),
        "nodes_used": nodes,
    }, 0


@_command("ladder", "independence ladder lower bounds",
          ["--graph", "--m", _LADDER_NODE_BUDGET, "--power-cap", "--csv"])
def _cmd_ladder(args, inputs):
    g = _graph_input(inputs)
    try:
        levels = ladder(PowerLadder(g, args.power_cap), args.m_max, args.node_budget)
        results, code = {"levels": _ladder_json(levels)}, 0
    except BudgetError as e:
        levels = e.partial
        results, code = {**_stop_json(e), "levels": _ladder_json(levels)}, 3
    if args.csv:
        _write_ladder_csv(args.csv, levels)
    return results, code


@_command("bounds", "two-sided capacity sandwich",
          ["--graph", "--m", "--tol", _LADDER_NODE_BUDGET, "--power-cap", "--csv"])
def _cmd_bounds(args, inputs):
    g = _graph_input(inputs)
    report = sandwich(g, args.m_max, _tol_input(inputs), args.node_budget, args.power_cap)
    if args.csv:
        _write_bounds_csv(args.csv, report)
    return _bounds_json(report), _stops_code(e for _, e in report.stops)


@_command("theta-sdp", "certified Lovász theta interval", ["--graph", "--tol"])
def _cmd_theta(args, inputs):
    g = _graph_input(inputs)
    bound = lovasz_theta(g, _tol_input(inputs))
    return {
        "kind": bound.kind,
        "lo": frac_str(bound.lo),
        "hi": frac_str(bound.hi),
        "lo_decimal": decimal_string(bound.lo),
        "hi_decimal": decimal_string(bound.hi),
        "tolerance": frac_str(bound.tolerance),
    }, 0


@_command("chif", "exact fractional clique cover number", ["--graph"])
def _cmd_chif(args, inputs):
    bound = fractional_clique_cover(_graph_input(inputs))
    return {
        "kind": bound.kind,
        "value": frac_str(bound.hi),
        "decimal": decimal_string(bound.hi),
    }, 0


@_command("decide-gt", "semi-decide capacity > threshold",
          ["--graph", "--lambda", "--node-budget", "--power-cap",
           _arg("--budget", dest="step_budget", type=int, default=1000,
                help="dovetail step budget")],
          node_budget=DEFAULT_NODE_BUDGET, power_cap=DEFAULT_POWER_CAP)
def _cmd_decide_gt(args, inputs):
    g = _graph_input(inputs)
    lam = _lambda_input(inputs)
    outcome = semidecide_gt(
        g,
        lam,
        args.step_budget,
        node_budget=args.node_budget,
        power_cap=args.power_cap,
    )
    if outcome.certificate is not None and not outcome.certificate.verify(lam):
        raise ConvergenceError("certificate failed exact re-verification")
    return {
        "status": outcome.status,
        "certificate": certificate_json(outcome.certificate),
        "steps_used": outcome.steps_used,
        "progress": {str(k): v for k, v in sorted(outcome.progress.items())},
    }, 0 if outcome.status == HALTED else 3


@_command("enumerate", "enumerate graphs with capacity > threshold",
          ["--lambda", "--node-budget", "--power-cap",
           _arg("--horizon", type=int, required=True, help="number of graphs admitted"),
           _arg("--stages", type=int, required=True, help="schedule stages to run")],
          node_budget=ENUM_NODE_BUDGET, power_cap=ENUM_POWER_CAP)
def _cmd_enumerate(args, inputs):
    state = enumerate_gt(
        _lambda_input(inputs),
        args.horizon,
        args.stages,
        power_cap=args.power_cap,
        node_budget=args.node_budget,
    )
    return {
        "stage": state.stage,
        "pending_slots": state.pending,
        "emitted": [
            {
                "slot": e.slot,
                "graph_index": e.graph_index,
                "certificate": certificate_json(e.certificate),
            }
            for e in state.emitted
        ],
    }, 0


@_command("preorder", "decide the cohomomorphism order left <= right",
          [*_GRAPH_PAIR,
           _arg("--node-budget", type=int,
                help="node cap of the homomorphism search (of the independence "
                "solve when left is edgeless)"),
           _arg("--max-vertices", type=int, default=LEQ_MAX_VERTICES,
                help="vertex cap on each side of the order test")])
def _cmd_preorder(args, inputs):
    left = _graph_input(inputs, "left_expression", "left")
    right = _graph_input(inputs, "right_expression", "right")
    witness = leq(left, right, args.max_vertices, args.node_budget)
    return {
        "established": witness.established,
        "mapping": None if witness.mapping is None else list(witness.mapping),
        "nodes_used": witness.nodes_used,
    }, 0


@_command("asym-preorder", "bounded search for an asymptotic-order witness",
          [*_GRAPH_PAIR,
           _arg("--node-budget", type=int, help="node cap given afresh to each (n,k) test"),
           "--power-cap",
           _arg("--m", type=int, required=True, help="slack denominator"),
           _arg("--budget", dest="search_budget", type=int, default=ASYM_SEARCH_BUDGET,
                help="number of (n,k) tests")],
          node_budget=TEST_F_NODE_BUDGET, power_cap=TEST_F_POWER_CAP)
def _cmd_asym_preorder(args, inputs):
    left = _graph_input(inputs, "left_expression", "left")
    right = _graph_input(inputs, "right_expression", "right")
    outcome = asymptotic_leq_bounded(
        left, right, args.m, args.search_budget, args.power_cap, args.node_budget
    )
    return {
        "status": outcome.status,
        "n": outcome.n,
        "k": outcome.k,
        "tests_used": outcome.tests_used,
        "frontier": [list(pair) for pair in outcome.frontier],
    }, 0 if outcome.established else 3


@_command("channel-graph", "confusability graph of a channel", ["--channel"])
def _cmd_channel_graph(args, inputs):
    g = confusability_graph(_channel_input(inputs))
    return {"graph": graph_json(g)}, 0


@_command("capacity", "zero-error capacity sandwich of a channel",
          ["--channel", "--m", "--tol", _LADDER_NODE_BUDGET, "--power-cap"])
def _cmd_capacity(args, inputs):
    ch = _channel_input(inputs)
    tol = _tol_input(inputs)
    report = capacity_bounds(ch, args.m_max, tol, args.node_budget, args.power_cap)
    return {
        "graph": graph_json(report.bounds.graph),
        "theta_scale": _bounds_json(report.bounds),
        "log2_scale": {
            "lower": round(report.log2_lower, 12),
            "upper": round(report.log2_upper, 12),
        },
    }, _stops_code(e for _, e in report.bounds.stops)


@_command("locate", "dyadic grid cells containing the capacity",
          ["--graph", "--tol", _LADDER_NODE_BUDGET,
           _arg("--M", type=int, required=True, help="grid exponent")],
          node_budget=DEFAULT_NODE_BUDGET)
def _cmd_locate(args, inputs):
    g = _graph_input(inputs)
    cell = locate_grid(g, args.M, _tol_input(inputs), node_budget=args.node_budget)
    scale = 1 << args.M
    return {
        "resolution": cell.resolution,
        "cells": cell.cells,
        "cell_intervals": [
            [frac_str(Fraction(r, scale)), frac_str(Fraction(r + 1, scale))]
            for r in cell.cells
        ],
        "lower": frac_str(cell.lower),
        "upper": frac_str(cell.upper),
        "singleton": len(cell.cells) == 1,
    }, 0


@_command("squeeze", "shrink the capacity interval below 2^-K",
          ["--graph", _LADDER_NODE_BUDGET, "--power-cap",
           _arg("--K", type=int, required=True, help="target width exponent"),
           _arg("--budget", dest="round_budget", type=int, default=SQUEEZE_ROUND_BUDGET,
                help="refinement rounds")],
          node_budget=DEFAULT_NODE_BUDGET, power_cap=DEFAULT_POWER_CAP)
def _cmd_squeeze(args, inputs):
    result = squeeze_capacity(
        _graph_input(inputs),
        args.K,
        args.round_budget,
        node_budget=args.node_budget,
        power_cap=args.power_cap,
    )
    return {
        "status": result.status,
        **_interval_json(result.lower, result.upper),
        "rounds_used": result.rounds_used,
    }, 0 if result.status == VALUE else 3


# ---------------------------------------------------------------------------
# parser assembly and the report envelope


def _specs(command: _Command) -> list[tuple[str, dict]]:
    """(name, add_argument keywords) of each flag and positional."""
    return [(flag, _FLAGS[flag]) if isinstance(flag, str) else flag for flag in command.flags]


def _dest(name: str, kwargs: dict) -> str:
    """The attribute argparse stores a flag or positional under."""
    return kwargs.get("dest", name.lstrip("-").replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    """The zecap parser: the one source of help, usage and error text."""
    import argparse  # here only: the success path reads argv off the table

    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Exact lower bounds, certified upper bounds, and budgeted "
        "decision procedures for the zero-error capacity of graphs and channels.",
    )
    parser.add_argument("--version", action="version", version=f"zecap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.summary)
        for flag, kwargs in _specs(command):
            p.add_argument(flag, **kwargs)
        p.set_defaults(**command.defaults)
    return parser


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """argv read off the command table, as argparse would read it; or None.

    Only exact flag names, each once with a value, and positionals in order
    are read.  Anything else (``-h``, ``--version``, ``--x=v``, abbreviations,
    ``--``, a value starting with ``-``, a repeat, a missing or extra
    argument, a value its type refuses) is None: ``build_parser`` judges it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _COMMANDS[argv[0]]
    specs = _specs(command)
    flags = {name for name, _ in specs if name.startswith("-")}
    given: dict[str, str] = {}
    free: list[str] = []
    rest = iter(argv[1:])
    for token in rest:
        if not token.startswith("-"):
            free.append(token)
            continue
        value = next(rest, "-")  # a flag without a value is argparse's to judge
        if token not in flags or token in given or value.startswith("-"):
            return None
        given[token] = value
    positionals = [name for name, _ in specs if name not in flags]
    if len(free) != len(positionals):
        return None
    given.update(zip(positionals, free))
    args = SimpleNamespace(command=argv[0])
    for name, kwargs in specs:
        dest = _dest(name, kwargs)
        if name in given:
            value = given[name]
        elif kwargs.get("required"):
            return None
        else:
            value = command.defaults.get(dest, kwargs.get("default"))
        if isinstance(value, str):  # as argparse: given values and string defaults
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
        setattr(args, dest, value)
    return args


def run(argv=None) -> tuple[int, dict]:
    """Execute one subcommand; returns (exit_code, report).

    Inputs and budgets are recorded before the handler runs, so an error
    report keeps them, with whatever the handler parsed before it stopped.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _table_args(argv)
    if args is None:  # abbreviations, help, version and every argument error
        args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    start = time.perf_counter()
    dests = [_dest(*spec) for spec in _specs(command)]
    inputs = {d: getattr(args, d) for d in dests if d not in _BUDGETS and d != "csv"}
    budgets = {d: getattr(args, d) for d in dests if d in _BUDGETS}
    try:
        results, code = command.handler(args, inputs)
    except InputError as e:
        results, code = {"error": str(e), "kind": "input"}, 2
    except (BudgetError, ConvergenceError) as e:
        results, code = _stop_json(e), _stops_code([e])
    except Exception as e:  # pragma: no cover - defensive
        results, code = {"error": f"{type(e).__name__}: {e}", "kind": "internal"}, 4
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "budgets": budgets,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    return code, report


def main(argv=None) -> int:
    code, report = run(argv)
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader stopped early (say, head); point stdout at devnull so the
        # interpreter's final flush stays quiet, and keep the command's code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
