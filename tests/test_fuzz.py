"""Grammar-driven fuzz: every stop is classified, and the bounds hold.

Seeded random graph expressions over small atoms, with ``~``, ``+``, ``*``
and ``^1``..``^3``, run through ``cli.run`` under explicit node budgets.
Every report must match the schema and exit 0, 2, 3 or 4, and exit 4 only
for a solver stop.  The same expressions, parsed, check the spectrum
points' invariants against each other and against the flat solvers.
"""

import json
import random
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from zecap import BudgetError, InputError, fractional_clique_cover, lovasz_theta, solve_alpha
from zecap import graphs, spectrum
from zecap.cli import parse_graph, run
from zecap.graphs import Graph, complement

CASES = 200
ATOMS = ["S", "C3", "C4", "C5", "C6", "C7", "K1", "K2", "K3", "E1", "E2", "E3",
         "5:1001100101", "4:110011", "3:", "6", "40"]
LAMBDAS = ["1", "3/2", "2", "5/2", "sqrt(5)", "1+sqrt(5)", "13/4"]


def expression(rng: random.Random, depth: int = 2) -> str:
    """A random expression; each operator nests at most depth deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        text = rng.choice(ATOMS)
    elif roll < 0.5:
        return "~" + expression(rng, depth - 1)
    elif roll < 0.8:
        op = rng.choice("+*")
        text = f"{expression(rng, depth - 1)}{op}{expression(rng, depth - 1)}"
        text = f"({text})"
    else:
        text = f"({expression(rng, depth - 1)})"
    if rng.random() < 0.25:
        text += f"^{rng.randint(1, 3)}"
    return text


def case(rng: random.Random) -> list[str]:
    """argv of one command on random expressions, with explicit budgets."""
    g = expression(rng)
    nodes = str(rng.choice([0, 1, 50, 500, 2000]))
    command = rng.choice(["alpha", "theta-sdp", "chif", "bounds", "ladder", "decide-gt",
                          "squeeze", "locate", "preorder", "encode"])
    if command == "alpha":
        return [command, "--graph", g, "--node-budget", nodes]
    if command == "theta-sdp":
        return [command, "--graph", g, "--tol", rng.choice(["1e-2", "1e-4", "1e-8"])]
    if command == "chif":
        return [command, "--graph", g]
    if command == "encode":
        return [command, g]
    if command in ("bounds", "ladder"):
        return [command, "--graph", g, "--m", str(rng.randint(0, 2)), "--node-budget", nodes]
    if command == "decide-gt":
        return [command, "--graph", g, "--lambda", rng.choice(LAMBDAS),
                "--budget", str(rng.randint(1, 30)), "--node-budget", nodes]
    if command == "squeeze":
        return [command, "--graph", g, "--K", str(rng.randint(0, 6)),
                "--budget", str(rng.randint(1, 6)), "--node-budget", nodes]
    if command == "locate":
        return [command, "--graph", g, "--M", str(rng.randint(1, 6)), "--node-budget", nodes]
    return [command, g, expression(rng), "--node-budget", nodes]


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("zecap") / "schema" / "report.schema.json"
    return json.loads(ref.read_text())


def test_every_stop_is_classified(monkeypatch, schema):
    # a product of small atoms can still square past a gigabyte at the
    # default vertex cap; 4,096 vertices keep each case small
    monkeypatch.setattr(graphs, "DEFAULT_MAX_VERTICES", 4096)
    rng = random.Random(35)
    codes = set()
    for _ in range(CASES):
        argv = case(rng)
        code, report = run(argv)
        jsonschema.validate(report, schema)
        kind = report["results"].get("kind")
        assert kind != "internal", (argv, report["results"])
        assert code in (0, 2, 3, 4), (argv, code)
        if code == 4:
            # bounds reports its solver stop among its errors, with no kind
            assert kind == "solver" or (argv[0] == "bounds" and kind is None), argv
        codes.add(code)
    assert {0, 2, 3} <= codes  # the cases reach answers, input errors and budget stops


def test_spectrum_invariants(monkeypatch):
    # on each graph G and its complement: alpha <= theta <= chi_f-bar and
    # theta(G) theta(co G) >= n; within the flat solvers' reach the
    # composed theta overlaps the SDP interval of the flat graph and the
    # composed chi_f-bar is its LP optimum.  Outside them, every theta
    # certifies, and the SDP runs only on literal atoms
    monkeypatch.setattr(graphs, "DEFAULT_MAX_VERTICES", 4096)
    solve, sizes = spectrum._theta_solve, []
    monkeypatch.setattr(spectrum, "_theta_solve",
                        lambda n, *edges: sizes.append(n) or solve(n, *edges))
    tol = Fraction(1, 10**4)
    rng = random.Random(36)
    seen = set()
    while len(seen) < CASES:
        text = expression(rng)
        try:
            g = parse_graph(text)
        except (BudgetError, InputError):
            continue
        if g.recipe in seen:
            continue
        seen.add(g.recipe)
        his = []
        for h in (g, complement(g)):
            sizes.clear()
            theta = lovasz_theta(h, tol)
            # the largest literal atom, 5:1001100101, has 5 vertices
            assert max(sizes, default=0) <= 5, (text, h.recipe, sizes)
            his.append(theta.hi)
            try:
                w, _ = solve_alpha(h, 2000)
                assert w.size <= theta.hi, (text, h.recipe)
            except BudgetError:
                pass
            try:
                cover = fractional_clique_cover(h)
                assert theta.lo <= cover.hi, (text, h.recipe)
            except BudgetError:
                cover = None
            if h.n > 30:
                continue  # the flat checks below read the masks, which a large h may not build
            flat = Graph(h.n, h.masks)
            if h.edge_count() <= 500:
                flat_lo, flat_hi = spectrum._sdp_interval(flat)
                assert max(theta.lo, flat_lo) <= min(theta.hi, flat_hi), (text, h.recipe)
            if h.n <= 24 and len(spectrum.maximal_cliques(flat)) <= 200:
                assert cover.lo == cover.hi == spectrum._clique_lp(flat)[0], (text, h.recipe)
        assert his[0] * his[1] >= g.n, text
