"""Grammar-driven CLI fuzz: every stop is classified, none is ``internal``.

Seeded random graph expressions over small atoms, with ``~``, ``+``, ``*``
and ``^1``..``^3``, run through ``cli.run`` under explicit node budgets.
Every report must match the schema and exit 0, 2, 3 or 4, and exit 4 only
for a solver stop.
"""

import json
import random
from importlib import resources

import jsonschema
import pytest

from zecap.cli import run

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
    monkeypatch.setenv("ZW_MAX_VERTICES", "4096")
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
