"""Soundness checks for one job's report, against known values and seed answers.

A job fails when it crashed, exited with code 2 or 4, gave an unsound
answer, or gave a weaker answer than the recorded seed answer: a budget
stop where the seed proved a result, fewer enumerate emissions, a wider
interval.  A stronger answer passes.  ``summarize`` gives the part of a
report that ``answers.json`` records.
"""

from __future__ import annotations

import math
from fractions import Fraction

from zecap.alpha import IndependentSetWitness
from zecap.cli import parse_graph
from zecap.creal import parse_real
from zecap.decide import Certificate
from zecap.graphs import complement, encode
from zecap.preorder import HomWitness


def _theta_cycle(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


# Closed forms of theta, as (exact square root radicand or None, float value).
THETA_CLOSED = {
    "C5": (5, math.sqrt(5)),
    "C5^2": (25, 5.0),
    "C7": (None, _theta_cycle(7)),
    "C9": (None, _theta_cycle(9)),
    "C7^2": (None, _theta_cycle(7) ** 2),
    "S+C5": (None, 1 + math.sqrt(5)),
}

# Capacity facts: ("sqrt", k, offset) means offset + sqrt(k) exactly;
# ("bracket", a, e, upper) means a^(1/e) <= capacity <= upper, from a
# published independent set of the e-th power and theta.
CAPACITY = {
    "C5": ("sqrt", 5, 0),
    "S+C5": ("sqrt", 5, 1),
    "K3*E2": ("sqrt", 4, 0),  # perfect: capacity = alpha = 2
    "K2": ("sqrt", 1, 0),
    "C7": ("bracket", 367, 5, _theta_cycle(7)),  # alpha(C7^5) >= 367, Polak-Schrijver 2019
    "C9": ("bracket", 18, 2, _theta_cycle(9)),  # alpha(C9^2) = 18
}

FLOAT_SLACK = 1e-12


def _le_sqrt(x: Fraction, k: int) -> bool:
    return x <= 0 or x * x <= k


def _ge_sqrt(x: Fraction, k: int) -> bool:
    return x >= 0 and x * x >= k


def _capacity_problem(graph: str, lower: Fraction, upper: Fraction | None) -> str | None:
    fact = CAPACITY[graph]
    if fact[0] == "sqrt":
        _, k, offset = fact
        if not _le_sqrt(lower - offset, k):
            return f"lower {lower} exceeds the capacity of {graph}"
        if upper is not None and not _ge_sqrt(upper - offset, k):
            return f"upper {upper} is below the capacity of {graph}"
        return None
    _, a, e, hi = fact
    if float(lower) > hi + FLOAT_SLACK:
        return f"lower {lower} exceeds theta({graph})"
    if upper is not None and (upper < 0 or upper**e < a):
        return f"upper {upper} is below {a}^(1/{e}) <= capacity of {graph}"
    return None


def _frac(text) -> Fraction | None:
    return None if text is None else Fraction(text)


def summarize(job: dict, code: int, report: dict) -> dict:
    kind = job["kind"]
    r = report["results"]
    out: dict = {"code": code}
    if kind == "alpha":
        out["alpha"] = r.get("alpha")
    elif kind == "ladder":
        out["alphas"] = [lv["alpha"] for lv in r["levels"]]
    elif kind == "theta":
        out.update(lo=r["lo"], hi=r["hi"])
    elif kind == "chif":
        out["value"] = r["value"]
    elif kind == "decide":
        cert = r["certificate"]
        out.update(status=r["status"], alpha_power=cert and cert["alpha_power"])
    elif kind == "enumerate":
        out["emitted"] = [
            [e["slot"], e["certificate"]["k"], e["certificate"]["alpha_power"]] for e in r["emitted"]
        ]
    elif kind == "interval":
        lower, upper = _frac(r["lower"]), _frac(r["upper"])
        out["status"] = r.get("status")
        out["width"] = None if upper is None else str(upper - lower)
    elif kind == "locate":
        out["cells"] = r["cells"]
    elif kind == "capacity":
        scale = r["theta_scale"]
        out["width"] = scale["width"]
    elif kind == "preorder":
        out["established"] = r["established"]
    elif kind == "asym":
        out["status"] = r["status"]
    return out


def _check_alpha(job, code, r, seed):
    if code == 3:
        return None if r.get("kind") == "budget" else "exit 3 without a budget stop"
    g = parse_graph(job["argv"][2])
    if not IndependentSetWitness(r["witness"], r["alpha"]).verify(g):
        return "witness does not verify"
    known = job["expect"].get("known")
    if known is not None and r["alpha"] != known:
        return f"alpha {r['alpha']} != known {known}"
    if seed and seed["alpha"] is not None and r["alpha"] != seed["alpha"]:
        return f"alpha {r['alpha']} != seed {seed['alpha']}"
    return None


def _check_ladder(job, code, r, seed):
    alphas = [lv["alpha"] for lv in r["levels"]]
    known = job["expect"].get("known")
    if known is not None and alphas != known[: len(alphas)]:
        return f"ladder alphas {alphas} != known {known}"
    if seed and alphas != seed["alphas"][: len(alphas)]:
        return f"ladder alphas {alphas} != seed {seed['alphas']}"
    return None


def _check_theta(job, code, r, seed):
    lo, hi = Fraction(r["lo"]), Fraction(r["hi"])
    tol = Fraction(job["argv"][job["argv"].index("--tol") + 1])
    if not lo <= hi:
        return f"empty interval [{lo}, {hi}]"
    if hi - lo > tol:
        return f"width {float(hi - lo):.3g} exceeds tol {float(tol):.3g}"
    closed = job["expect"].get("closed")
    if closed is not None:
        radicand, value = THETA_CLOSED[closed]
        if radicand is not None:
            inside = _le_sqrt(lo, radicand) and _ge_sqrt(hi, radicand)
        else:
            inside = float(lo) <= value + FLOAT_SLACK and float(hi) >= value - FLOAT_SLACK
        if not inside:
            return f"[{float(lo)}, {float(hi)}] misses theta({closed}) = {value}"
    elif seed and max(lo, Fraction(seed["lo"])) > min(hi, Fraction(seed["hi"])):
        return f"[{float(lo)}, {float(hi)}] misses the seed interval"
    return None


def _check_chif(job, code, r, seed):
    want = job["expect"].get("known") or (seed and seed["value"])
    if want is not None and Fraction(r["value"]) != Fraction(want):
        return f"chi_f {r['value']} != {want}"
    return None


def _check_decide(job, code, r, seed):
    argv = job["argv"]
    lam_text = argv[argv.index("--lambda") + 1]
    if r["status"] == "Halted":
        if not job["expect"]["truth"]:
            return "halted on a false threshold"
        c = r["certificate"]
        cert = Certificate(
            graph_index=c["graph_index"],
            lambda_expr=c["lambda_expr"],
            level=c["k"],
            precision=c["n"],
            alpha_power=c["alpha_power"],
            lhs=Fraction(c["inequality_lhs"]),
            rhs=Fraction(c["inequality_rhs"]),
        )
        if cert.graph_index != encode(parse_graph(argv[argv.index("--graph") + 1])):
            return "certificate names another graph"
        if not cert.verify(parse_real(lam_text)):
            return "certificate fails exact verification"
        if seed and seed["status"] == "Halted" and seed["alpha_power"] != c["alpha_power"]:
            return f"alpha_power {c['alpha_power']} != seed {seed['alpha_power']}"
    return None


def _check_enumerate(job, code, r, seed):
    argv = job["argv"]
    lam = parse_real(argv[argv.index("--lambda") + 1])
    for e in r["emitted"]:
        c = e["certificate"]
        cert = Certificate(
            c["graph_index"], c["lambda_expr"], c["k"], c["n"], c["alpha_power"],
            Fraction(c["inequality_lhs"]), Fraction(c["inequality_rhs"]),
        )
        if c["graph_index"] != e["slot"] - 1 or not cert.verify(lam):
            return f"emission at slot {e['slot']} does not verify"
    if seed:
        if len(r["emitted"]) < len(seed["emitted"]):
            return f"{len(r['emitted'])} emissions, seed had {len(seed['emitted'])}"
        seen = {(slot, k): a for slot, k, a in seed["emitted"]}
        for e in r["emitted"]:
            c = e["certificate"]
            if seen.get((e["slot"], c["k"]), c["alpha_power"]) != c["alpha_power"]:
                return f"slot {e['slot']} alpha_power differs from the seed"
    return None


def _width_problem(width: Fraction | None, seed) -> str | None:
    if seed and seed.get("width") is not None:
        if width is None or width > Fraction(seed["width"]):
            return f"interval wider than the seed's {seed['width']}"
    return None


def _check_interval(job, code, r, seed):
    lower, upper = _frac(r["lower"]), _frac(r["upper"])
    problem = _capacity_problem(job["expect"]["graph"], lower, upper)
    if problem:
        return problem
    return _width_problem(None if upper is None else upper - lower, seed)


def _check_locate(job, code, r, seed):
    scale = 1 << r["resolution"]
    first, last = Fraction(r["cells"][0], scale), Fraction(r["cells"][-1] + 1, scale)
    problem = _capacity_problem(job["expect"]["graph"], first, last)
    if problem:
        return "cells miss the capacity: " + problem
    if seed and len(r["cells"]) > len(seed["cells"]):
        return "more cells than the seed"
    return None


def _check_capacity(job, code, r, seed):
    scale = r["theta_scale"]
    lower, upper = _frac(scale["lower"]), _frac(scale["upper"])
    problem = _capacity_problem(job["expect"]["graph"], lower, upper)
    if problem:
        return problem
    return _width_problem(None if upper is None else upper - lower, seed)


def _check_preorder(job, code, r, seed):
    left, right = (parse_graph(x) for x in job["argv"][1:3])
    if r["established"]:
        mapping = tuple(r["mapping"])
        if not HomWitness(complement(left), complement(right), mapping).verify():
            return "mapping does not verify"
    if seed and r["established"] != seed["established"]:
        return f"established={r['established']}, seed said {seed['established']}"
    return None


def _check_asym(job, code, r, seed):
    m = int(job["argv"][job["argv"].index("--m") + 1])
    if r["status"] == "Established" and r["k"] * m > r["n"]:
        return "witness breaks the rate condition k*m <= n"
    return None


CHECKS = {
    "alpha": _check_alpha,
    "ladder": _check_ladder,
    "theta": _check_theta,
    "chif": _check_chif,
    "decide": _check_decide,
    "enumerate": _check_enumerate,
    "interval": _check_interval,
    "locate": _check_locate,
    "capacity": _check_capacity,
    "preorder": _check_preorder,
    "asym": _check_asym,
}

# Exit codes a sound job may end with: budget stops (3) are honest answers.
ALLOWED_CODES = {0, 3}


def check(job: dict, code: int, report: dict, seed: dict | None) -> str | None:
    """None when the answer is sound and no weaker than the seed's, else why not."""
    if code not in ALLOWED_CODES:
        return f"exit code {code}: {report['results'].get('error')}"
    r = report["results"]
    if "error" in r and job["kind"] not in ("alpha", "ladder"):
        return f"error report: {r['error']}"
    # exit 3 is a budget stop (or an undecided threshold): weaker than a 0
    if seed and code > seed["code"]:
        return f"exit code {code} where the seed gave {seed['code']}"
    return CHECKS[job["kind"]](job, code, r, seed)
