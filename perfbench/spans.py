"""Layer spans and counters recorded from outside the zecap package.

``install`` wraps every public function of the zecap modules (and
``CReal.approx``), then patches every module attribute that is bound to the
original function.  ``from .alpha import solve_alpha`` copies the function
into ``zecap.decide``, ``zecap.cli``, ``zecap.channel`` and
``zecap.preorder``; patching only ``zecap.alpha`` would miss those calls.
The package attribute ``zecap.alpha`` is the function ``alpha``, not the
module, so modules are reached through ``importlib.import_module``.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the spans it encloses; its inclusive time is counted only at the
outermost span of that name, so a function that reaches itself is not
counted twice.  Counters are read from arguments, results and budget
errors at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("graphs", "alpha", "creal", "exact", "spectrum", "decide", "preorder", "channel", "cli")

# Module attributes that must be bound to a wrapper after ``install``: the
# defining module and every module that imported the name.  The benchmark's
# test checks them, so a refactor that renames or drops one fails there
# instead of tracing zeros.
REQUIRED_SITES = (
    ("zecap.alpha", "solve_alpha"),
    ("zecap.decide", "solve_alpha"),
    ("zecap.cli", "solve_alpha"),
    ("zecap.channel", "solve_alpha"),
    ("zecap.preorder", "solve_alpha"),
    ("zecap.alpha", "ladder"),
    ("zecap.cli", "ladder"),
    ("zecap.decide", "alpha_ladder"),
    ("zecap.spectrum", "alpha_ladder"),
    ("zecap.exact", "is_positive_definite"),
    ("zecap.spectrum", "is_positive_definite"),
    ("zecap.exact", "simplex_max"),
    ("zecap.spectrum", "simplex_max"),
    ("zecap.spectrum", "lovasz_theta"),
    ("zecap.decide", "lovasz_theta"),
    ("zecap.cli", "lovasz_theta"),
    ("zecap.spectrum", "maximal_cliques"),
    ("zecap.spectrum", "sandwich"),
    ("zecap.decide", "sandwich"),
    ("zecap.channel", "sandwich"),
    ("zecap.graphs", "strong_product"),
    ("zecap.alpha", "strong_product"),
    ("zecap.cli", "strong_product"),
    ("zecap.preorder", "strong_product"),
    ("zecap.graphs", "strong_power"),
    ("zecap.decide", "strong_power"),
    ("zecap.channel", "strong_power"),
    ("zecap.creal", "root_pow2"),
    ("zecap.decide", "semidecide_gt"),
    ("zecap.cli", "semidecide_gt"),
    ("zecap.decide", "enumerate_gt"),
    ("zecap.decide", "squeeze_capacity"),
    ("zecap.decide", "locate_grid"),
    ("zecap.preorder", "leq"),
    ("zecap.cli", "leq"),
    ("zecap.preorder", "asymptotic_leq_bounded"),
    ("zecap.channel", "capacity_bounds"),
    ("zecap.cli", "capacity_bounds"),
    ("zecap.channel", "confusability_graph"),
    ("zecap.cli", "run"),
)

# Spans whose statistics the benchmark reports.
REPORTED_SPANS = (
    "alpha.solve_alpha",
    "alpha.ladder",
    "graphs.strong_product",
    "spectrum.lovasz_theta",
    "spectrum.maximal_cliques",
    "exact.is_positive_definite",
    "exact.simplex_max",
    "creal.CReal.approx",
    "creal.root_pow2",
    "decide.semidecide_gt",
    "decide.enumerate_gt",
    "decide.squeeze_capacity",
    "decide.locate_grid",
    "preorder.leq",
    "preorder.asymptotic_leq_bounded",
    "channel.capacity_bounds",
    "channel.confusability_graph",
    "cli.run",
)

THETA = "spectrum.lovasz_theta"
ENUMERATE = "decide.enumerate_gt"
SQUEEZE = "decide.squeeze_capacity"


class Recorder:
    """Per-process span statistics and counters."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of enclosed spans]
        self.depth: Counter = Counter()
        self.spans: dict[str, dict] = {}
        self.counts: Counter = Counter()  # exact work counts
        self.times: Counter = Counter()  # seconds summed outside spans
        self.maxima: dict[str, float] = {}

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, name: str, fn, before=None, after=None, failed=None):
        stats = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            self.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(self, exc)
                raise
            finally:
                duration = time.perf_counter() - frame[0]
                self.stack.pop()
                self.depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if not self.depth[name]:
                    stats["s"] += duration
                if self.stack:
                    self.stack[-1][1] += duration
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "times": dict(self.times),
            "maxima": self.maxima,
        }


# ---------------------------------------------------------------------------
# counters read at the layer boundaries


def _solve_alpha_before(rec, args, kwargs):
    if rec.depth[ENUMERATE]:
        rec.counts["decide.enumerate_gt.alpha_calls"] += 1


def _solve_alpha_after(rec, args, kwargs, result):
    rec.counts["alpha.solve_alpha.nodes"] += result[1]


def _solve_alpha_failed(rec, exc):
    from zecap.errors import BudgetError

    if isinstance(exc, BudgetError):
        rec.counts["alpha.solve_alpha.nodes"] += exc.used or 0
        rec.counts["alpha.solve_alpha.budget_stops"] += 1


def _strong_product_after(rec, args, kwargs, result):
    rec.counts["graphs.strong_product.vertices"] += result.n
    rec.peak("graphs.adjacency_bytes_computed", result.n * result.n / 8)


def _theta_before(rec, args, kwargs):
    if rec.depth[SQUEEZE]:
        rec.counts["decide.squeeze_capacity.theta_calls"] += 1


def _pd_after(rec, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    rec.peak("exact.is_positive_definite.max_n", len(matrix))
    if result:
        rec.counts["exact.is_positive_definite.accepts"] += 1
    if rec.depth[THETA]:
        rec.counts["spectrum.theta.certify"] += 1


def _cliques_after(rec, args, kwargs, result):
    rec.counts["spectrum.maximal_cliques.cliques"] += len(result)


def _simplex_after(rec, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    rec.peak("exact.simplex_max.max_rows", len(rows))


def _approx_after(rec, args, kwargs, result):
    bits = args[1] if len(args) > 1 else kwargs["n"]
    rec.peak("creal.CReal.approx.max_bits", bits)


def _count_attr(key: str, attr: str):
    def after(rec, args, kwargs, result):
        rec.counts[key] += getattr(result, attr)

    return after


HOOKS = {
    "alpha.solve_alpha": (_solve_alpha_before, _solve_alpha_after, _solve_alpha_failed),
    "graphs.strong_product": (None, _strong_product_after, None),
    "spectrum.lovasz_theta": (_theta_before, None, None),
    "exact.is_positive_definite": (None, _pd_after, None),
    "spectrum.maximal_cliques": (None, _cliques_after, None),
    "exact.simplex_max": (None, _simplex_after, None),
    "creal.CReal.approx": (None, _approx_after, None),
    "decide.semidecide_gt": (None, _count_attr("decide.semidecide_gt.steps", "steps_used"), None),
    "decide.squeeze_capacity": (None, _count_attr("decide.squeeze_capacity.rounds", "rounds_used"), None),
    "preorder.leq": (None, _count_attr("preorder.leq.hom_nodes", "nodes_used"), None),
    "preorder.asymptotic_leq_bounded": (
        None,
        _count_attr("preorder.asymptotic_leq_bounded.tests", "tests_used"),
        None,
    ),
}


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    ]


def _wrap_eigh(rec: Recorder) -> None:
    """Count np.linalg.eigh calls inside theta spans: one per ADMM iteration."""
    import numpy as np

    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def counted(*args, **kwargs):
        if not rec.depth[THETA]:
            return eigh(*args, **kwargs)
        start = time.perf_counter()
        try:
            return eigh(*args, **kwargs)
        finally:
            rec.counts["spectrum.theta.admm_iterations"] += 1
            rec.times["spectrum.theta.eig_s"] += time.perf_counter() - start

    np.linalg.eigh = counted


def install(rec: Recorder) -> list[tuple[str, str]]:
    """Wrap the layers and patch every binding; returns the patched sites.

    Raises LookupError when a reported layer function is missing,
    so a renamed layer fails the traced run instead of recording zeros.
    """
    modules = {name: importlib.import_module(f"zecap.{name}") for name in MODULES}
    replacements = {}  # id of the original -> (original, wrapper)
    for short, module in modules.items():
        for fname in _public_functions(module):
            span = f"{short}.{fname}"
            fn = getattr(module, fname)
            replacements[id(fn)] = (fn, rec.wrap(span, fn, *HOOKS.get(span, (None, None, None))))
    creal_cls = modules["creal"].CReal
    creal_cls.approx = rec.wrap("creal.CReal.approx", creal_cls.approx, *HOOKS["creal.CReal.approx"])
    missing = sorted(set(REPORTED_SPANS) - set(rec.spans))
    if missing:
        raise LookupError(f"traced layers missing from zecap: {missing}")
    patched = []
    for module in [importlib.import_module("zecap"), *modules.values()]:
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module.__name__, attr))
    _wrap_eigh(rec)
    return patched


# ---------------------------------------------------------------------------
# layer probes: single calls timed outside any CLI job


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _grid_matrix(n: int, seed: int):
    """Symmetric positive definite matrix with entries on the 2^-40 grid,
    shaped like a theta certificate (t*I - A with |A_ij| <= 1)."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    grid = 1 << 40
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = Fraction(rng.randrange(-grid, grid + 1), grid)
            m[i][j] = m[j][i] = -q
        m[i][i] = Fraction(n * grid + rng.randrange(grid), grid)
    return m


def probes() -> dict[str, float]:
    """Per-layer probe timings (median of repeats), in seconds."""
    from zecap.creal import root_pow2
    from zecap.exact import is_positive_definite
    from zecap.graphs import cycle_graph, strong_power

    c5 = cycle_graph(5)
    out = {
        "graphs.strong_power_c5_4_s": _timed(lambda: strong_power(c5, 4), 5),
        "creal.root_pow2_10_3_approx4096_s": _timed(lambda: root_pow2(10, 3).approx(4096), 5),
    }
    for n, repeats in ((16, 5), (32, 5), (64, 3)):
        matrix = _grid_matrix(n, n)
        if not is_positive_definite(matrix):
            raise AssertionError(f"probe matrix n={n} must be positive definite")
        out[f"exact.bareiss_n{n}_s"] = _timed(lambda: is_positive_definite(matrix), repeats)
    return out
