"""End-to-end acceptance gate: eight criteria, each printing one verdict line.

Every test prints "criterion N (<name>): PASS|FAIL" so the suite's output
doubles as a checklist.  Timing limits are asserted, generously enough to
survive machine noise, but tight enough that the intended fast paths must
actually be taken.
"""

import time
from fractions import Fraction

from zecap import (
    BUDGET_EXHAUSTED,
    HALTED,
    VALUE,
    Graph,
    PowerLadder,
    capacity_bounds,
    confusability_graph,
    cycle_graph,
    decode,
    disjoint_union,
    encode,
    fractional_clique_cover,
    from_rational,
    index_offset,
    is_isomorphic,
    ladder,
    lovasz_theta,
    sandwich,
    semidecide_gt,
    single_vertex,
    solve_alpha,
    squeeze_capacity,
    strong_power,
    strong_product,
)

from conftest import (
    brute_alpha, make_bsc, make_pentagon_channel, random_graph, strassen_axiom_suite,
)


class _Verdict:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        word = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(
            f"criterion {self.number} ({self.name}): {word} "
            f"[{elapsed:.2f}s of {self.limit_s:.0f}s allowed]"
        )
        assert ok, f"criterion {self.number} ({self.name}) assertions failed"
        assert elapsed < self.limit_s, (
            f"criterion {self.number} ({self.name}) took {elapsed:.2f}s, "
            f"limit {self.limit_s}s"
        )


def test_criterion_1_pentagon_exact_pin():
    v = _Verdict(1, "pentagon exact pin", 10.0)
    ok = False
    try:
        report = sandwich(cycle_graph(5), 1, Fraction(1, 10**5))
        tol = Fraction(1, 10**4)
        # lower bound is the 48-bit rational floor of the exact sqrt(5) value
        assert report.lower_real is not None
        assert report.lower_real.description == "sqrt(5)"
        assert [lv.alpha_value for lv in report.ladder] == [2, 5]
        assert report.lower > 0 and report.lower**2 < 5
        assert (report.lower + Fraction(1, 1 << 40)) ** 2 > 5
        # upper <= sqrt(5) + 1e-4, checked by exact squaring of (upper - tol)
        assert report.upper is not None
        assert report.upper**2 > 5  # genuinely an upper bound
        assert (report.upper - tol) ** 2 < 5
        width = report.width()
        assert width is not None and width <= tol
        ok = True
    finally:
        v.finish(ok)


def test_criterion_2_perfect_small_graphs_collapse():
    v = _Verdict(2, "perfect small graphs", 15 * 60.0)
    ok = False
    try:
        pentagon = cycle_graph(5)
        target = Fraction(1, 1 << 10)
        checked = 0
        skipped_pentagons = 0
        for index in range(index_offset(6)):
            g = decode(index)
            if g.n == 5 and is_isomorphic(g, pentagon):
                skipped_pentagons += 1
                continue
            result = squeeze_capacity(g, 10)
            a = brute_alpha(g)
            assert result.status == VALUE, (index, result)
            assert result.width() < target, (index, result)
            assert result.lower <= a <= result.upper, (index, a, result)
            checked += 1
        assert checked == 1100 - 12
        assert skipped_pentagons == 12
        ok = True
    finally:
        v.finish(ok)


def test_criterion_3_union_gap_needs_the_limit():
    v = _Verdict(3, "union gap", 60.0)
    ok = False
    try:
        g = disjoint_union(single_vertex(), cycle_graph(5))
        levels = ladder(PowerLadder(g), 1)
        assert [lv.alpha_value for lv in levels] == [3, 10]
        f1 = levels[1].root

        # upper bound within 1e-4 of 1 + sqrt(5), by exact squaring
        report = sandwich(g, 1, Fraction(1, 10**4))
        tol = Fraction(1, 10**4)
        assert report.upper is not None
        assert (report.upper - 1) ** 2 > 5  # above 1 + sqrt(5)
        assert (report.upper - tol - 1) ** 2 < 5  # but within tol of it

        # strictness: sqrt(10) < 1 + sqrt(5).  Bracket both sides exactly:
        # an upper rational for f_1 must sit below a lower rational for the
        # target.  (1 + sqrt(5) - u)^2 > 0 is rephrased via (u - 1)^2 vs 5.
        u = f1.upper_bound(64)
        assert u > 1 and (u - 1) ** 2 < 5
        ok = True
    finally:
        v.finish(ok)


def test_criterion_4_semidecision_soundness_sweep():
    v = _Verdict(4, "semi-decision soundness", 5 * 60.0)
    ok = False
    try:
        budget = 10**4
        for index in range(index_offset(5)):
            g = decode(index)
            a = solve_alpha(g)[0].size
            below = Fraction(2 * a - 1, 2)  # alpha - 1/2
            lam_below = from_rational(below)
            out = semidecide_gt(g, lam_below, budget)
            assert out.status == HALTED, (index, below)
            cert = out.certificate
            assert cert is not None and cert.verify(lam_below), index
            assert cert.graph_index == encode(g)

            lam_at = from_rational(a)
            out = semidecide_gt(g, lam_at, budget)
            assert out.status == BUDGET_EXHAUSTED, (index, a)
            assert out.certificate is None
        ok = True
    finally:
        v.finish(ok)


def test_criterion_5_numbering_round_trip():
    v = _Verdict(5, "numbering round trip", 1.0)
    ok = False
    try:
        boundaries = [index_offset(n) for n in range(7)]
        assert boundaries == sorted(boundaries)
        assert boundaries[-1] == 1100
        for index in range(1100):
            g = decode(index)
            assert encode(g) == index
            # the index sits inside its size block
            assert index_offset(g.n) <= index < index_offset(g.n + 1)
        ok = True
    finally:
        v.finish(ok)


def test_criterion_6_preorder_axioms(rng):
    v = _Verdict(6, "preorder axioms", 2 * 60.0)
    ok = False
    try:
        sample = []
        for _ in range(100):
            sample.append(
                (random_graph(rng, rng.randint(1, 3)), random_graph(rng, rng.randint(1, 3)))
            )
        for _ in range(100):
            sample.append(
                (
                    random_graph(rng, rng.randint(1, 3)),
                    random_graph(rng, rng.randint(1, 3)),
                    random_graph(rng, rng.randint(1, 3)),
                )
            )
        report = strassen_axiom_suite(sample, embed_max=5)
        assert report.skipped == []
        assert report.passed, report.violations
        counting = [c for c in report.checks if c.law == "counting-order"]
        assert len(counting) == 36 and all(c.holds for c in counting)
        ok = True
    finally:
        v.finish(ok)


def test_criterion_7_channel_reduction():
    v = _Verdict(7, "channel reduction", 30.0)
    ok = False
    try:
        ch = make_pentagon_channel()
        g = confusability_graph(ch)
        assert is_isomorphic(g, cycle_graph(5))

        # two-letter codes are independent sets of the square: word (a, b) is
        # vertex 5a + b, and two words are distinguishable when some letter
        # pair shares no positive output
        witness, _ = solve_alpha(strong_power(g, 2))
        assert witness.size == 5
        assert witness.verify(strong_product(g, g))
        words = [divmod(v, 5) for v in witness.vertices]
        for i, u in enumerate(words):
            for w in words[i + 1 :]:
                assert any(not ch.support(a) & ch.support(b) for a, b in zip(u, w))

        bsc = make_bsc(Fraction(1, 10))
        report = capacity_bounds(bsc, 1, Fraction(1, 10**4))
        assert report.log2_lower == 0.0
        assert report.log2_upper is not None and report.log2_upper < 1e-4
        ok = True
    finally:
        v.finish(ok)


def test_criterion_8_spectrum_point_homomorphisms(rng):
    v = _Verdict(8, "spectrum homomorphisms", 5 * 60.0)
    ok = False
    try:
        assert fractional_clique_cover(cycle_graph(5)).hi == Fraction(5, 2)

        tol = Fraction(1, 10**5)
        window = 10 * tol
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 4))
            h = random_graph(rng, rng.randint(1, 4))
            tg = lovasz_theta(g, tol)
            th = lovasz_theta(h, tol)
            # rebuilt as literals, so theta is solved on the whole graph
            # rather than composed from g and h by construction
            p, u = strong_product(g, h), disjoint_union(g, h)
            tp = lovasz_theta(Graph(p.n, p.masks), tol)
            tu = lovasz_theta(Graph(u.n, u.masks), tol)
            # multiplicativity: the product interval must hit the product
            # of the factor intervals, within the stated slack
            assert tp.hi >= tg.lo * th.lo - window
            assert tp.lo <= tg.hi * th.hi + window
            assert abs(tp.hi - tg.hi * th.hi) < window
            # additivity under disjoint union
            assert abs(tu.hi - (tg.hi + th.hi)) < window
        ok = True
    finally:
        v.finish(ok)
