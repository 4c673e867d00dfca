"""Certified upper bounds: theta intervals, exact clique covers, the sandwich."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from zecap import (
    BoundsReport,
    BudgetError,
    ConvergenceError,
    InputError,
    UpperBound,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    fractional_clique_cover,
    lovasz_theta,
    maximal_cliques,
    sandwich,
    single_vertex,
    solve_alpha,
    strong_power,
)
from zecap import exact, spectrum
from zecap.exact import is_positive_definite
from zecap.graphs import Graph, complement, strong_product

from conftest import brute_alpha, random_graph

TOL = Fraction(1, 10**6)


def brute_maximal_cliques(g: Graph) -> set[int]:
    """All maximal cliques by scanning every vertex subset."""
    cliques = set()
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                cliques.add(sum(1 << v for v in combo))
    return {
        c
        for c in cliques
        if not any(o != c and c & o == c for o in cliques)
    }


def odd_cycle_theta(n: int) -> float:
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


class TestMaximalCliques:
    def test_against_brute_force(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            assert set(maximal_cliques(g)) == brute_maximal_cliques(g)

    def test_empty_graph(self):
        assert maximal_cliques(Graph(0, ())) == []

    def test_clique_budget(self):
        # complement of 8 disjoint triangles has 3^8 maximal cliques
        from zecap.graphs import complement

        g = complete_graph(3)
        for _ in range(7):
            g = disjoint_union(g, complete_graph(3))
        with pytest.raises(BudgetError):
            maximal_cliques(complement(g), cap=1000)


class TestCliqueCover:
    def test_closed_forms(self):
        assert fractional_clique_cover(cycle_graph(5)).value == Fraction(5, 2)
        assert fractional_clique_cover(cycle_graph(7)).value == Fraction(7, 2)
        assert fractional_clique_cover(complete_graph(6)).value == 1
        assert fractional_clique_cover(edgeless_graph(6)).value == 6
        assert fractional_clique_cover(single_vertex()).value == 1
        assert fractional_clique_cover(Graph(0, ())).value == 0

    def test_exactness(self):
        b = fractional_clique_cover(cycle_graph(9))
        assert b.value == Fraction(9, 2)
        assert b.lo == b.hi and b.tolerance == 0

    def test_at_least_alpha(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            assert fractional_clique_cover(g).value >= brute_alpha(g)

    def test_union_is_additive(self, pentagon):
        g = disjoint_union(pentagon, complete_graph(3))
        assert fractional_clique_cover(g).value == Fraction(7, 2)

    def test_multiplicative_under_strong_product(self, rng):
        # a point of the asymptotic spectrum multiplies under the strong product
        for _ in range(40):
            a = rng.randint(1, 6)
            g = random_graph(rng, a)
            h = random_graph(rng, rng.randint(1, 24 // a))
            assert fractional_clique_cover(strong_product(g, h)).value == (
                fractional_clique_cover(g).value * fractional_clique_cover(h).value
            )

    def test_strong_product_closed_forms(self, pentagon):
        c5_c4 = strong_product(pentagon, cycle_graph(4))
        assert fractional_clique_cover(c5_c4).value == 5
        c7_e3 = strong_product(cycle_graph(7), edgeless_graph(3))
        assert fractional_clique_cover(c7_e3).value == Fraction(21, 2)

    def test_vertex_cap(self):
        with pytest.raises(BudgetError):
            fractional_clique_cover(edgeless_graph(25))


class TestTheta:
    def test_interval_contract(self, pentagon):
        b = lovasz_theta(pentagon, TOL)
        assert b.kind == "lovasz_theta"
        assert b.hi - b.lo <= TOL
        assert b.value == b.hi

    def test_pentagon_closed_form(self, pentagon):
        b = lovasz_theta(pentagon, TOL)
        # theta(C5) = sqrt(5): certify the bracket by exact squaring
        assert b.lo > 0 and b.lo * b.lo < 5 < b.hi * b.hi

    def test_heptagon_closed_form(self):
        b = lovasz_theta(cycle_graph(7), TOL)
        t = odd_cycle_theta(7)
        assert float(b.lo) <= t <= float(b.hi)

    def test_complete_and_edgeless(self):
        for n in (1, 2, 4):
            b = lovasz_theta(complete_graph(n), TOL)
            assert b.lo <= 1 <= b.hi
            e = lovasz_theta(edgeless_graph(n), TOL)
            assert e.lo <= n <= e.hi

    def test_union_with_single_vertex(self, pentagon):
        # theta(K1 + C5) = 1 + sqrt(5)
        b = lovasz_theta(disjoint_union(single_vertex(), pentagon), TOL)
        assert (b.lo - 1) ** 2 < 5 < (b.hi - 1) ** 2

    def test_between_alpha_and_cover(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12))
            b = lovasz_theta(g, Fraction(1, 10**4))
            assert b.hi >= brute_alpha(g)
            assert b.lo <= fractional_clique_cover(g).value

    def test_input_validation(self, pentagon):
        with pytest.raises(InputError):
            lovasz_theta(Graph(0, ()), TOL)
        with pytest.raises(InputError):
            lovasz_theta(pentagon, 0)
        with pytest.raises(BudgetError):
            lovasz_theta(edgeless_graph(65), TOL)
        # below the certifiable width (about n * 2^-32 * theta) is a solver stop
        with pytest.raises(ConvergenceError):
            lovasz_theta(pentagon, Fraction(1, 10**12))

    def test_vertex_transitive_products(self):
        # theta(G) * theta(complement G) = n when G is vertex-transitive
        pairs = list(combinations(range(5), 2))  # Petersen: 2-subsets, adjacent when disjoint
        petersen = Graph.from_edges(
            10, [(i, j) for i, j in combinations(range(10), 2) if not set(pairs[i]) & set(pairs[j])]
        )
        for g in (*map(cycle_graph, (5, 7, 9, 11)), strong_power(cycle_graph(5), 2), petersen):
            b, c = lovasz_theta(g, TOL), lovasz_theta(complement(g), TOL)
            assert b.lo * c.lo <= g.n <= b.hi * c.hi
        b = lovasz_theta(petersen, TOL)
        assert b.lo <= 4 <= b.hi

    def test_random_graph_at_roadmap_scale(self):
        # G(30, 1/2) as in the ROADMAP baseline: pairs u < v in row-major order
        rng = random.Random(1)
        g = random_graph(rng, 30)
        tol = Fraction(1, 10**4)
        b = lovasz_theta(g, tol)
        assert b.hi - b.lo <= tol
        assert b.hi >= solve_alpha(g)[0].size
        assert b.hi * lovasz_theta(complement(g), tol).hi >= 30


class TestCertificationRetry:
    """The diagonal lift grows its shift until the exact test passes."""

    @pytest.fixture
    def witness(self, pentagon):
        witness, _ = spectrum._theta_solve(5, *np.array(pentagon.edges()).T)
        return witness

    def test_low_eigenvalue_estimate_still_certifies(self, pentagon, witness, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - 1e-3)
        verdicts = []

        def recorded(matrix):
            verdicts.append(is_positive_definite(matrix))
            return verdicts[-1]

        monkeypatch.setattr(spectrum, "is_positive_definite", recorded)
        hi = spectrum._certify_upper(witness, pentagon.edges())
        assert len(verdicts) > 1 and not verdicts[0] and verdicts[-1]
        # hi*I - A, rebuilt in Fractions: ones off the edges, snapped edge entries
        grid = 1 << 40
        a = [[Fraction(1)] * 5 for _ in range(5)]
        for u, v in pentagon.edges():
            a[u][v] = a[v][u] = Fraction(round(float(witness[u, v]) * grid), grid)
        assert is_positive_definite([[(hi if i == j else 0) - a[i][j] for j in range(5)]
                                     for i in range(5)])
        assert hi * hi > 5  # theta(C5) = sqrt(5) <= lambda_max(A) <= hi

    def test_exhausted_shifts_raise(self, pentagon, witness, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - 1e6)
        with pytest.raises(ConvergenceError, match="dual witness"):
            spectrum._certify_upper(witness, pentagon.edges())
        # the lift starts at 257 grid units; 257 * 4^39 stays below 10^15 * 2^40
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.zeros(len(a)))
        with pytest.raises(ConvergenceError, match="primal witness"):
            spectrum._certify_lower(-1e15 * np.eye(3), [])


class TestCertificateHotPath:
    """Certifying theta proves positive definiteness by the residual
    certificate alone; the elimination fallback stays off this path."""

    @pytest.mark.parametrize(
        "g",
        [strong_power(cycle_graph(5), 2), strong_power(cycle_graph(7), 2),
         random_graph(random.Random(16), 16)],
        ids=["C5^2", "C7^2", "gnp16"],
    )
    def test_no_elimination_fallback(self, g, monkeypatch):
        def fallback(a):
            raise AssertionError(f"elimination fallback reached at n = {len(a)}")

        monkeypatch.setattr(exact, "_bareiss", fallback)
        lo, hi = spectrum._theta_interval.__wrapped__(g)  # past the cache
        assert 0 < lo <= hi


class TestSandwich:
    def test_pentagon_report(self, pentagon):
        r = sandwich(pentagon, 1, Fraction(1, 10**4))
        assert isinstance(r, BoundsReport)
        assert [v.alpha_value for v in r.ladder] == [2, 5]
        assert r.errors == []
        # lower is a rational just below sqrt(5); upper within tol above
        assert r.lower * r.lower < 5
        assert (r.lower + Fraction(1, 10**3)) ** 2 > 5
        assert r.upper is not None and r.upper * r.upper > 5
        assert r.width() is not None and r.width() < Fraction(1, 10**3)

    def test_perfect_graph_collapses_tight(self):
        r = sandwich(complete_graph(4), 1, Fraction(1, 10**4))
        assert r.lower == 1 and r.upper == 1 and r.width() == 0

    def test_lower_never_exceeds_upper(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 5))
            r = sandwich(g, 1, Fraction(1, 10**4))
            assert r.errors == []
            assert r.upper is not None and r.lower <= r.upper

    def test_ladder_budget_degrades_gracefully(self, pentagon):
        r = sandwich(pentagon, 3, Fraction(1, 10**4), max_power_vertices=100)
        assert any("ladder" in e for e in r.errors)
        assert [v.alpha_value for v in r.ladder] == [2, 5]
        assert r.lower > 2  # still uses the levels that finished

    def test_empty_graph_report(self):
        r = sandwich(Graph(0, ()), 0, Fraction(1, 10**4))
        assert r.lower == 0 and r.upper == 0

    def test_isolated_vertex(self):
        r = sandwich(single_vertex(), 1, Fraction(1, 10**4))
        assert r.lower == 1 and r.upper == 1


class TestUpperBoundType:
    def test_value_is_high_end(self):
        b = UpperBound("lovasz_theta", Fraction(2), Fraction(3), Fraction(1))
        assert b.value == 3
