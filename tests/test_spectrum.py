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
from zecap.alpha import PowerLadder
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


def clique_rows(g: Graph) -> list[list[int]]:
    return [[cl >> v & 1 for v in range(g.n)] for cl in maximal_cliques(g)]


def exact_chif(g: Graph) -> Fraction:
    rows = clique_rows(g)
    return exact.simplex_max([1] * g.n, rows, [1] * len(rows))[0]


# One lie per condition of exact._proves_packing: (rows, y, pi, d), each
# claiming a value other than the optimum and failing that condition alone.
LIES = {
    "d > 0": ([[1, 1]], [0, 0], [0], 0),  # 0/0
    "y >= 0": ([[1, 1, 0], [0, 1, 1]], [2, -1, 2], [2, 1], 1),  # path P3: 3, not 2
    "rows.y <= d": ([[1, 1]], [1, 1], [2], 1),  # K2: 2, not 1
    # rows^T pi = 1 holds with sum 0: the free-sign dual is unbounded below
    "pi >= 0": ([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], [0, 0, 0], [-1, -1, -1, 3], 1),
    "rows^T pi >= d": ([[1, 1, 0], [0, 1, 1]], [0, 0, 0], [0, 0], 1),  # the slack basis
    "sum y = sum pi": ([[1, 1, 0], [0, 1, 1]], [1, 0, 0], [1, 1], 1),  # P3: 1, not 2
}


def failed_conditions(rows, y, pi, d) -> set[str]:
    """The conditions of LIES that (y, pi, d) fails, checked one by one."""
    holds = {
        "d > 0": d > 0,
        "y >= 0": min(y) >= 0,
        "rows.y <= d": all(sum(a * b for a, b in zip(row, y)) <= d for row in rows),
        "pi >= 0": min(pi) >= 0,
        "rows^T pi >= d": all(sum(p * a for p, a in zip(pi, col)) >= d for col in zip(*rows)),
        "sum y = sum pi": sum(y) == sum(pi),
    }
    return {name for name, ok in holds.items() if not ok}


def unreachable(*args):
    raise AssertionError("simplex_max reached")


class TestCliqueCoverCertificate:
    """The float-proposed, integer-checked fast path of the clique cover."""

    CLOSED = {"C5": Fraction(5, 2), "C7": Fraction(7, 2), "S+C5": Fraction(7, 2),
              "K3*E2": Fraction(2), "K1": Fraction(1), "E6": Fraction(6)}
    # values of seeded G(n, 1/2) from simplex_max alone
    RANDOM = {16: Fraction(4), 20: Fraction(5), 24: Fraction(43, 7)}

    @pytest.fixture
    def fallbacks(self, monkeypatch) -> list[int]:
        """Counts the calls that reach spectrum.simplex_max."""
        calls = []

        def counted(c, rows, rhs):
            calls.append(len(rows))
            return exact.simplex_max(c, rows, rhs)

        monkeypatch.setattr(spectrum, "simplex_max", counted)
        return calls

    def test_hot_path_proves_without_the_simplex(self, monkeypatch):
        from zecap.cli import parse_graph

        monkeypatch.setattr(spectrum, "simplex_max", unreachable)
        for expr, value in self.CLOSED.items():
            assert fractional_clique_cover(parse_graph(expr)).value == value, expr
        for n, value in self.RANDOM.items():
            assert fractional_clique_cover(random_graph(random.Random(n), n)).value == value, n

    def test_sweep_matches_the_exact_simplex(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 20), rng.choice((0.2, 0.5, 0.8)))
            assert exact.packing_optimum(clique_rows(g)) == exact_chif(g)

    @pytest.mark.parametrize("condition", list(LIES))
    def test_each_lie_fails_its_condition(self, condition):
        assert failed_conditions(*LIES[condition]) == {condition}
        assert not exact._proves_packing(*LIES[condition])

    def test_lies_fall_back_to_the_exact_value(self, monkeypatch, fallbacks):
        # the lies on clique matrices: P3 and K2 in maximal_cliques order
        exercised = 0
        for condition, (rows, y, pi, d) in LIES.items():
            g = Graph.from_edges(len(y), [(u, v) for u, v in combinations(range(len(y)), 2)
                                          if any(r[u] and r[v] for r in rows)])
            if clique_rows(g) != rows:
                continue
            monkeypatch.setattr(exact, "_packing_certificate", lambda *args, cert=(y, pi, d): cert)
            fallbacks.clear()
            assert fractional_clique_cover(g).value == exact_chif(g), condition
            assert fallbacks == [len(rows)], condition
            exercised += 1
        assert exercised == len(LIES) - 1

    def test_perturbed_certificates_are_rejected(self, monkeypatch, fallbacks):
        g = random_graph(random.Random(20), 20)
        rows = clique_rows(g)
        a = np.array(rows, dtype=float)
        y, pi, d = exact._packing_certificate(a, *exact._packing_basis(a, 10_000))
        assert exact._proves_packing(rows, y, pi, d)
        j, i = y.index(max(y)), pi.index(max(pi))
        lies = [
            ([*y[:j], y[j] + 1, *y[j + 1:]], pi, d),
            ([*y[:j], y[j] - 1, *y[j + 1:]], pi, d),
            (y, [*pi[:i], pi[i] - 1, *pi[i + 1:]], d),
            (y, [2 * p for p in pi], d),  # a dual that is feasible but not optimal
            (y, pi, d + 1),
            (y, pi, d - 1),
            ([0] * g.n, [0] * len(rows), 1),  # the slack basis
        ]
        for n_lie, cert in enumerate(lies):
            assert not exact._proves_packing(rows, *cert), n_lie
            monkeypatch.setattr(exact, "_packing_certificate", lambda *args, cert=cert: cert)
            fallbacks.clear()
            assert fractional_clique_cover(g).value == self.RANDOM[20], n_lie
            assert fallbacks == [len(rows)], n_lie

    def test_early_bases_are_rejected(self, monkeypatch, fallbacks):
        # every basis before Bland's rule stops, the slack basis first, is
        # feasible but not optimal: its dual pi is infeasible
        basis = exact._packing_basis
        for g in (cycle_graph(7), random_graph(random.Random(16), 16)):
            a = np.array(clique_rows(g), dtype=float)
            want = exact_chif(g)
            pivots = next(k for k in range(1, 200) if basis(a, k) == basis(a, k + 1))
            assert pivots >= 7
            for k in range(pivots):
                monkeypatch.setattr(exact, "_packing_basis", lambda a, cap, k=k: basis(a, k))
                fallbacks.clear()
                assert fractional_clique_cover(g).value == want, k
                assert fallbacks == [len(a)], k
            monkeypatch.setattr(exact, "_packing_basis", basis)
            fallbacks.clear()
            assert fractional_clique_cover(g).value == want and fallbacks == []

    def test_many_cliques(self, monkeypatch):
        # complete 6-partite K_{3,...,3}: 3^6 = 729 maximal cliques on 18
        # vertices.  The condensed tableau holds 730 x 19 floats, where
        # simplex_max holds 730 x 748 Python ints.
        g = complete_graph(3)
        for _ in range(5):
            g = disjoint_union(g, complete_graph(3))
        monkeypatch.setattr(spectrum, "simplex_max", unreachable)
        assert fractional_clique_cover(complement(g)).value == 3


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

    def test_refinements_never_widen_and_record_their_stops(self, pentagon):
        r = BoundsReport(PowerLadder(pentagon, 100))
        assert (r.lower, r.upper, r.capped_upper()) == (0, None, 5)
        r.add_cover()
        assert r.upper == Fraction(5, 2)
        r.add_ladder(3)  # level 2 needs 625 vertices, over the cap
        lower = r.lower
        assert [v.alpha_value for v in r.ladder] == [2, 5] and 2 < lower < r.upper
        r.add_theta(Fraction(1, 10**12))  # below the certified width: a solver stop
        assert r.theta is None and r.upper == Fraction(5, 2)
        r.add_theta(Fraction(1, 10**4))
        assert r.theta is not None and r.upper == r.theta.hi < Fraction(5, 2)
        r.add_ladder(0)  # levels already held: nothing changes
        assert r.lower == lower and len(r.ladder) == 2
        assert [e.split(":")[0] for e in r.errors] == ["ladder", "theta"]


class TestUpperBoundType:
    def test_value_is_high_end(self):
        b = UpperBound("lovasz_theta", Fraction(2), Fraction(3), Fraction(1))
        assert b.value == 3
