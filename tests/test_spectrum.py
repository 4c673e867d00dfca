"""Certified upper bounds: theta intervals, exact clique covers, the sandwich."""

import math
import random
import time
from collections import Counter
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
from zecap.alpha import PowerLadder, greedy_bounds
from zecap.exact import is_positive_definite
from zecap.graphs import Graph, complement, orbit_labels, strong_product

from conftest import brute_alpha, random_graph, recursive_alpha

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

    def test_clique_budget(self, monkeypatch):
        # complement of 8 disjoint triangles has 3^8 maximal cliques
        from zecap.graphs import complement

        g = complete_graph(3)
        for _ in range(7):
            g = disjoint_union(g, complete_graph(3))
        monkeypatch.setattr(spectrum, "CHIF_MAX_CLIQUES", 1000)  # read at call time
        with pytest.raises(BudgetError) as exc:
            maximal_cliques(complement(g))
        assert exc.value.reason == "clique budget"
        assert exc.value.used == 1001  # the clique past the cap


class TestCliqueCover:
    def test_closed_forms(self):
        assert fractional_clique_cover(cycle_graph(5)).hi == Fraction(5, 2)
        assert fractional_clique_cover(cycle_graph(7)).hi == Fraction(7, 2)
        assert fractional_clique_cover(complete_graph(6)).hi == 1
        assert fractional_clique_cover(edgeless_graph(6)).hi == 6
        assert fractional_clique_cover(single_vertex()).hi == 1
        assert fractional_clique_cover(Graph(0, ())).hi == 0

    def test_exactness(self):
        b = fractional_clique_cover(cycle_graph(9))
        assert b.hi == Fraction(9, 2)
        assert b.lo == b.hi and b.tolerance == 0

    def test_at_least_alpha(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            assert fractional_clique_cover(g).hi >= brute_alpha(g)

    def test_union_is_additive(self, pentagon):
        g = disjoint_union(pentagon, complete_graph(3))
        assert fractional_clique_cover(g).hi == Fraction(7, 2)

    def test_multiplicative_under_strong_product(self, rng):
        # a point of the asymptotic spectrum multiplies under the strong
        # product; the product is rebuilt as a literal, so the LP runs on it
        # rather than composing the factors' values by construction
        for _ in range(40):
            a = rng.randint(1, 6)
            g = random_graph(rng, a)
            h = random_graph(rng, rng.randint(1, 24 // a))
            assert fractional_clique_cover(stripped(strong_product(g, h))).hi == (
                fractional_clique_cover(g).hi * fractional_clique_cover(h).hi
            )

    def test_strong_product_closed_forms(self, pentagon):
        c5_c4 = strong_product(pentagon, cycle_graph(4))
        assert fractional_clique_cover(c5_c4).hi == 5
        c7_e3 = strong_product(cycle_graph(7), edgeless_graph(3))
        assert fractional_clique_cover(c7_e3).hi == Fraction(21, 2)

    def test_vertex_cap(self):
        with pytest.raises(BudgetError):  # the LP's cap: E25 as a literal
            fractional_clique_cover(stripped(edgeless_graph(25)))
        assert fractional_clique_cover(edgeless_graph(25)).hi == 25  # closed forms have no cap


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

    @pytest.fixture(autouse=True)
    def no_closure(self, monkeypatch):
        """Keeps the sandwich closure from answering before the LP: K2, P3,
        K3*E2, E6 and K_{3,...,3} have greedy bounds that meet."""
        monkeypatch.setattr(spectrum, "greedy_bounds", lambda g: (0, g.n))

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
            g = parse_graph(expr)  # through the recipe fold, then the LP on the flat copy
            assert fractional_clique_cover(g).hi == value, expr
            assert fractional_clique_cover(stripped(g)).hi == value, expr
        for n, value in self.RANDOM.items():
            assert fractional_clique_cover(random_graph(random.Random(n), n)).hi == value, n

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
            assert fractional_clique_cover(g).hi == exact_chif(g), condition
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
            assert fractional_clique_cover(g).hi == self.RANDOM[20], n_lie
            assert fallbacks == [len(rows)], n_lie

    def test_early_bases_are_rejected(self, monkeypatch, fallbacks):
        # every basis before Bland's rule stops, the slack basis first, is
        # feasible but not optimal: its dual pi is infeasible
        basis = exact._packing_basis
        for g in (stripped(cycle_graph(7)), random_graph(random.Random(16), 16)):
            a = np.array(clique_rows(g), dtype=float)
            want = exact_chif(g)
            pivots = next(k for k in range(1, 200) if basis(a, k) == basis(a, k + 1))
            assert pivots >= 7
            for k in range(pivots):
                monkeypatch.setattr(exact, "_packing_basis", lambda a, cap, k=k: basis(a, k))
                fallbacks.clear()
                assert fractional_clique_cover(g).hi == want, k
                assert fallbacks == [len(a)], k
            monkeypatch.setattr(exact, "_packing_basis", basis)
            fallbacks.clear()
            assert fractional_clique_cover(g).hi == want and fallbacks == []

    def test_many_cliques(self, monkeypatch):
        # complete 6-partite K_{3,...,3}: 3^6 = 729 maximal cliques on 18
        # vertices.  The condensed tableau holds 730 x 19 floats, where
        # simplex_max holds 730 x 748 Python ints.
        g = complete_graph(3)
        for _ in range(5):
            g = disjoint_union(g, complete_graph(3))
        monkeypatch.setattr(spectrum, "simplex_max", unreachable)
        assert fractional_clique_cover(complement(g)).hi == 3


def no_cliques(*args):
    raise AssertionError("maximal_cliques reached")


class TestClosedCliqueCover:
    """chi_f-bar of a recipe graph is folded over its recipe, at any size:
    n/2 on cycles, n / alpha on complements of leaves, products over x and
    sums over +.  No clique list and no LP runs on it."""

    @staticmethod
    def operand(rng: random.Random) -> Graph:
        make = rng.choice((complete_graph, edgeless_graph, cycle_graph))
        leaf = make(rng.randint(1, 9))
        return complement(leaf) if rng.random() < 0.3 else leaf

    def test_sweep_matches_the_lp(self, monkeypatch):
        # soundness: each closed form is the exact LP optimum on the same
        # graph as a literal
        rng = random.Random(31)
        seen = set()
        while len(seen) < 100:
            terms = [self.operand(rng) for _ in range(rng.randint(1, 3))]
            g = terms[0]
            if len(terms) > 1 and rng.random() < 0.5:
                for t in terms[1:]:
                    g = strong_product(g, t)
            elif len(terms) > 1:
                if rng.random() < 0.3:  # a product inside the union
                    terms[0] = strong_product(terms[0], self.operand(rng))
                g = disjoint_union(*terms)
            if g.n > 24 or g.recipe in seen:
                continue
            seen.add(g.recipe)
            monkeypatch.setattr(spectrum, "maximal_cliques", no_cliques)
            closed = fractional_clique_cover(g)
            monkeypatch.undo()
            assert closed.lo == closed.hi == exact_chif(stripped(g)), g.recipe
        kinds = [d[0] for d in seen]
        assert min(kinds.count("x"), kinds.count("+"), kinds.count("co")) >= 15, kinds
        assert sum("'co'" in repr(d) for d in seen if d[0] != "co") >= 20
        assert sum("'x'" in repr(d) for d in seen if d[0] == "+") >= 5

    def test_beyond_the_lp_cap(self, monkeypatch):
        from zecap.cli import parse_graph, run

        monkeypatch.setattr(spectrum, "maximal_cliques", no_cliques)
        for expr, value in {"C5^2": Fraction(25, 4), "C7^2": Fraction(49, 4), "E25": Fraction(25),
                            "~C7": Fraction(7, 3), "S+C5": Fraction(7, 2)}.items():
            assert fractional_clique_cover(parse_graph(expr)) == UpperBound(
                "fractional_clique_cover", value, value, Fraction(0)), expr
        for expr, value in {"C5": "5/2", "C7": "7/2", "S+C5": "7/2"}.items():
            code, report = run(["chif", "--graph", expr])
            assert code == 0 and report["results"]["value"] == value, expr

    def test_empty_and_one_vertex_leaves(self):
        # K_0 adds nothing to a union, and C_1 is one vertex with alpha = 1
        g = disjoint_union(complete_graph(0), cycle_graph(5))
        assert fractional_clique_cover(g).hi == Fraction(5, 2)
        b = lovasz_theta(g, TOL)
        assert b.lo ** 2 < 5 < b.hi ** 2
        g = disjoint_union(complement(cycle_graph(1)), cycle_graph(5))
        assert fractional_clique_cover(g).hi == Fraction(7, 2)

    def test_other_complements_keep_the_lp(self, monkeypatch):
        calls = []

        def counted(g, *args):
            calls.append(g.n)
            return maximal_cliques(g, *args)

        monkeypatch.setattr(spectrum, "maximal_cliques", counted)
        g = complement(strong_product(cycle_graph(5), cycle_graph(4)))
        assert g.recipe == ("co", ("x", (("C", 5), ("C", 4))))
        assert fractional_clique_cover(g).hi == exact_chif(stripped(g))
        assert calls == [20]
        with pytest.raises(BudgetError):  # and its cap
            fractional_clique_cover(complement(strong_power(cycle_graph(5), 2)))


class TestTheta:
    def test_interval_contract(self, pentagon):
        b = lovasz_theta(pentagon, TOL)
        assert b.kind == "lovasz_theta"
        assert b.hi - b.lo <= TOL

    def test_pentagon_closed_form(self, pentagon):
        # theta(C5) = sqrt(5): certify the bracket by exact squaring, through
        # the SDP and through the closed form far below the SDP's floor
        for g, tol in ((stripped(pentagon), TOL), (pentagon, TOL), (pentagon, Fraction(1, 10**30))):
            b = lovasz_theta(g, tol)
            assert b.lo > 0 and b.lo * b.lo < 5 < b.hi * b.hi and b.hi - b.lo <= tol

    def test_heptagon_closed_form(self):
        t = odd_cycle_theta(7)
        b = lovasz_theta(stripped(cycle_graph(7)), TOL)
        assert float(b.lo) <= t <= float(b.hi)
        # the closed-form interval is narrower than a float's rounding of t
        b = lovasz_theta(cycle_graph(7), TOL)
        assert abs(float(b.lo) - t) < 1e-15 and abs(float(b.hi) - t) < 1e-15

    @pytest.mark.parametrize(
        "n, poly",
        [(5, (4, -2, -1)), (7, (8, -4, -4, 1)), (9, (8, 0, -6, -1))],
        ids=["C5", "C7", "C9"],
    )
    def test_odd_cycles_bracket_an_algebraic_root(self, n, poly):
        # cos(pi/n) is the largest root of poly, which rises past it, and
        # c = theta/(n - theta) rises with theta: exact at any precision
        def at(c: Fraction) -> Fraction:
            value = Fraction(0)
            for a in poly:
                value = value * c + a
            return value

        for tol in (Fraction(1, 10**4), Fraction(1, 10**40), Fraction(1, 2**600)):
            b = lovasz_theta(cycle_graph(n), tol)
            assert b.hi - b.lo <= tol
            assert at(b.lo / (n - b.lo)) < 0 < at(b.hi / (n - b.hi))

    def test_complete_and_edgeless(self):
        tiny = Fraction(1, 10**30)
        for n in (1, 2, 4):
            b = lovasz_theta(complete_graph(n), tiny)
            assert b.lo == b.hi == 1
            e = lovasz_theta(edgeless_graph(n), tiny)
            assert e.lo == e.hi == n
            # as literals the same graphs close by the sandwich: one
            # clique and a one-vertex independent set, or n of each
            b = lovasz_theta(Graph(n, complete_graph(n).masks), tiny)
            assert b.lo == b.hi == 1
            e = lovasz_theta(Graph(n, edgeless_graph(n).masks), tiny)
            assert e.lo == e.hi == n
        b = lovasz_theta(strong_product(complete_graph(3), edgeless_graph(2)), tiny)
        assert b.lo == b.hi == 2

    def test_union_with_single_vertex(self, pentagon):
        # theta(K1 + C5) = 1 + sqrt(5)
        b = lovasz_theta(disjoint_union(single_vertex(), pentagon), TOL)
        assert (b.lo - 1) ** 2 < 5 < (b.hi - 1) ** 2

    def test_between_alpha_and_cover(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12))
            b = lovasz_theta(g, Fraction(1, 10**4))
            assert b.hi >= brute_alpha(g)
            assert b.lo <= fractional_clique_cover(g).hi

    def test_input_validation(self, pentagon):
        with pytest.raises(InputError):
            lovasz_theta(Graph(0, ()), TOL)
        with pytest.raises(InputError):
            lovasz_theta(pentagon, 0)
        with pytest.raises(BudgetError):  # the SDP's cap: E65 as a literal
            lovasz_theta(stripped(edgeless_graph(65)), TOL)
        assert lovasz_theta(edgeless_graph(65), TOL).hi == 65  # closed forms have no cap
        # below the SDP's certifiable width (about n * 2^-32 * theta) is a solver stop
        with pytest.raises(ConvergenceError) as stop:
            lovasz_theta(stripped(pentagon), Fraction(1, 10**12))
        assert stop.value.partial.lo * stop.value.partial.lo < 5 < stop.value.partial.hi ** 2

    def test_vertex_transitive_products(self):
        # theta(G) * theta(complement G) = n when G is vertex-transitive
        pairs = list(combinations(range(5), 2))  # Petersen: 2-subsets, adjacent when disjoint
        petersen = Graph.from_edges(
            10, [(i, j) for i, j in combinations(range(10), 2) if not set(pairs[i]) & set(pairs[j])]
        )
        c5, c7 = cycle_graph(5), cycle_graph(7)
        recipes = (*map(cycle_graph, (5, 7, 9, 11)), strong_power(c5, 2),
                   strong_product(complement(c7), complete_graph(3)), strong_product(c5, complement(c7)))
        for g in (*recipes, *map(stripped, recipes[:5]), petersen):
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


@pytest.fixture
def solves(monkeypatch) -> list[int]:
    """The vertex counts of the solves that reach spectrum._theta_solve."""
    solve = spectrum._theta_solve
    sizes = []

    def counted(n, erows, ecols):
        sizes.append(n)
        return solve(n, erows, ecols)

    monkeypatch.setattr(spectrum, "_theta_solve", counted)
    return sizes


def stripped(g: Graph) -> Graph:
    """g rebuilt as one literal leaf, so theta runs one SDP on all of it."""
    return Graph(g.n, g.masks)


class TestComposedTheta:
    """theta of a recipe graph is composed in closed form over its recipe:
    cycles, complete and edgeless graphs and their complements, strong
    products, disjoint unions, and the complements of products (co-normal
    products of the complements) and of unions (joins).  No SDP runs on
    it."""

    POOL = [*map(cycle_graph, range(4, 10)), *map(complete_graph, (2, 3, 4)),
            *map(edgeless_graph, (2, 3)), *(complement(cycle_graph(n)) for n in (5, 7, 9))]

    def test_products_agree_with_the_flat_sdp(self):
        # soundness: each closed form lies inside the SDP interval of the
        # same graph as a literal (complements of products included)
        rng = random.Random(25)
        seen = set()
        while len(seen) < 14:
            factors = [rng.choice(self.POOL) for _ in range(rng.randint(1, 3))]
            if math.prod(f.n for f in factors) > 64:
                continue
            g = factors[0]
            for f in factors[1:]:
                g = strong_product(g, f)
            if rng.random() < 0.4:
                g = complement(g)
            if g.recipe in seen or g.edge_count() > 500:  # keep each SDP under a second
                continue
            seen.add(g.recipe)
            lo, hi = spectrum._theta_interval(g.recipe, TOL)
            flat_lo, flat_hi = spectrum._sdp_interval(stripped(g))
            assert flat_lo <= lo <= hi <= flat_hi, g.recipe

    def test_sums_agree_with_the_flat_sdp(self):
        # soundness over unions: sums, products with a sum factor and sums
        # of complemented factors, each closed form inside the SDP interval
        # of the same graph as a literal
        rng = random.Random(28)
        pool = [*self.POOL, single_vertex()]
        seen = set()
        while len(seen) < 16:
            terms = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.4:
                terms = [complement(t) if rng.random() < 0.5 else t for t in terms]
            g = disjoint_union(*terms)
            if rng.random() < 0.5:
                g = strong_product(g, rng.choice(pool))
            if g.n > 64 or g.recipe in seen or g.edge_count() > 500:
                continue
            seen.add(g.recipe)
            lo, hi = spectrum._theta_interval(g.recipe, TOL)
            flat_lo, flat_hi = spectrum._sdp_interval(stripped(g))
            assert flat_lo <= lo <= hi <= flat_hi, g.recipe
        assert sum(d[0] == "x" for d in seen) >= 4 and sum(d[0] == "+" for d in seen) >= 4

    def test_call_order_does_not_swap_answers(self):
        recipe = strong_power(cycle_graph(5), 2)
        flat = stripped(recipe)
        assert flat == recipe  # equal as graphs, built another way
        answers = []
        for order in ((flat, recipe), (recipe, flat)):
            answers.append({id(g): lovasz_theta(g, TOL) for g in order})
        assert answers[0] == answers[1]
        assert answers[0][id(flat)] != answers[0][id(recipe)]

    def test_the_sdp_never_sees_a_product(self, solves):
        from zecap.cli import parse_graph

        c5, c7, c9 = cycle_graph(5), cycle_graph(7), cycle_graph(9)
        s_c5 = disjoint_union(single_vertex(), c5)
        for g in (c5, c7, c9, strong_power(c5, 2), strong_product(c7, c7),
                  complement(strong_product(c7, c9)),
                  strong_product(complement(c7), complete_graph(3)),
                  strong_product(strong_product(c5, edgeless_graph(2)), c5),
                  s_c5, disjoint_union(c5, c7), strong_product(s_c5, c5)):
            lovasz_theta(g, TOL)
        # the complement of a product with a literal or a union inside
        # multiplies its factors' complements: theta(co 40) = 2 times
        # sqrt(5), theta(co C7) or that of the join co S v co C5
        for expr in ("~(40*C5)", "~(40*C7)", "~((S+C5)*C5)"):
            lovasz_theta(parse_graph(expr), Fraction(1, 10**8))
        assert solves == []
        b = lovasz_theta(s_c5, Fraction(1, 10**40))  # 1 + sqrt(5) at any precision
        assert (b.lo - 1) ** 2 < 5 < (b.hi - 1) ** 2
        lovasz_theta(stripped(c5), TOL)  # as a literal C5 goes to the SDP
        # a union is not vertex-transitive, so n / theta does not hold for
        # its complement; that is a join, which takes its larger side with
        # no SDP
        lovasz_theta(complement(s_c5), TOL)
        assert solves == [5]

    def test_tolerance_is_checked_on_the_product(self):
        c5_2 = strong_power(cycle_graph(5), 2)
        with pytest.raises(ConvergenceError):  # the SDP's floor, on the flat square
            lovasz_theta(stripped(c5_2), Fraction(1, 10**12))
        for tol in (TOL, Fraction(1, 10**12), Fraction(1, 10**50)):
            b = lovasz_theta(c5_2, tol)
            assert b.lo < 5 < b.hi and b.hi - b.lo <= tol  # the square of C5's interval


class TestSandwichClosure:
    """A literal graph whose greedy independent set and greedy
    partition into cliques have the same size k has theta and chi_f-bar
    exactly k: no SDP and no LP runs on it."""

    # theta-random's G(n, 1/2) jobs as the benchmark relabels them at seed 0
    CLOSING = {
        "6:111101111111000": 3,
        "7:100011010001111101010": 3,
        "8:1100110101001100001010010100": 4,
        "10:101111001011111111010011000101010001110011111": 3,
        "12:100000010100110010001110001000000011000000010110000100111101001011": 5,
    }

    def test_closing_graphs_run_no_sdp(self, solves):
        from zecap.cli import parse_graph

        for bits, k in self.CLOSING.items():
            g = parse_graph(bits)
            assert g.recipe == ("G", g.masks) and greedy_bounds(g) == (k, k)
            for tol in (TOL, Fraction(1, 10**30)):  # far below the SDP's floor
                b = lovasz_theta(g, tol)
                assert b.lo == b.hi == k, bits
        assert solves == []

    def test_open_graphs_keep_their_sdp(self, solves):
        c5 = stripped(cycle_graph(5))
        s_c5 = stripped(disjoint_union(single_vertex(), cycle_graph(5)))
        assert greedy_bounds(c5) == (2, 3) and greedy_bounds(s_c5) == (3, 4)
        b = lovasz_theta(c5, TOL)
        assert (b.lo, b.hi) == (Fraction(122929137152, 54975581453),
                                Fraction(1229291370935, 549755813888))
        b = lovasz_theta(s_c5, TOL)
        assert (b.lo, b.hi) == (Fraction(3558094371079, 1099511629319),
                                Fraction(1779047184823, 549755813888))
        with pytest.raises(ConvergenceError):  # the SDP's floor stays
            lovasz_theta(c5, Fraction(1, 10**12))
        assert solves == [5, 6, 5]  # each call solves its own

    def test_chif_closes_before_the_clique_list(self, monkeypatch):
        calls = []

        def counted(g, *args):
            calls.append(g.n)
            return maximal_cliques(g, *args)

        monkeypatch.setattr(spectrum, "maximal_cliques", counted)
        flat = stripped(strong_product(complete_graph(3), edgeless_graph(2)))
        assert fractional_clique_cover(flat) == UpperBound(
            "fractional_clique_cover", Fraction(2), Fraction(2), Fraction(0))
        assert calls == []
        assert fractional_clique_cover(stripped(cycle_graph(5))).hi == Fraction(5, 2)
        assert calls == [5]

    def test_closed_graphs_agree_with_the_sdp_and_the_lp(self):
        # soundness: on a seeded G(n, p) sweep every k where the bounds meet
        # lies inside the SDP interval and is the exact LP optimum
        rng = random.Random(29)
        closed = 0
        for i in range(90):
            g = random_graph(rng, rng.randint(2, 16), (0.1, 0.3, 0.5, 0.7, 0.9)[i % 5])
            k, cover = greedy_bounds(g)
            if k != cover:
                continue
            closed += 1
            lo, hi = spectrum._sdp_interval(g)
            assert lo <= k <= hi
            assert exact.packing_optimum(clique_rows(g)) == k
            assert lovasz_theta(g, TOL).hi == fractional_clique_cover(g).hi == k
        assert closed >= 60, closed


C5_BITS = "5:1001100101"  # C5 as a literal: its greedy bounds (2, 3) do not meet
GNP20 = "20:" + format(random.Random(7).getrandbits(190), "0190b")  # a seeded G(20, 1/2)


class TestLiteralLeaves:
    """A literal graph is the recipe leaf ("G", masks): theta and chi_f-bar
    compose over it like over the named leaves, and only the leaf itself
    takes the greedy sandwich, the SDP or the LP."""

    @staticmethod
    def expression(rng: random.Random) -> Graph:
        """A literal leaf under a strong product or a disjoint union with K,
        E and C leaves, some complemented, and at times a product with a sum
        inside or the complement of a product.  The literals are G(n, p)
        with n <= 6, and relabelled C5s, some with a sixth vertex, whose
        greedy bounds do not meet."""

        def literal() -> Graph:
            if rng.random() < 0.6:
                return random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
            n = rng.randint(5, 6)
            perm = rng.sample(range(n), n)
            edges = [(perm[v], perm[(v + 1) % 5]) for v in range(5)]
            return Graph.from_edges(n, edges + [(perm[v], perm[-1]) for v in range(n - 1)
                                                if n == 6 and rng.random() < 0.5])

        def operand() -> Graph:
            if rng.random() < 0.4:
                return literal()
            leaf = rng.choice((complete_graph, edgeless_graph, cycle_graph))(rng.randint(1, 6))
            return complement(leaf) if rng.random() < 0.3 else leaf

        terms = [literal(), *(operand() for _ in range(rng.randint(1, 2)))]
        rng.shuffle(terms)
        if rng.random() < 0.5:
            return disjoint_union(*terms)
        g = strong_product(terms[0], terms[1])
        if len(terms) == 3:
            g = strong_product(g, terms[2]) if rng.random() < 0.5 else disjoint_union(g, terms[2])
        return complement(g) if g.recipe[0] == "x" and rng.random() < 0.3 else g

    def test_sweep_matches_the_flat_graph(self, monkeypatch, solves):
        # soundness: the composed theta interval meets the SDP interval of
        # the flat graph (certified intervals around one number), and the
        # composed chi_f-bar is the exact simplex optimum on it
        rng = random.Random(32)
        theta_seen, chif_seen = set(), set()
        sdp_leaves = []
        while len(theta_seen) < 16 or len(chif_seen) < 40:
            g = self.expression(rng)
            assert "'G'" in repr(g.recipe) and orbit_labels(g, 0) is None
            if g.n <= 24 and g.recipe not in chif_seen:
                chif_seen.add(g.recipe)
                cliques = []

                def counted(h, *args):
                    cliques.append(h.n)
                    return maximal_cliques(h, *args)

                with monkeypatch.context() as patch:
                    patch.setattr(spectrum, "maximal_cliques", counted)
                    closed = fractional_clique_cover(g)
                if g.recipe[0] == "co":  # no closed form: at most one LP on all of g
                    assert cliques in ([], [g.n]), (g.recipe, cliques)
                else:
                    assert all(n <= 6 for n in cliques), (g.recipe, cliques)  # leaves only
                assert closed.lo == closed.hi == exact_chif(g), g.recipe
            if (len(theta_seen) < 16 and g.n <= 40 and g.edge_count() <= 500
                    and g.recipe not in theta_seen):
                theta_seen.add(g.recipe)
                solves.clear()
                lo, hi = spectrum._theta_interval(g.recipe, TOL)
                sdp_leaves += solves
                flat_lo, flat_hi = spectrum._sdp_interval(g)
                assert max(lo, flat_lo) <= min(hi, flat_hi), g.recipe
        # the SDP ran on leaves, some of them, and never on anything bigger,
        # not even under the complement of a product
        assert len(sdp_leaves) >= 5 and max(sdp_leaves) <= 6
        for seen, products in ((theta_seen, 5), (chif_seen, 10)):
            assert sum(d[0] in ("x", "co") for d in seen) >= products
            assert sum(d[0] == "co" for d in seen) >= 2
            assert sum(d[0] == "+" for d in seen) >= products

    def test_alpha_of_products_with_a_literal_factor(self):
        from zecap.cli import parse_graph

        rng = random.Random(33)
        named = (complete_graph, edgeless_graph, cycle_graph)
        for _ in range(30):
            leaf = random_graph(rng, rng.randint(2, 4), rng.choice((0.3, 0.5, 0.7)))
            other = rng.choice((leaf, rng.choice(named)(rng.randint(2, 4))))
            g = strong_product(leaf, other) if rng.random() < 0.5 else strong_product(other, leaf)
            assert orbit_labels(g, 0) is None
            w, _ = solve_alpha(g)
            assert w.size == brute_alpha(g) and w.verify(g), g.recipe
        # past the subset scan, the memoized recurrence is the oracle
        for expr, alpha in ((f"{C5_BITS}^2", 5), (f"{C5_BITS}*C3", 2), (f"({C5_BITS}+S)^2", 10)):
            g = parse_graph(expr)
            w, _ = solve_alpha(g)
            assert w.size == recursive_alpha(g) == alpha and w.verify(g), expr

    def test_literal_powers_take_one_small_sdp(self, solves):
        from zecap.cli import parse_graph, run

        g = parse_graph(f"{C5_BITS}^3")
        assert g.n == 125 and g.recipe == ("x", (("G", parse_graph(C5_BITS).masks),) * 3)
        b = lovasz_theta(g, Fraction(1, 10**4))
        assert b.lo ** 2 < 125 < b.hi ** 2  # theta(C5)^3 = 5 sqrt(5)
        assert solves == [5]
        solves.clear()  # one table per call: the CLI call solves its own leaf
        code, _ = run(["theta-sdp", "--graph", f"{C5_BITS}^3", "--tol", "1e-4"])
        assert code == 0 and solves == [5]
        # its complement is the co-normal power of the literal's complement
        solves.clear()
        code, report = run(["theta-sdp", "--graph", f"~({C5_BITS}^2)", "--tol", "1e-8"])
        assert code == 0 and solves == [5]
        r = report["results"]
        assert Fraction(r["lo"]) < 5 < Fraction(r["hi"])  # theta(co C5)^2 = sqrt(5)^2
        assert fractional_clique_cover(parse_graph(f"{C5_BITS}*C5")).hi == Fraction(25, 4)
        code, report = run(["chif", "--graph", f"{C5_BITS}*C5"])
        assert code == 0 and report["results"]["value"] == "25/4"

    @pytest.mark.parametrize("argv, code, solvers", [
        (["theta-sdp", "--graph", f"{C5_BITS}^3"], 0, {"sdp"}),
        (["theta-sdp", "--graph", f"{C5_BITS}+C5", "--tol", "1e-12"], 4, {"sdp"}),
        (["chif", "--graph", f"{C5_BITS}*{C5_BITS}"], 0, {"lp"}),
        (["bounds", "--graph", C5_BITS, "--m", "1"], 0, {"sdp", "lp"}),
        (["bounds", "--graph", GNP20, "--m", "1"], 0, {"sdp", "lp"}),
    ], ids=["theta-power", "theta-stop", "chif-square", "bounds-c5", "bounds-gnp20"])
    def test_one_call_finds_each_leaf_once(self, argv, code, solvers, monkeypatch):
        # one CLI call runs greedy_bounds on each distinct literal leaf once
        # (theta, the clique cover and the ladder share it) and each of its
        # solvers once, however often the fold, the precision raises and the
        # bracket's steps reach it; the leaf's graph is made, and its masks
        # built, only for those runs: once for greedy_bounds and once per solver
        from zecap import alpha as alpha_module
        from zecap.cli import parse_graph, run

        found = Counter()

        def count(module, name, what, built=False):
            call = getattr(module, name)

            def counted(x):
                result = call(x)
                found[what, (result if built else x).masks] += 1
                return result

            monkeypatch.setattr(module, name, counted)

        count(spectrum, "recipe_graph", "build", built=True)
        count(spectrum, "greedy_bounds", "greedy")
        count(alpha_module, "greedy_bounds", "greedy")
        count(spectrum, "_sdp_interval", "sdp")
        count(spectrum, "_clique_lp", "lp")
        got, report = run(argv)
        assert got == code, report["results"]
        leaf = parse_graph(GNP20 if GNP20 in argv else C5_BITS)
        want = Counter({(what, leaf.masks): 1 for what in {"greedy", *solvers}})
        want["build", leaf.masks] = 1 + len(solvers)
        assert found == want
        if code == 4:  # the leaf's certified interval plus C5's, below the SDP's floor
            partial = report["results"]["partial"]
            assert Fraction(partial["lo"]) ** 2 < 20 < Fraction(partial["hi"]) ** 2

    def test_each_call_finds_its_own_values(self, solves, monkeypatch):
        # the table lives as long as one call, not as long as the graph: a
        # literal asked twice is solved twice
        from zecap.cli import parse_graph

        lp, lps = spectrum._clique_lp, []
        monkeypatch.setattr(spectrum, "_clique_lp", lambda g: lps.append(g.n) or lp(g))
        g = parse_graph(C5_BITS)
        for _ in range(2):
            assert lovasz_theta(g, TOL).hi ** 2 > 5
            assert fractional_clique_cover(g).hi == Fraction(5, 2)
        assert solves == [5, 5] and lps == [5, 5]

    def test_equal_graphs_keep_their_own_values(self):
        # the table is keyed by recipe node: C5 and the literal C5 are equal
        # as graphs, yet each keeps its own interval, the closed form and the
        # SDP's
        from zecap.cli import parse_graph, run

        code, report = run(["theta-sdp", "--graph", f"C5+{C5_BITS}"])
        closed = spectrum._odd_cycle_theta(5, spectrum._CLOSED_MIN_BITS)
        sdp = spectrum._sdp_interval(parse_graph(C5_BITS))
        r = report["results"]
        assert code == 0 and closed != sdp
        assert (Fraction(r["lo"]), Fraction(r["hi"])) == (closed[0] + sdp[0], closed[1] + sdp[1])

    @pytest.mark.parametrize("expr, square", [(f"{C5_BITS}+C5", 20), (f"{C5_BITS}^2", 25)])
    def test_fixed_width_leaves_stop(self, expr, square, monkeypatch):
        # the SDP leaf's width is fixed, so raising p stops once the width
        # no longer shrinks: a solver stop with the certified interval
        from zecap.cli import parse_graph

        closed = spectrum._theta_closed
        calls = []
        monkeypatch.setattr(spectrum, "_theta_closed", lambda d, p: calls.append(p) or closed(d, p))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as stop:
            lovasz_theta(parse_graph(expr), Fraction(1, 10**12))
        assert time.perf_counter() - start < 1
        assert len(calls) <= 4, calls
        partial = stop.value.partial
        assert partial.lo ** 2 < square < partial.hi ** 2  # 2 sqrt(5) and 5

    def test_complement_of_an_empty_operand(self):
        # theta of the empty graph's complement is 0, so it adds nothing
        c5 = cycle_graph(5)
        for empty in (edgeless_graph(0), complete_graph(0), strong_product(edgeless_graph(0), c5)):
            g = disjoint_union(complement(empty), c5)
            assert lovasz_theta(g, TOL) == lovasz_theta(c5, TOL)
            assert fractional_clique_cover(g).hi == Fraction(5, 2)

    @staticmethod
    def join(rng: random.Random) -> Graph:
        """A join co(co G + co H + ...): the complement of a union of two or
        three small operands (G(n, p) literals, relabelled C5s, named
        leaves, their complements, small unions, products and joins), at
        times under a product or inside a union."""

        def operand(depth: int = 1) -> Graph:
            r = rng.random()
            if r < 0.25:
                return random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
            if r < 0.4:
                perm = rng.sample(range(5), 5)
                return Graph.from_edges(5, [(perm[v], perm[v - 1]) for v in range(5)])
            if r < 0.7 or not depth:
                leaf = rng.choice((complete_graph, edgeless_graph))(rng.randint(1, 4))
                leaf = cycle_graph(rng.randint(3, 7)) if rng.random() < 0.5 else leaf
                return complement(leaf) if rng.random() < 0.3 else leaf
            a, b = operand(0), operand(0)
            if r < 0.8:
                return disjoint_union(a, b)
            return strong_product(a, b) if r < 0.9 else complement(disjoint_union(a, b))

        g = complement(disjoint_union(*(operand() for _ in range(rng.randint(2, 3)))))
        r = rng.random()
        if r < 0.2:
            g = strong_product(g, rng.choice((complete_graph(2), edgeless_graph(2),
                                              cycle_graph(4))))
        elif r < 0.4:
            g = disjoint_union(g, operand(0))
        return g

    def test_joins_match_the_flat_graph(self):
        # a join takes the larger side's value: the composed theta interval
        # meets the SDP interval of the flat graph, and the composed
        # chi_f-bar is the exact simplex optimum on it.  A join's maximal
        # cliques are the products of its sides', so the Fraction simplex
        # only takes flat graphs of at most 200 cliques (625 take it seconds)
        rng = random.Random(34)
        theta_seen, chif_seen = set(), set()
        while len(theta_seen) < 16 or len(chif_seen) < 40:
            g = self.join(rng)
            assert "('co', ('+'" in repr(g.recipe)
            if g.n <= 24 and g.recipe not in chif_seen and len(maximal_cliques(g)) <= 200:
                chif_seen.add(g.recipe)
                closed = fractional_clique_cover(g)
                assert closed.lo == closed.hi == exact_chif(g), g.recipe
            if (len(theta_seen) < 16 and g.n <= 40 and g.edge_count() <= 500
                    and g.recipe not in theta_seen):
                theta_seen.add(g.recipe)
                lo, hi = spectrum._theta_interval(g.recipe, TOL)
                flat_lo, flat_hi = spectrum._sdp_interval(g)
                assert max(lo, flat_lo) <= min(hi, flat_hi), g.recipe

    def test_a_join_takes_the_lp_on_its_operand_alone(self, monkeypatch):
        # the complement of a product has no closed chi_f-bar, so it is one
        # LP on its 20 or 21 vertices; the rest stays closed, though the
        # whole graph is over the LP's 24-vertex cap
        from zecap.cli import run

        cliques = []
        monkeypatch.setattr(spectrum, "maximal_cliques",
                            lambda h, *args: cliques.append(h.n) or maximal_cliques(h, *args))
        for expr, value, lp in (("~(C5*C4)+C5^2", "45/4", 20), ("~(E3*C7)+C9^4", "19795/48", 21)):
            cliques.clear()
            code, report = run(["chif", "--graph", expr])
            assert code == 0 and report["results"]["value"] == value, expr
            assert cliques == [lp], expr

    def test_empty_join(self):
        from zecap.cli import parse_graph

        b = fractional_clique_cover(complement(disjoint_union()))
        assert b.lo == b.hi == 0 and type(b.hi) is Fraction
        tol = Fraction(1, 10**20)
        b = lovasz_theta(parse_graph("~(0:+C5)"), tol)  # the larger side, sqrt(5)
        assert b.hi - b.lo <= tol and b.lo ** 2 < 5 < b.hi ** 2


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
        lo, hi = spectrum._sdp_interval(g)  # one SDP on g
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
        r = BoundsReport(PowerLadder(stripped(pentagon), 100))  # theta by the SDP
        assert (r.lower, r.upper, r.capped_upper()) == (0, None, 5)
        with pytest.raises(InputError, match="ladder level"):
            r.refine(-1, TOL)
        r.add_cover()
        assert r.upper == Fraction(5, 2)
        r.add_ladder(3)  # level 2 needs 625 vertices, over the cap
        lower = r.lower
        assert [v.alpha_value for v in r.ladder] == [2, 5] and 2 < lower < r.upper
        # below the certified width: a solver stop that keeps the certified interval
        r.add_theta(Fraction(1, 10**12))
        assert r.theta is not None and r.upper == r.theta.hi < Fraction(5, 2)
        kept = r.upper
        r.add_theta(Fraction(1, 10**4))
        assert r.theta is not None and r.upper == r.theta.hi == kept
        r.add_ladder(0)  # levels already held: nothing changes
        assert r.lower == lower and len(r.ladder) == 2
        assert [e.split(":")[0] for e in r.errors] == ["ladder", "theta"]
