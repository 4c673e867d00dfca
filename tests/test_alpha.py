"""Exact independence number: brute-force oracle, witnesses, budgets, ladder."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zecap import (
    BudgetError,
    IndependentSetWitness,
    InputError,
    complete_graph,
    complement,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    ladder,
    single_vertex,
    solve_alpha,
    strong_power,
    strong_product,
)
import zecap.alpha as alpha_module
from zecap.alpha import (
    PowerLadder,
    _greedy_seed,
    _packed_rows,
    _smallest_last,
    greedy_clique_cover,
)
from zecap.graphs import Graph

from conftest import (
    brute_alpha,
    brute_clique_cover,
    is_vertex_transitive,
    random_graph,
    recursive_alpha,
    reference_greedy_seed,
)


def test_package_attribute_is_the_module():
    # the package once re-exported an alpha() wrapper under the module's
    # name, and `import zecap.alpha as m` bound m to that function
    assert alpha_module.solve_alpha is solve_alpha


class TestAgainstBruteForce:
    def test_random_graphs_match_oracle(self, rng):
        for _ in range(200):
            n = rng.randint(0, 9)
            g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
            w, _ = solve_alpha(g)
            assert w.size == brute_alpha(g)
            assert w.verify(g)

    def test_larger_sparse_and_dense(self, rng):
        for p in (0.15, 0.85):
            for _ in range(10):
                g = random_graph(rng, 12, p=p)
                w, _ = solve_alpha(g)
                assert w.size == brute_alpha(g)
                assert w.verify(g)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestRelabelling:
    """The solver renumbers vertices internally; everything it reads or
    returns must stay in the caller's labels."""

    # a pentagon 0..4 with the path 4-5-6-7 hanging off vertex 4; its
    # smallest-last order is [7, 5, 3, 0, 2, 6, 1, 4]
    SHAPE = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7)])

    def test_random_relabellings_match_oracle(self, rng):
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            w, _ = solve_alpha(h)
            assert w.size == brute_alpha(h) == brute_alpha(g)
            assert w.verify(h)

    def test_order_is_not_the_identity(self):
        order, h, rows = _smallest_last(self.SHAPE)
        assert order != list(range(self.SHAPE.n))
        assert sorted(order) == list(range(self.SHAPE.n))
        assert h == relabel(self.SHAPE, [order.index(v) for v in range(self.SHAPE.n)])
        assert np.array_equal(rows, _packed_rows(h))

    def test_witness_in_caller_labels(self):
        g = self.SHAPE
        w, _ = solve_alpha(g)
        assert w.size == brute_alpha(g) == 4
        assert w.verify(g)

    def test_partial_witness_in_caller_labels(self, rng):
        for _ in range(20):
            perm = list(range(25))
            rng.shuffle(perm)
            g = relabel(strong_power(cycle_graph(5), 2), perm)
            with pytest.raises(BudgetError) as exc:
                solve_alpha(g, node_budget=1)
            assert exc.value.partial.size >= 1
            assert exc.value.partial.verify(g)

    def test_warm_start_in_caller_labels_is_honoured(self):
        g = self.SHAPE
        start = [1, 3, 5, 7]  # the solver's own seed would be [0, 3, 5, 7]
        # no node to spend: the stop hands back the warm start as it was read
        with pytest.raises(BudgetError) as exc:
            solve_alpha(g, node_budget=0, initial=start)
        assert exc.value.partial.vertices == start
        w, _ = solve_alpha(g, initial=start)
        assert w.vertices == start


class TestGreedySeed:
    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(200):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, p=rng.choice([0.05, 0.2, 0.5, 0.8, 0.95]))
            assert _greedy_seed(g, _packed_rows(g)) == reference_greedy_seed(g)

    def test_matches_reference_on_pentagon_cube(self, pentagon):
        g = strong_power(pentagon, 3)
        assert _greedy_seed(g, _packed_rows(g)) == reference_greedy_seed(g)
        _, h, rows = _smallest_last(g)  # the graph and rows the solver seeds from
        assert _greedy_seed(h, rows) == reference_greedy_seed(h)


def recipe_graph(rng) -> Graph:
    """A random graph with a recipe on at most 14 vertices: a strong product
    of two cycles, complete or edgeless graphs, the first one complemented
    at times."""
    kinds = (cycle_graph, complete_graph, edgeless_graph)
    while True:
        a = rng.choice(kinds)(rng.randint(1, 8))
        b = rng.choice(kinds)(rng.randint(1, 8))
        if rng.random() < 0.3:
            a = complement(a)
        if a.n * b.n <= 14:
            return strong_product(a, b)


def labelled_graph(rng) -> Graph:
    """A random labelled graph on at most 16 vertices: a strong product of
    two or three cycles, complete or edgeless graphs, drawn from a pool of
    three so that equal factors are common, with complemented factors and
    a complemented product among them."""
    kinds = (cycle_graph, cycle_graph, complete_graph, edgeless_graph)
    while True:
        pool = [rng.choice(kinds)(rng.randint(2, 6)) for _ in range(3)]
        pool = [complement(f) if rng.random() < 0.25 else f for f in pool]
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        if math.prod(f.n for f in factors) > 16:
            continue
        g = strong_product(factors[0], factors[1])
        if rng.random() < 0.25:
            g = complement(g)
        if len(factors) == 3:
            g = strong_product(g, factors[2]) if rng.random() < 0.5 else strong_product(factors[2], g)
        return g


class TestRootFix:
    """A graph with a recipe (vertex-transitive by construction) is searched
    from one root vertex, dropping each root candidate's stabilizer orbit."""

    def test_flagged_graphs_match_oracle_and_unflagged_solve(self, rng):
        for _ in range(120):
            g = recipe_graph(rng)
            assert g.recipe is not None and is_vertex_transitive(g)
            w, _ = solve_alpha(g)
            plain, _ = solve_alpha(Graph(g.n, g.masks))
            assert w.size == plain.size == brute_alpha(g)
            assert w.verify(g)

    @staticmethod
    def check_labelled(g: Graph, best: int) -> tuple[int, int]:
        """Solve g cold and from a one-vertex warm start, then stop the warm
        solve at budgets 0, used/2 and used - 1; returns the warm solve's
        nodes and the number of stops."""
        assert g.recipe is not None
        w, _ = solve_alpha(g)
        assert w.size == best and w.verify(g)
        # a one-vertex warm start leaves the search more to do
        w, used = solve_alpha(g, initial=[g.n - 1])
        assert w.size == best and w.verify(g)
        budgets = sorted({0, used // 2, used - 1})
        for budget in budgets:
            with pytest.raises(BudgetError) as exc:
                solve_alpha(g, node_budget=budget, initial=[g.n - 1])
            partial = exc.value.partial
            assert partial.verify(g) and 1 <= partial.size <= best
        return used, len(budgets)

    def test_labelled_graphs_match_oracle(self, rng):
        searched = stops = 0
        for _ in range(45):
            g = labelled_graph(rng)
            used, stopped = self.check_labelled(g, brute_alpha(g))
            searched += used > 1
            stops += stopped
        assert searched >= 15 and stops >= 75, (searched, stops)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_cycle_times_its_complement(self, reverse):
        # alpha(C7 x complement(C7)) = 7: the diagonal {(v, v)} is
        # independent, and alpha(G x H) <= theta(G) theta(H), where
        # theta(G) theta(complement(G)) = n for vertex-transitive G
        # (Lovasz 1979).
        # Dropping the root's label classes one level deeper as well, where
        # a second fixed vertex voids the root's stabilizer orbits, finds 6.
        c7, co = cycle_graph(7), complement(cycle_graph(7))
        g = strong_product(co, c7) if reverse else strong_product(c7, co)
        self.check_labelled(g, 7)
        plain, _ = solve_alpha(Graph(g.n, g.masks))
        assert plain.size == 7

    def test_partial_witness_in_caller_labels(self, pentagon):
        g = strong_power(pentagon, 3)
        order, _, _ = _smallest_last(g)
        assert order[:3] != [0, 1, 2]
        for budget in (0, 1, 5, 50):
            with pytest.raises(BudgetError) as exc:
                solve_alpha(g, node_budget=budget)
            assert exc.value.partial.size >= 1
            assert exc.value.partial.verify(g)

    def test_warm_start_without_the_root_is_honoured(self, pentagon):
        # as in the ladder, whose warm start is the square of the level below
        g = strong_power(pentagon, 2)
        order, _, _ = _smallest_last(g)
        root = order[0]  # the caller's label of the searched root, bit 0
        # the five translates {(i, 2i + c)} of an optimal set partition C5^2
        starts = [sorted(i * 5 + (2 * i + c) % 5 for i in range(5)) for c in range(5)]
        start = next(s for s in starts if root not in s)
        with pytest.raises(BudgetError) as exc:
            solve_alpha(g, node_budget=0, initial=start)
        assert exc.value.partial.vertices == start
        w, _ = solve_alpha(g, initial=start)
        assert w.vertices == start

    def test_pentagon_cube_node_bound(self, pentagon):
        # 147,687 nodes without the root fix, 9,811 with it, and 992 when the
        # root branch also drops each candidate's stabilizer orbit
        w, used = solve_alpha(strong_power(pentagon, 3), node_budget=2_000)
        assert w.size == 10 and used <= 2_000

    def test_nonagon_square_node_bound(self):
        # 28,873 nodes without the root fix, 2,856 with it, 1,827 with orbits
        g = strong_power(cycle_graph(9), 2)
        w, used = solve_alpha(g, node_budget=2_000)
        assert w.size == 18 and w.verify(g) and used <= 2_000


class TestAnchors:
    def test_families(self):
        assert solve_alpha(Graph(0, ()))[0].size == 0
        assert solve_alpha(single_vertex())[0].size == 1
        assert solve_alpha(edgeless_graph(7))[0].size == 7
        assert solve_alpha(complete_graph(7))[0].size == 1
        assert solve_alpha(cycle_graph(5))[0].size == 2
        assert solve_alpha(cycle_graph(7))[0].size == 3

    def test_pentagon_powers(self, pentagon):
        assert solve_alpha(strong_power(pentagon, 2))[0].size == 5
        assert solve_alpha(strong_power(pentagon, 3))[0].size == 10

    def test_pentagon_cube_within_budget(self, pentagon):
        # guards the vertex order and the root fix: alpha(C5^3) is proved in
        # 992 nodes (9,811 without the orbit drop, 147,687 with the order alone)
        g = strong_power(pentagon, 3)
        w, used = solve_alpha(g, node_budget=200_000)
        assert w.size == 10 and w.verify(g)
        # the work count repeats exactly: the order depends on no set or hash
        again, used_again = solve_alpha(g, node_budget=used)
        assert (again.vertices, used_again) == (w.vertices, used)

    def test_union_adds(self, pentagon):
        g = disjoint_union(single_vertex(), pentagon)
        assert solve_alpha(g)[0].size == 3


class TestWitness:
    def test_verify_rejects_edges(self, pentagon):
        assert not IndependentSetWitness([0, 1], 2).verify(pentagon)

    def test_verify_rejects_duplicates(self, pentagon):
        assert not IndependentSetWitness([0, 0], 2).verify(pentagon)

    def test_verify_rejects_out_of_range(self, pentagon):
        assert not IndependentSetWitness([0, 7], 2).verify(pentagon)

    def test_verify_rejects_size_mismatch(self, pentagon):
        assert not IndependentSetWitness([0, 2], 3).verify(pentagon)

    def test_witness_is_sorted(self, rng):
        for _ in range(20):
            w, _ = solve_alpha(random_graph(rng, 8))
            assert w.vertices == sorted(w.vertices)


class TestBudgets:
    def test_exhaustion_carries_partial(self):
        g = strong_power(cycle_graph(5), 2)
        with pytest.raises(BudgetError) as exc:
            solve_alpha(g, node_budget=1)
        err = exc.value
        assert err.reason == "node budget"
        assert isinstance(err.partial, IndependentSetWitness)
        assert err.partial.verify(g)
        assert err.partial.size >= 1

    def test_sufficient_budget_succeeds(self, pentagon):
        w, used = solve_alpha(strong_power(pentagon, 2), node_budget=100_000)
        assert w.size == 5
        assert 0 < used <= 100_000

    def test_corrupted_warm_start_is_ignored(self, pentagon):
        w, _ = solve_alpha(pentagon, initial=[0, 1])  # adjacent pair: invalid
        assert w.size == 2 and w.verify(pentagon)

    def test_valid_warm_start_accepted(self, pentagon):
        w, _ = solve_alpha(pentagon, initial=[0, 2])
        assert w.size == 2


class TestGreedyCliqueCover:
    def test_never_below_the_fewest_cliques(self, rng):
        # a count below the minimum would mean a part that is no clique
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 9), p=rng.choice([0.2, 0.5, 0.8]))
            assert brute_alpha(g) <= brute_clique_cover(g) <= greedy_clique_cover(g) <= g.n

    def test_families(self, pentagon):
        assert greedy_clique_cover(Graph(0, ())) == 0
        assert greedy_clique_cover(complete_graph(7)) == 1
        assert greedy_clique_cover(edgeless_graph(7)) == 7
        assert greedy_clique_cover(pentagon) == 3
        assert greedy_clique_cover(strong_product(complete_graph(3), edgeless_graph(2))) == 2


class TestLadder:
    def test_pentagon_levels(self, pentagon):
        values = ladder(PowerLadder(pentagon), 1)
        assert [v.alpha_value for v in values] == [2, 5]
        assert values[0].root.approx(10) == 2
        # level-1 root is sqrt(5)
        a = values[1].root.approx(20)
        eps = Fraction(1, 1 << 20)
        assert (a - eps) ** 2 < 5 < (a + eps) ** 2

    def test_monotone_in_level(self, rng):
        for _ in range(10):
            g = random_graph(rng, 5)
            values = ladder(PowerLadder(g), 1)
            r0 = values[0].root.approx(20)
            r1 = values[1].root.approx(20)
            assert r1 >= r0 - Fraction(2, 1 << 20)

    def test_level_one_matches_oracle(self, rng, pentagon):
        closed = 0
        for i in range(48):
            if i % 4:
                g = random_graph(rng, rng.randint(0, 5), p=rng.choice([0.2, 0.5, 0.8]))
            else:  # relabelled pentagons, whose level 1 is searched
                perm = list(range(5))
                rng.shuffle(perm)
                g = relabel(pentagon, perm)
            values = ladder(PowerLadder(g), 1)
            want = [brute_alpha(g), recursive_alpha(strong_product(g, g))]
            assert [v.alpha_value for v in values] == want
            closed += want[0] == greedy_clique_cover(g)
        assert closed == 36, closed  # every random graph here, and no pentagon

    @pytest.mark.parametrize(
        "g, levels, searched",
        [
            # two triangles: alpha = 2 cliques, so level 0 closes the rest
            (strong_product(complete_graph(3), edgeless_graph(2)), [2, 4, 16], [6]),
            # alpha(C5) = 2 < 3 cliques and alpha(C5^2) = 5 < 9: every level searched
            (cycle_graph(5), [2, 5], [5, 25]),
        ],
    )
    def test_only_open_levels_are_searched(self, monkeypatch, g, levels, searched):
        seen = []

        def counted(power, *args, **kwargs):
            seen.append(power.n)
            return solve_alpha(power, *args, **kwargs)

        monkeypatch.setattr(alpha_module, "solve_alpha", counted)
        values = ladder(PowerLadder(g), len(levels) - 1, node_budget=1_000)
        assert [v.alpha_value for v in values] == levels
        assert seen == searched

    def test_reads_the_power_ladder(self, rng, pentagon):
        for i in range(30):
            g = pentagon if i == 0 else random_graph(rng, rng.randint(0, 5), p=0.5)
            m = 2 if g.n <= 4 else 1
            powers = PowerLadder(g)
            want = [powers.solve(k) for k in range(m + 1)]
            assert [v.alpha_value for v in ladder(PowerLadder(g), m)] == want
            assert sorted(powers.alpha) == list(range(m + 1)) and not powers.stops

    def test_node_budget_stop_is_kept_and_the_next_level_tried(self, pentagon):
        powers = PowerLadder(pentagon)
        assert powers.solve(0) == 2
        assert powers.solve(1, node_budget=1) is None
        stop = powers.stops[1]
        assert stop.reason == "node budget"
        assert stop.used == powers.nodes[1] == 2
        assert powers.solve(1) is None  # found at most once: no second search
        # level 2 is still searched, warm-started from the square of level
        # 1's partial set
        assert powers.solve(2, node_budget=1) is None
        assert powers.stops[2].used == powers.nodes[2] == 2
        assert powers.stops[2].partial.size >= stop.partial.size**2

    def test_closed_level_keeps_the_vertex_budget_stop(self):
        g = strong_product(complete_graph(3), edgeless_graph(2))
        with pytest.raises(BudgetError) as exc:
            ladder(PowerLadder(g, 100), 3)
        assert exc.value.reason == "vertex budget"
        assert str(exc.value) == (
            "ladder stopped before level 2: strong product needs 1296 vertices, budget is 100"
        )
        assert [v.alpha_value for v in exc.value.partial] == [2, 4]

    def test_rejects_negative_level(self, pentagon):
        with pytest.raises(InputError):
            ladder(PowerLadder(pentagon), -1)

    def test_vertex_budget_stops_with_partial(self, pentagon):
        with pytest.raises(BudgetError) as exc:
            ladder(PowerLadder(pentagon, 100), 3)
        partial = exc.value.partial
        assert [v.alpha_value for v in partial] == [2, 5]

    def test_node_pool_shared_across_levels(self, pentagon):
        with pytest.raises(BudgetError) as exc:
            ladder(PowerLadder(pentagon), 2, node_budget=30)
        assert exc.value.reason == "node budget"
        assert isinstance(exc.value.partial, list)
