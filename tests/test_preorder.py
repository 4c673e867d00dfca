"""Cohomomorphism order, slack-power comparisons, bounded asymptotic search."""

import time

import pytest

from zecap import (
    BudgetError,
    InputError,
    asymptotic_leq_bounded,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    leq,
    single_vertex,
    strong_power,
    strong_product,
)
from zecap import test_F as slack_test  # aliased so pytest does not collect it
import zecap.preorder as preorder_module
from zecap.graphs import Graph, complement
from zecap.preorder import ESTABLISHED, INCONCLUSIVE, HomWitness, _hom_search

from conftest import brute_clique_cover, brute_hom_exists, random_graph, strassen_axiom_suite


def brute_leq(g: Graph, h: Graph) -> bool:
    return brute_hom_exists(complement(g), complement(h))


def complete_multipartite(parts) -> Graph:
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    )


def twin_rich_targets(rng):
    """Search targets made of large twin classes, the symmetry the search cuts."""
    targets = [complete_graph(n) for n in range(1, 6)]
    targets += [edgeless_graph(n) for n in range(1, 5)]
    for r in (1, 2, 3):
        for _ in range(4):
            h = random_graph(rng, rng.randint(1, 6 // r))
            targets.append(complement(strong_product(edgeless_graph(r), h)))
    for _ in range(8):
        targets.append(complete_multipartite([rng.randint(1, 3) for _ in range(rng.randint(2, 3))]))
    return targets


class TestLeqAgainstBruteForce:
    def test_random_pairs_match_oracle(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 4))
            h = random_graph(rng, rng.randint(0, 4))
            w = leq(g, h)
            assert w.established == brute_leq(g, h)
            if w.established:
                assert w.verify()

    def test_slightly_larger_pairs(self, rng):
        for _ in range(20):
            g = random_graph(rng, 5)
            h = random_graph(rng, 5)
            w = leq(g, h)
            assert w.established == brute_leq(g, h)


class TestTwinRichTargets:
    def test_search_matches_oracle(self, rng):
        for dst in twin_rich_targets(rng):
            for _ in range(6):
                src = random_graph(rng, rng.randint(1, 5), rng.random())
                mapping, _ = _hom_search(src, dst, None)
                assert (mapping is not None) == brute_hom_exists(src, dst)
                if mapping is not None:
                    assert HomWitness(src, dst, mapping).verify()

    def test_leq_matches_oracle(self, rng):
        # the right-hand graphs are complements of the twin-rich targets
        for h in map(complement, twin_rich_targets(rng)):
            for _ in range(6):
                g = random_graph(rng, rng.randint(1, 5), rng.random())
                w = leq(g, h)
                assert w.established == brute_leq(g, h)
                if w.established:
                    assert w.verify()

    def test_edgeless_right_side_is_a_clique_cover(self, rng):
        # g <= E_r exactly when g's vertices split into at most r cliques
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            cover = brute_clique_cover(g)
            for r in range(g.n + 1):
                w = leq(g, edgeless_graph(r))
                assert w.established == (cover <= r), (g, r)
                if w.established:
                    assert w.verify()


def _is_clique(g: Graph) -> bool:
    return g.n > 0 and g.edge_count() == g.n * (g.n - 1) // 2


def test_no_clique_source_reaches_the_search(monkeypatch, rng):
    # leq answers every edgeless left side, the empty graph aside, with
    # solve_alpha, so the homomorphism search never sees a clique source
    searched = []

    def guarded(src, dst, node_budget):
        assert not _is_clique(src), src
        searched.append(src.n)
        return _hom_search(src, dst, node_budget)

    monkeypatch.setattr(preorder_module, "_hom_search", guarded)
    for i in range(150):
        n = rng.randint(0, 6)
        g = edgeless_graph(n) if i % 3 == 0 else random_graph(rng, n)
        h = random_graph(rng, rng.randint(0, 6), p=rng.choice([0.3, 0.5, 0.7]))
        w = leq(g, h)
        assert w.established == brute_leq(g, h), (g, h)
        if w.established:
            assert w.verify()
    assert searched  # the sweep also reached the search


class TestSearchNodeCounts:
    """Node counts the twin rule and the smallest-domain order keep small."""

    def test_pentagon_square_has_an_eight_clique_cover(self, pentagon):
        w = leq(strong_power(pentagon, 2), edgeless_graph(8), max_vertices=25)
        assert w.established and w.verify()
        assert w.nodes_used <= 100

    def test_pentagon_square_has_no_four_clique_cover(self, pentagon):
        w = leq(strong_power(pentagon, 2), edgeless_graph(4), max_vertices=25)
        assert not w.established
        assert w.nodes_used <= 100

    def test_slack_test_refutes_the_pentagon_cube_within_budget(self, pentagon):
        # C5^3 needs 16 cliques to cover it, so 8 = 2^(0+3) do not suffice
        assert slack_test(pentagon, edgeless_graph(2), 2, 3, 0, node_budget=1000) == 0

    def test_clique_sources_take_the_alpha_route(self, pentagon):
        # an edgeless left side makes the source a clique: C5^2 has no
        # 5-clique but a 4-clique, and solve_alpha on its complement says so
        # at once
        h = complement(strong_power(pentagon, 2))
        w = leq(edgeless_graph(5), h, max_vertices=25)
        assert not w.established
        assert w.nodes_used == 1
        w = leq(edgeless_graph(4), h, max_vertices=25)
        assert w.established and w.verify()


class TestLeqAnchors:
    def test_counting_order(self):
        for i in range(5):
            for j in range(5):
                assert leq(edgeless_graph(i), edgeless_graph(j)).established == (i <= j)

    def test_pentagon_needs_room(self, pentagon):
        assert not leq(pentagon, edgeless_graph(2)).established
        assert leq(pentagon, edgeless_graph(3)).established
        assert leq(pentagon, edgeless_graph(5)).established

    def test_reflexive_on_randoms(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 5))
            assert leq(g, g).established

    def test_complete_graphs_collapse(self):
        assert leq(complete_graph(4), single_vertex()).established
        assert leq(complete_graph(4), complete_graph(2)).established

    def test_empty_source_always_fits(self, pentagon):
        assert leq(Graph(0, ()), pentagon).established
        assert leq(Graph(0, ()), Graph(0, ())).established

    def test_nonempty_source_needs_nonempty_target(self):
        assert not leq(single_vertex(), Graph(0, ())).established

    def test_witness_fields(self, pentagon):
        w = leq(edgeless_graph(2), pentagon)
        assert w.established and w.verify()
        assert w.source.n == 2 and w.target.n == 5

    def test_vertex_cap(self):
        with pytest.raises(BudgetError):
            leq(edgeless_graph(13), edgeless_graph(13))

    def test_node_budget_raises(self, pentagon):
        big = disjoint_union(pentagon, pentagon)
        with pytest.raises(BudgetError):
            leq(big, big, node_budget=1)

    def test_negative_node_budget_is_an_input_error(self, pentagon):
        with pytest.raises(InputError):
            leq(pentagon, pentagon, node_budget=-1)  # homomorphism search
        with pytest.raises(InputError):
            leq(edgeless_graph(2), pentagon, node_budget=-1)  # alpha shortcut

    def test_negative_vertex_cap_is_an_input_error(self, pentagon):
        with pytest.raises(InputError):
            leq(pentagon, edgeless_graph(2), max_vertices=-1)
        with pytest.raises(BudgetError):  # 0 is a valid cap that nothing nonempty fits
            leq(single_vertex(), single_vertex(), max_vertices=0)
        assert leq(Graph(0, ()), Graph(0, ()), max_vertices=0).established


class TestSlackPowerComparison:
    def test_rejected_when_slack_rule_violated(self, pentagon):
        assert slack_test(pentagon, pentagon, 2, 1, 1) == 0  # k*m = 2 > n = 1

    def test_zeroth_power_compares_single_vertices(self, pentagon):
        assert slack_test(pentagon, edgeless_graph(1), 1, 0, 0) == 1

    def test_identity_pair_fires_immediately(self, pentagon):
        assert slack_test(pentagon, pentagon, 1, 1, 0) == 1
        assert slack_test(pentagon, pentagon, 1, 1, 1) == 1

    def test_counting_pairs(self):
        e4, e2 = edgeless_graph(4), edgeless_graph(2)
        # 4^n vs 2^k * 2^n: fires iff 4^n <= 2^(n+k), i.e. k >= n
        assert slack_test(e4, e2, 1, 1, 1) == 1
        assert slack_test(e4, e2, 1, 2, 1) == 0
        assert slack_test(e4, e2, 1, 2, 2) == 1

    def test_monotone_in_slack_level(self, rng):
        for _ in range(10):
            g = random_graph(rng, 3)
            h = random_graph(rng, 3)
            m, n = 1, 2
            values = [slack_test(g, h, m, n, k) for k in range(n // m + 1)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo  # more slack never breaks an established test

    def test_antitone_in_denominator(self, rng):
        for _ in range(10):
            g = random_graph(rng, 3)
            h = random_graph(rng, 3)
            n, k = 2, 1
            # raising m only strengthens the constraint k*m <= n
            values = [slack_test(g, h, m, n, k) for m in (1, 2, 3)]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo

    def test_validation(self, pentagon):
        with pytest.raises(InputError):
            slack_test(pentagon, pentagon, -1, 1, 0)

    def test_empty_right_side_does_not_hide_the_slack_factor(self):
        # h^n is empty, so the product is too, but edgeless(2^40) is not
        start = time.perf_counter()
        with pytest.raises(BudgetError) as exc:
            slack_test(single_vertex(), Graph(0, ()), 1, 40, 40)
        assert time.perf_counter() - start < 1
        assert exc.value.reason == "vertex budget"
        assert slack_test(single_vertex(), Graph(0, ()), 1, 9, 9) == 0  # 512 fits


class TestAsymptoticSearch:
    def test_reflexive_establishes_immediately(self, pentagon):
        out = asymptotic_leq_bounded(pentagon, pentagon, 1, search_budget=8)
        assert out.status == ESTABLISHED
        assert (out.n, out.k) == (1, 0)
        assert out.tests_used == 1
        assert out.established

    def test_immediate_slack_witness(self):
        # edgeless(3) vs edgeless(2): 3 <= 2 * 2 already at (n, k) = (1, 1)
        out = asymptotic_leq_bounded(edgeless_graph(3), edgeless_graph(2), 1, search_budget=16)
        assert out.status == ESTABLISHED
        assert (out.n, out.k) == (1, 1)
        assert out.tests_used == 2

    def test_slack_needed_deeper(self):
        # edgeless(5) vs edgeless(4) under denominator 2: 5 > 4 rules out
        # (1, 0), and the first admissible slack pair is (2, 1): 25 <= 2*16
        out = asymptotic_leq_bounded(edgeless_graph(5), edgeless_graph(4), 2, search_budget=16)
        assert out.status == ESTABLISHED
        assert (out.n, out.k) == (2, 1)
        assert out.tests_used == 3
        assert out.frontier == [(1, 0), (2, 0), (2, 1)]

    def test_budget_too_small_is_inconclusive(self):
        out = asymptotic_leq_bounded(edgeless_graph(5), edgeless_graph(4), 2, search_budget=2)
        assert out.status == INCONCLUSIVE
        assert out.n is None and out.k is None
        assert out.tests_used == 2
        assert out.frontier == [(1, 0), (2, 0)]

    def test_frontier_respects_slack_rule(self, pentagon):
        out = asymptotic_leq_bounded(pentagon, edgeless_graph(2), 2, search_budget=6)
        for n, k in out.frontier:
            assert k * 2 <= n

    def test_power_cap_failures_are_skipped(self):
        # the witnessing pair (2, 1) needs 32-vertex powers, above the cap,
        # so every deep test is skipped and the budget drains inconclusively
        out = asymptotic_leq_bounded(
            edgeless_graph(5), edgeless_graph(4), 2, search_budget=6, power_cap=20
        )
        assert out.status == INCONCLUSIVE
        assert out.tests_used == 6

    def test_validation(self, pentagon):
        with pytest.raises(InputError):
            asymptotic_leq_bounded(pentagon, pentagon, 0)
        with pytest.raises(InputError):
            asymptotic_leq_bounded(pentagon, pentagon, 1, search_budget=0)


class TestAxiomSuite:
    def test_random_sample_passes(self, rng):
        pairs = [
            (random_graph(rng, rng.randint(1, 3)), random_graph(rng, rng.randint(1, 3)))
            for _ in range(60)
        ]
        triples = [
            (
                random_graph(rng, rng.randint(1, 3)),
                random_graph(rng, rng.randint(1, 3)),
                random_graph(rng, rng.randint(1, 3)),
            )
            for _ in range(40)
        ]
        report = strassen_axiom_suite(pairs + triples, embed_max=4)
        assert report.passed
        assert report.violations == []
        laws = {c.law for c in report.checks}
        assert {"counting-order", "reflexivity", "scaling-witness"} <= laws

    def test_counting_order_is_exhaustive(self):
        report = strassen_axiom_suite([], embed_max=3)
        counting = [c for c in report.checks if c.law == "counting-order"]
        assert len(counting) == 16
        assert all(c.holds for c in counting)

    def test_transitivity_checked_on_chained_triples(self, pentagon):
        triple = (edgeless_graph(2), pentagon, edgeless_graph(5))
        report = strassen_axiom_suite([triple])
        trans = [c for c in report.checks if c.law == "transitivity"]
        assert len(trans) == 1 and trans[0].holds

    def test_oversized_graphs_are_skipped_not_failed(self):
        report = strassen_axiom_suite(
            [(edgeless_graph(2), edgeless_graph(13))], embed_max=1
        )
        assert report.skipped
        assert report.passed  # skipping is not failure
