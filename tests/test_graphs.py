"""Graph type, numbering, products, and serialization."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from zecap import (
    BudgetError,
    Graph,
    InputError,
    PowerLadder,
    complement,
    complete_graph,
    cycle_graph,
    decode,
    disjoint_union,
    edgeless_graph,
    encode,
    fractional_clique_cover,
    graph_from_bitstring,
    graph_from_edgetext,
    graph_to_bitstring,
    index_offset,
    is_isomorphic,
    leq,
    lovasz_theta,
    single_vertex,
    strong_power,
    strong_product,
)
from zecap import test_F as slack_test  # aliased so pytest does not collect it
from zecap.alpha import solve_alpha
from zecap.channel import confusability_graph
from zecap.cli import parse_graph
from zecap import graphs
from zecap.graphs import (
    ADJACENCY_MAX_BYTES, orbit_labels, power_fits, recipe_edges, recipe_graph, recipe_vertices,
    transitive,
)
from zecap.preorder import _hom_search

from conftest import has_automorphism, is_vertex_transitive, make_pentagon_channel, random_graph


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(InputError):
            Graph(2, (0b01, 0b10))  # mask bit on the vertex itself

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(InputError):
            Graph(2, (0b100, 0b000))
        with pytest.raises(InputError, match="mask count"):
            Graph(2, (0,))

    def test_checks_every_vertex_mask(self):
        # a loop or an outside bit at any vertex, among legal neighbour bits
        for n in (3, 70, 1000):
            for v in (0, n // 2, n - 1):
                legal = [0] * n
                u = (v + 1) % n
                legal[v], legal[u] = 1 << u, 1 << v
                assert Graph(n, tuple(legal)).edges() == [(min(u, v), max(u, v))]
                for bad, what in ((1 << v, "loop"), (1 << n, "outside"), (1 << 3 * n, "outside")):
                    masks = list(legal)
                    masks[v] |= bad
                    with pytest.raises(InputError, match=f"vertex {v} .*{what}"):
                        Graph(n, tuple(masks))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(InputError):
            Graph(-1, ())

    def test_from_edges_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count() == 3
        assert g.degree(1) == 2
        assert g.has_edge(3, 2) and not g.has_edge(0, 3)

    def test_edges_match_pairwise_definition(self, rng):
        for _ in range(40):
            n = rng.randint(0, 70)
            g = random_graph(rng, n, p=rng.choice([0.05, 0.5, 0.95]))
            expected = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
            assert g.edges() == expected

    def test_from_edges_rejects_loops_and_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 3)])

    def test_equality_and_hash(self):
        a = cycle_graph(5)
        b = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != cycle_graph(6)

    def test_symmetry_check(self, rng):
        for _ in range(20):
            g = random_graph(rng, 6)
            assert Graph.from_edges(g.n, g.edges()) == g

    def test_repr_builds_no_masks(self, monkeypatch):
        # C5^8's masks would take 19 GB: repr reads n and the recipe only
        builds = counting(monkeypatch, "build_masks")
        g = parse_graph("C5^8")
        assert repr(g) == f"Graph(n=390625, recipe=('x', {(('C', 5),) * 8!r}))"
        assert builds == []
        # a literal lists the edges of the masks it holds: printed in decimal,
        # a mask past bit 14,284 would pass the 4,300-digit int-to-str limit
        assert repr(Graph.from_edges(20000, [(0, 19999)])) == "Graph(n=20000, edges=[(0, 19999)])"

    def test_repr_shows_a_literal_leaf_by_its_vertex_count(self, monkeypatch):
        # the leaf's masks in decimal would pass the int-to-str limit
        builds = counting(monkeypatch, "build_masks")
        g = disjoint_union(Graph.from_edges(20000, [(0, 19999)]), cycle_graph(5))
        assert repr(g) == "Graph(n=20005, recipe=('+', (('G', <20000 vertices>), ('C', 5))))"
        assert builds == []


class TestCallTable:
    """``once`` keeps a value for the running call only: the outermost
    ``one_call`` function opens the table, and it is dropped on return."""

    def test_values_live_as_long_as_one_call(self):
        found = []

        def find():
            found.append(len(found) + 1)
            return found[-1]

        assert [graphs.once("k", find) for _ in range(2)] == [1, 2]  # no call open

        @graphs.one_call
        def inner():
            return graphs.once("k", find)

        @graphs.one_call
        def outer():
            return graphs.once("k", find), inner(), graphs.once("k", find)

        assert outer() == (3, 3, 3)  # the inner call reads the outer call's table
        assert outer() == (4, 4, 4) and inner() == 5
        assert "values" not in Graph.__slots__


class TestNumbering:
    def test_block_offsets(self):
        assert [index_offset(n) for n in range(7)] == [0, 1, 2, 4, 12, 76, 1100]

    def test_anchor_indices(self):
        assert encode(Graph(0, ())) == 0
        assert encode(single_vertex()) == 1
        assert encode(edgeless_graph(2)) == 2
        assert encode(complete_graph(2)) == 3
        assert encode(cycle_graph(5)) == 689

    def test_first_pair_is_most_significant(self):
        # within the 3-vertex block the graph with only edge {0,1} sits
        # above the one with only edge {1,2}
        only01 = Graph.from_edges(3, [(0, 1)])
        only12 = Graph.from_edges(3, [(1, 2)])
        assert encode(only01) - index_offset(3) == 0b100
        assert encode(only12) - index_offset(3) == 0b001

    def test_round_trip_small(self):
        for index in range(200):
            assert encode(decode(index)) == index

    def test_decode_rejects_negative(self):
        with pytest.raises(InputError):
            decode(-1)

    def test_round_trip_random_graphs(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9))
            assert decode(encode(g)) == g

    def test_bitstring_is_the_index_numeral(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 12))
            bits = graph_to_bitstring(g).partition(":")[2]
            assert int(bits, 2) == encode(g) - index_offset(g.n)


class TestConstructors:
    def test_families(self):
        assert edgeless_graph(4).edge_count() == 0
        assert complete_graph(4).edge_count() == 6
        assert cycle_graph(5).edge_count() == 5
        assert all(cycle_graph(7).degree(v) == 2 for v in range(7))
        assert single_vertex().n == 1

    def test_cycle_degenerate_sizes(self):
        assert cycle_graph(2) == complete_graph(2)
        assert cycle_graph(1) == single_vertex()
        with pytest.raises(InputError):
            cycle_graph(0)

    def test_complement_involution(self, rng):
        for _ in range(20):
            g = random_graph(rng, 7)
            assert complement(complement(g)) == g

    def test_complement_of_edgeless_is_complete(self):
        assert complement(edgeless_graph(5)) == complete_graph(5)

    def test_disjoint_union(self):
        g = disjoint_union(cycle_graph(3), edgeless_graph(2))
        assert g.n == 5
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def recipe_bases() -> list[Graph]:
    """Every constructor that sets a recipe, small sizes, and the
    complements of those graphs."""
    bases = [cycle_graph(n) for n in range(1, 9)]
    bases += [complete_graph(n) for n in range(1, 7)]
    bases += [edgeless_graph(n) for n in range(1, 7)]
    bases.append(single_vertex())
    return bases + [complement(g) for g in bases]


class TestTransitiveFlag:
    """A recipe lets the alpha solver search one root branch, so it must
    never be set on a graph that is not vertex-transitive."""

    def test_oracle_rejects_non_transitive_graphs(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not is_vertex_transitive(path)
        assert not is_vertex_transitive(strong_product(cycle_graph(5), path))
        assert not is_vertex_transitive(disjoint_union(single_vertex(), cycle_graph(5)))
        # regular but not transitive: a triangle and a 4-cycle side by side
        assert not is_vertex_transitive(disjoint_union(cycle_graph(3), cycle_graph(4)))
        assert is_vertex_transitive(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))

    def test_flagged_bases_are_transitive(self):
        for g in recipe_bases():
            assert transitive(g.recipe)
            assert is_vertex_transitive(g), g

    def test_flagged_products_are_transitive(self, rng):
        bases = recipe_bases()
        products = [
            strong_product(g, h) for g in bases for h in bases if 2 <= g.n * h.n <= 30
        ]
        products = rng.sample(products, 60)
        products += [
            complement(strong_product(cycle_graph(5), cycle_graph(4))),
            strong_product(strong_product(cycle_graph(3), complete_graph(2)), edgeless_graph(2)),
        ]
        for g in products:
            assert transitive(g.recipe)
            assert is_vertex_transitive(g), g

    def test_flagged_powers_are_transitive(self):
        for g in recipe_bases():
            for k in range(2, 6):
                if g.n ** k > 30:
                    break
                p = strong_power(g, k)
                assert transitive(p.recipe)
                assert is_vertex_transitive(p), (g, k)

    def test_flag_needs_both_factors(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        leaf = ("G", path.masks)
        assert path.recipe == leaf and not transitive(leaf)
        assert strong_product(cycle_graph(5), path).recipe == ("x", (("C", 5), leaf))
        assert strong_product(path, cycle_graph(5)).recipe == ("x", (leaf, ("C", 5)))
        co = complement(path)  # the complement of the leaf
        assert co.recipe == ("co", leaf)
        for g in (strong_product(cycle_graph(5), path), strong_product(path, cycle_graph(5)), co):
            assert not transitive(g.recipe) and orbit_labels(g, 0) is None

    def test_other_constructors_leave_it_unset(self):
        c5 = cycle_graph(5)
        leaves = [
            decode(encode(c5)),
            Graph.from_edges(5, c5.edges()),
            graph_from_bitstring(graph_to_bitstring(c5)),
            graph_from_edgetext("5; 0-1, 1-2, 2-3, 3-4, 0-4"),
            confusability_graph(make_pentagon_channel()),
            parse_graph(str(encode(c5))),
        ]
        for g in leaves:
            assert g == c5 and g.recipe == ("G", c5.masks)
            assert not transitive(g.recipe) and orbit_labels(g, 0) is None
        # a sum with a literal term keeps the leaf and gets no labels
        g = parse_graph("5:1001100101+C5")
        assert g == disjoint_union(c5, c5) and g.recipe == ("+", (("G", c5.masks), ("C", 5)))
        assert orbit_labels(g, 0) is None
        assert transitive(parse_graph("C5^2*K2").recipe)
        # a sum carries a recipe but no labels, even where it is transitive
        for g in (disjoint_union(c5, c5), parse_graph("C5+C5")):
            assert g.recipe == ("+", (("C", 5), ("C", 5)))
            assert orbit_labels(g, 0) is None

    def test_sums_are_flat_and_never_labelled(self, rng):
        # any graph with a union inside its recipe, however deep, gets no
        # labels, so the alpha solver never takes it for vertex-transitive
        c3, c5, k2 = cycle_graph(3), cycle_graph(5), complete_graph(2)
        s_c5 = disjoint_union(single_vertex(), c5)
        assert not is_vertex_transitive(s_c5)
        nested = disjoint_union(disjoint_union(c3, k2), disjoint_union(c5, s_c5))
        assert nested.recipe == ("+", (("C", 3), ("K", 2), ("C", 5), ("E", 1), ("C", 5)))
        assert nested == disjoint_union(c3, k2, c5, single_vertex(), c5)
        assert parse_graph("C3+(K2+C5)+(S+C5)").recipe == nested.recipe
        with_sums = [s_c5, nested, strong_power(s_c5, 2), strong_product(c5, s_c5),
                     disjoint_union(complement(c5), complement(c3))]
        # a complemented union keeps the union under its "co", and anything
        # built on it has that union inside
        co_sums = [complement(s_c5), strong_product(complement(s_c5), k2),
                   disjoint_union(complement(s_c5), c5)]
        bases = recipe_bases()
        for _ in range(20):
            terms = rng.sample(bases, rng.randint(2, 3))
            g = disjoint_union(*terms)
            with_sums += [g, strong_product(g, rng.choice(bases))]
            co_sums.append(complement(g))
        for g in with_sums:
            assert not transitive(g.recipe)
            assert recipe_vertices(g.recipe) == g.n
            assert all(orbit_labels(g, r) is None for r in range(g.n))
        for g in co_sums:
            assert "'+'" in repr(g.recipe) and recipe_vertices(g.recipe) == g.n
            assert not transitive(g.recipe) and orbit_labels(g, 0) is None
        assert complement(s_c5).recipe == ("co", s_c5.recipe)
        for g in recipe_bases():
            assert transitive(g.recipe) and orbit_labels(g, 0) is not None

    def test_equality_and_hash_ignore_the_flag(self):
        for g in recipe_bases():
            plain = Graph(g.n, g.masks)
            assert g.recipe != plain.recipe == ("G", g.masks)
            assert plain == g and g == plain
            assert hash(plain) == hash(g)
            assert len({plain, g}) == 1


class TestRecipeGraph:
    """Equal expressions build equal graphs: recipe_graph rebuilds any
    graph, recipe and all, from its recipe alone."""

    @staticmethod
    def expression(rng, depth: int = 2) -> str:
        """A random expression of at most a few hundred vertices: named
        leaves, bit strings and indices under ~, ~~, + and *."""
        if depth == 0 or rng.random() < 0.3:
            kind = rng.randrange(4)
            if kind == 0:
                return rng.choice(("S", "C3", "C4", "C5", "K2", "K3", "E2", "E3"))
            lit = random_graph(rng, rng.randint(0, 4), rng.choice((0.3, 0.5, 0.7)))
            return str(encode(lit)) if kind == 1 else graph_to_bitstring(lit)
        a, b = (TestRecipeGraph.expression(rng, depth - 1) for _ in range(2))
        return rng.choice((f"~({a}+{b})", f"~~({a})", f"~({a}*{b})", f"({a})+({b})",
                           f"({a})*({b})", f"~({a})"))

    def test_round_trip_over_parsed_expressions(self, rng):
        kinds = set()
        for _ in range(150):
            text = self.expression(rng)
            g = parse_graph(text)
            back = recipe_graph(g.recipe)
            assert back == g and back.recipe == g.recipe, text
            assert recipe_vertices(g.recipe) == g.n
            if g.recipe[0] == "co":
                operand = g.recipe[1]
                kinds.add((operand[0], "'G'" in repr(operand)))
        # complements over unions, literals and products holding a literal
        assert {("+", True), ("G", True), ("x", True)} <= kinds

    def test_complement_of_a_complement_is_the_operand(self):
        lit = parse_graph("5:1001100101")
        for g in (lit, disjoint_union(single_vertex(), cycle_graph(5)),
                  strong_product(lit, cycle_graph(3))):
            co = complement(g)
            assert co.recipe == ("co", g.recipe)
            twice = complement(co)
            assert twice == g and twice.recipe == g.recipe
            assert recipe_graph(co.recipe) == co
        assert parse_graph("~~(5:1001100101+C5)").recipe == parse_graph("5:1001100101+C5").recipe


def counting(monkeypatch, name: str) -> list:
    """The argument tuples of every call to zecap.graphs.<name> from now on,
    the builder's calls to itself included."""
    calls = []
    real = getattr(graphs, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, name, counted)
    return calls


# SHA-256 of C5^6's masks, each in 1,954 little-endian bytes, recorded from the
# earlier strong_power, which built them itself by repeated squaring
C5_POWER_6_DIGEST = "ec08f697ad975882a03c8f83cd64a849c93ca6944c5e854443a18da9a362f87e"


def _defined_product(factors: list[Graph]) -> tuple[int, ...]:
    """The strong product's masks straight from its definition, vertex index
    mixed radix over the factors, the last one fastest."""
    tuples = list(itertools.product(*(range(f.n) for f in factors)))
    close = [lambda a, b, f=f: a == b or f.has_edge(a, b) for f in factors]
    return tuple(
        sum(1 << j for j, t in enumerate(tuples)
            if t != s and all(c(x, y) for c, x, y in zip(close, s, t)))
        for s in tuples
    )


class TestOneBuilder:
    """Constructors compose recipes; one builder makes the masks, the first
    time something reads them, after checking the bytes they take."""

    def test_constructors_build_nothing(self, monkeypatch):
        builds = counting(monkeypatch, "build_masks")
        c5 = cycle_graph(5)
        g = complement(disjoint_union(strong_power(c5, 8), strong_product(c5, complete_graph(3))))
        assert g.n == 5**8 + 15 and builds == []
        # read off the recipe: C5^8 has (3^8 * 5^8 - 5^8) / 2 edges, C5 x K3 60
        pairs = g.n * (g.n - 1) // 2
        assert g.edge_count() == pairs - (3**8 - 1) * 5**8 // 2 - 60 and builds == []

    def test_masks_are_built_once_at_first_read(self, monkeypatch):
        builds = counting(monkeypatch, "build_masks")
        g = strong_product(cycle_graph(5), cycle_graph(4))
        assert builds == []
        first = g.masks
        assert builds[0] == (g.recipe,) and len(builds) == 3  # the product and its two factors
        assert g.masks is first and len(builds) == 3

    def test_c5_power_six_is_reached_by_squaring(self, monkeypatch):
        # C5^2, C5^3 = C5 x C5^2 and C5^6 = C5^3 x C5^3: 3 products, where a
        # left fold over the six factors takes 5
        products = counting(monkeypatch, "_product")
        masks = graphs.build_masks(strong_power(cycle_graph(5), 6).recipe)
        width = (5**6 + 7) // 8
        digest = hashlib.sha256(b"".join(m.to_bytes(width, "little") for m in masks)).hexdigest()
        assert digest == C5_POWER_6_DIGEST and len(products) == 3

    def test_products_with_runs_match_the_definition(self, rng):
        # runs of equal factors are squared, the runs multiplied in order
        lit = random_graph(rng, 3)
        c4, k2 = cycle_graph(4), complete_graph(2)
        for factors in ([lit, lit, c4, lit], [k2, k2, k2, lit, lit], [c4, c4, c4]):
            g = factors[0]
            for f in factors[1:]:
                g = strong_product(g, f)
            assert g.masks == _defined_product(factors)

    def test_recipe_edge_count_matches_the_masks(self, rng):
        # K, E and C leaves, literals (empty ones too), co, + and x, up to
        # 625 vertices
        def draw(depth: int) -> Graph:
            if depth == 0 or rng.random() < 0.3:
                pick = rng.randrange(4)
                if pick == 3:
                    return random_graph(rng, rng.randint(0, 5), rng.choice((0.3, 0.7)))
                return (complete_graph, edgeless_graph, cycle_graph)[pick](rng.randint(1, 5))
            a, b = draw(depth - 1), draw(depth - 1)
            return rng.choice((complement(a), disjoint_union(a, b), strong_product(a, b)))

        kinds = set()
        for _ in range(300):
            g = draw(2)
            kinds.add(g.recipe[0])
            assert recipe_edges(g.recipe) == sum(m.bit_count() for m in g.masks) // 2, g.recipe
        assert kinds == {"K", "E", "C", "G", "co", "+", "x"}

    def test_byte_stop_comes_before_any_product(self, monkeypatch):
        products = counting(monkeypatch, "_product")
        g = strong_power(cycle_graph(5), 7)
        with pytest.raises(BudgetError) as exc:
            g.masks
        need = 5**7 * ((5**7 + 7) // 8)  # 763 MB
        e = exc.value
        assert (e.reason, e.used, e.partial) == ("adjacency byte limit", need, None)
        assert str(e) == (
            f"adjacency of {5**7} vertices needs {need} bytes, budget is {ADJACENCY_MAX_BYTES}"
        )
        assert products == []
        # the largest graphs it lets through: C5^6 and E20000
        assert max(5**6 * ((5**6 + 7) // 8), 20000 * 2500) <= ADJACENCY_MAX_BYTES

    def test_a_literal_is_never_built(self, monkeypatch):
        builds = counting(monkeypatch, "build_masks")
        g = graph_from_edgetext("40000;")  # past the byte limit, yet given as masks
        assert g.masks == (0,) * 40000 and builds == []

    @pytest.mark.parametrize("text", ["C5^8", "~(C5^8)", "(S+C5)^6", "K1048576", "~E1048576"])
    def test_theta_and_the_clique_cover_build_no_masks(self, monkeypatch, text):
        builds = counting(monkeypatch, "build_masks")
        g = parse_graph(text)
        assert lovasz_theta(g, Fraction(1, 10**4)).hi > 0
        try:
            assert fractional_clique_cover(g).hi > 0
        except BudgetError as e:
            # a complement of a product has no closed chi_f-bar, and C5^8 is
            # past the LP's cap: the stop comes before any build
            assert text == "~(C5^8)" and e.reason == "vertex budget"
        assert builds == []

    def test_a_ladder_level_past_the_byte_limit_counts_no_nodes(self):
        # level 1 fits this vertex cap, but its greedy bounds read level 0's
        # masks, which are past the byte limit too: both levels stop, with
        # no partial set and no nodes
        powers = PowerLadder(strong_power(cycle_graph(5), 8), 10**12)
        assert powers.solve(1) is None
        assert [powers.stops[k].reason for k in (0, 1)] == ["adjacency byte limit"] * 2
        assert powers.nodes == {} and powers.alpha == {}


def labelled_cases() -> list[Graph]:
    """Labelled constructions whose Aut is small enough to search: the
    bases and their complements, and products with and without equal
    factors, complemented factors and a complemented product."""
    c5 = cycle_graph(5)
    bases = [cycle_graph(n) for n in range(1, 10)]
    bases += [complete_graph(n) for n in range(1, 6)]
    bases += [edgeless_graph(n) for n in range(1, 6)]
    bases += [complement(g) for g in bases]
    return bases + [
        strong_power(c5, 2),
        strong_product(cycle_graph(3), cycle_graph(4)),
        strong_product(c5, complete_graph(2)),
        complement(strong_power(c5, 2)),
        strong_product(complement(c5), c5),
        strong_product(c5, complement(c5)),
    ]


class TestOrbitLabels:
    """Equal labels relative to a root must mean one orbit of the root's
    stabilizer: the alpha solver drops a whole label class at once."""

    def test_equal_labels_share_a_stabilizer_orbit(self):
        for g in labelled_cases():
            roots = range(g.n) if g.n <= 12 else (0, 7, g.n - 1)
            for r in roots:
                labels = orbit_labels(g, r)
                assert len(labels) == g.n
                first = {}
                for x in range(g.n):
                    y = first.setdefault(labels[x], x)
                    assert has_automorphism(g, y, x, fixed=[r]), (g, r, y, x)

    def test_oracle_respects_the_fixed_vertex(self):
        c5 = cycle_graph(5)
        assert has_automorphism(c5, 1, 4, fixed=[0])  # the reflection through 0
        assert not has_automorphism(c5, 1, 2, fixed=[0])
        assert has_automorphism(c5, 1, 2)
        assert not has_automorphism(c5, 0, 1, fixed=[0])
        # (1, 2) and (2, 1) of C5 x complement(C5) are adjacent to (0, 0) and not
        g = strong_product(c5, complement(c5))
        assert not has_automorphism(g, 1 * 5 + 2, 2 * 5 + 1, fixed=[0])

    def test_power_labels_are_sorted_cyclic_distances(self):
        g = strong_power(cycle_graph(5), 3)
        r = 1 * 25 + 4 * 5 + 2

        def distance(a, b):
            return min((a - b) % 5, (b - a) % 5)

        labels = orbit_labels(g, r)
        expected = [
            tuple(sorted(distance(a, b) for a, b in zip((x // 25, x // 5 % 5, x % 5), (1, 4, 2))))
            for x in range(g.n)
        ]
        # the two partitions of the vertices are the same
        assert len(set(zip(labels, expected))) == len(set(labels)) == len(set(expected)) == 10

    def test_different_factors_are_not_sorted(self):
        c5 = cycle_graph(5)
        for g in (strong_product(c5, complement(c5)), strong_product(complement(c5), c5)):
            labels = orbit_labels(g, 0)
            assert labels[1 * 5 + 2] != labels[2 * 5 + 1]
            assert len(set(labels)) == 9

    def test_products_flatten_and_complements_keep_labels(self):
        c3, k2, e2 = cycle_graph(3), complete_graph(2), edgeless_graph(2)
        left = strong_product(strong_product(c3, k2), e2)
        right = strong_product(c3, strong_product(k2, e2))
        assert left == right and left.recipe == right.recipe
        assert strong_power(c3, 4).recipe == strong_product(strong_power(c3, 2), strong_power(c3, 2)).recipe
        for g in (c3, k2, e2, strong_power(c3, 2)):
            for r in range(g.n):
                assert orbit_labels(complement(g), r) == orbit_labels(g, r)
        co = complement(strong_power(c3, 2))
        # a complemented product is one coordinate of a product, not two
        assert len(strong_product(co, c3).recipe[1]) == 2


class TestStrongProduct:
    def test_defining_adjacency(self, rng):
        g = random_graph(rng, 4)
        h = random_graph(rng, 3)
        p = strong_product(g, h)
        assert p.n == 12
        for a in range(g.n):
            for b in range(h.n):
                for c in range(g.n):
                    for d in range(h.n):
                        expect = (
                            (a, b) != (c, d)
                            and (a == c or g.has_edge(a, c))
                            and (b == d or h.has_edge(b, d))
                        )
                        assert p.has_edge(a * h.n + b, c * h.n + d) == expect

    def test_power_equals_iterated_product(self):
        g = cycle_graph(5)
        by_product = strong_product(strong_product(g, g), g)
        assert strong_power(g, 3) == by_product

    def test_power_of_single_vertex(self):
        assert strong_power(single_vertex(), 10) == single_vertex()

    def test_power_requires_positive_exponent(self):
        with pytest.raises(InputError):
            strong_power(cycle_graph(3), 0)

    def test_product_vertex_cap(self):
        with pytest.raises(BudgetError):
            strong_product(complete_graph(5), complete_graph(5), max_vertices=20)

    def test_power_vertex_cap(self):
        with pytest.raises(BudgetError):
            strong_power(cycle_graph(5), 8, max_vertices=1000)

    def test_power_fits_handles_huge_exponents(self):
        assert power_fits(1, 1 << 40, 10)
        assert not power_fits(2, 1 << 40, 1 << 30)
        assert power_fits(5, 4, 625)
        assert not power_fits(5, 10**400, 1 << 20)  # past the float range
        assert not power_fits(5, 4, 624)

    def test_power_fits_rejects_a_cap_below_one(self):
        for cap in (0, -1):
            with pytest.raises(InputError):
                power_fits(5, 2, cap)


class TestIsomorphism:
    def test_relabeled_cycle(self, rng):
        g = cycle_graph(6)
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
        assert is_isomorphic(g, h)

    def test_path_vs_cycle(self):
        path5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not is_isomorphic(cycle_graph(5), path5)

    def test_degree_sequence_mismatch(self):
        assert not is_isomorphic(complete_graph(4), cycle_graph(4))

    def test_size_cap(self):
        with pytest.raises(BudgetError):
            is_isomorphic(edgeless_graph(11), edgeless_graph(11))

    def test_exactly_twelve_pentagon_labelings(self, pentagon):
        count = sum(
            1
            for index in range(index_offset(5), index_offset(6))
            if is_isomorphic(decode(index), pentagon)
        )
        assert count == 12


class TestSerialization:
    def test_bitstring_round_trip(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 8))
            assert graph_from_bitstring(graph_to_bitstring(g)) == g

    def test_pentagon_bitstring(self, pentagon):
        assert graph_to_bitstring(pentagon) == "5:1001100101"

    def test_bitstring_errors(self):
        with pytest.raises(InputError):
            graph_from_bitstring("5:101")  # wrong bit count
        with pytest.raises(InputError):
            graph_from_bitstring("abc")
        with pytest.raises(InputError):
            graph_from_bitstring("3:10x")
        with pytest.raises(InputError, match="bad vertex count"):
            graph_from_bitstring("x:01")
        with pytest.raises(InputError, match="nonnegative"):
            graph_from_bitstring("-1:")

    def test_edgetext(self):
        g = graph_from_edgetext("5; 0-1, 1-2, 2-3, 3-4, 0-4")
        assert g == cycle_graph(5)
        assert graph_from_edgetext("3;") == edgeless_graph(3)

    def test_edgetext_errors(self):
        with pytest.raises(InputError):
            graph_from_edgetext("3; 0-3")
        with pytest.raises(InputError):
            graph_from_edgetext("3; 1-1")
        with pytest.raises(InputError):
            graph_from_edgetext("nope")


def _ladder_stop(cap: int):
    powers = PowerLadder(cycle_graph(5), cap)
    assert powers.solve(2) is None
    raise powers.stops[2]


class TestVertexBudgetStop:
    """Every vertex-budget stop is ``require_fits``'s: one reason, the count
    it needed as ``used``, and one message."""

    @pytest.mark.parametrize(
        "stop, what, used, cap",
        [
            (lambda: strong_product(cycle_graph(5), cycle_graph(5), 20), "strong product", 25, 20),
            (lambda: _ladder_stop(100), "strong product", 625, 100),
            (lambda: strong_power(cycle_graph(5), 4, 100), "strong power", 625, 100),
            (lambda: slack_test(single_vertex(), single_vertex(), 1, 10, 10, 512),
             "slack factor", 1024, 512),
            (lambda: slack_test(cycle_graph(5), cycle_graph(5), 1, 4, 1, 1000),
             "h^4 beside edgeless(2^1)", 625, 500),
            (lambda: graph_from_edgetext("2000;"), "graph", 2000, 1000),
            (lambda: parse_graph("E2000"), "graph", 2000, 1000),
            (lambda: is_isomorphic(cycle_graph(11), cycle_graph(11)), "isomorphism search", 11, 10),
            (lambda: leq(strong_power(cycle_graph(5), 2), cycle_graph(5)), "order test", 25, 12),
            (lambda: lovasz_theta(Graph(65, (0,) * 65), 1), "theta solver", 65, 64),
            (
                lambda: fractional_clique_cover(Graph(25, strong_power(cycle_graph(5), 2).masks)),
                "clique cover", 25, 24,
            ),
        ],
        ids=["product", "ladder", "power", "slack-factor", "slack-power", "edge-list", "named",
             "isomorphism", "order", "theta", "cover"],
    )
    def test_reason_used_and_message(self, monkeypatch, stop, what, used, cap):
        monkeypatch.setattr(graphs, "DEFAULT_MAX_VERTICES", 1000)  # the cap of text input
        with pytest.raises(BudgetError) as exc:
            stop()
        e = exc.value
        assert (e.reason, e.used, e.partial) == ("vertex budget", used, None)
        assert str(e) == f"{what} needs {used} vertices, budget is {cap}"


class TestNodeBudgetStop:
    """Both searches count nodes on one ``NodeBudget``: one input check, one
    reason, the nodes spent as ``used``; only alpha's stop keeps a partial set."""

    SEARCHES = {
        "alpha": lambda budget: solve_alpha(cycle_graph(5), budget),
        "homomorphism search": lambda budget: _hom_search(
            complement(cycle_graph(5)), complement(cycle_graph(5)), budget),
    }

    @pytest.mark.parametrize("what", sorted(SEARCHES))
    def test_negative_budget_is_one_input_error(self, what):
        with pytest.raises(InputError) as exc:
            self.SEARCHES[what](-1)
        assert str(exc.value) == "node budget must be nonnegative, got -1"

    @pytest.mark.parametrize("what", sorted(SEARCHES))
    def test_zero_budget_stops_at_the_first_node(self, what):
        with pytest.raises(BudgetError) as exc:
            self.SEARCHES[what](0)
        e = exc.value
        assert (e.reason, e.used) == ("node budget", 1)
        assert str(e).startswith(f"{what} node budget 0 exhausted")
        assert (e.partial is not None) == (what == "alpha")
