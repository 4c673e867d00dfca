"""Cohomomorphism preorder on graphs and its asymptotic relaxation.

g is below h when a graph homomorphism maps complement(g) into
complement(h): non-adjacent distinct vertices of g must stay distinct and
non-adjacent in h.  The search backtracks with forward checking, takes the
source vertex with the smallest domain first (DSATUR), and maps into each
class of twin target vertices only through its lowest unused member.  Both
rules keep it exhaustive, so a refusal is a proof of nonexistence (within
the configured budgets, which raise instead of guessing).

On top of the one-shot order sit the slack-power test
    g^n  <=  edgeless(2^k) ⊠ h^n      (with the rate condition k·m <= n)
and a bounded search over (n, k) witnessing the asymptotic relation for a
given slack denominator m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alpha import solve_alpha
from .errors import BudgetError, InputError
from .graphs import (
    Graph,
    NodeBudget,
    complement,
    edgeless_graph,
    require_fits,
    single_vertex,
    strong_power,
    strong_product,
    vertex_budget,
)

LEQ_MAX_VERTICES = 12
TEST_F_POWER_CAP = 512
TEST_F_NODE_BUDGET = 2_000_000
ASYM_SEARCH_BUDGET = 32


@dataclass
class HomWitness:
    """Outcome of a homomorphism search between graph complements.

    mapping is indexed by source-complement vertex; None means the search
    exhausted every assignment, which refutes the relation.
    """

    source: Graph  # complement of the left graph
    target: Graph  # complement of the right graph
    mapping: tuple[int, ...] | None
    nodes_used: int = 0

    @property
    def established(self) -> bool:
        return self.mapping is not None

    def verify(self) -> bool:
        if self.mapping is None:
            return False
        if len(self.mapping) != self.source.n:
            return False
        if any(not 0 <= t < self.target.n for t in self.mapping):
            return False
        return all(
            self.target.has_edge(self.mapping[u], self.mapping[v])
            for u, v in self.source.edges()
        )


def _hom_search(
    src: Graph, dst: Graph, node_budget: int | None
) -> tuple[tuple[int, ...] | None, int]:
    """Find a homomorphism src -> dst (edges to edges) or prove none exists.

    Source vertices are taken smallest domain first, ties to higher source
    degree.  Candidates are read lowest target first, cut down by a twin
    rule that never loses a solution: target vertices with equal open
    neighbourhoods, or equal closed ones, form a twin class.  A source
    vertex may map to any target already in the image, but among the
    unused members of a class only to the lowest.  Swapping two unused
    twins is an automorphism of dst that fixes the partial image
    pointwise, so it leaves every forward-checked domain as it is and
    carries the subtree under one twin onto the subtree under the other.

    A clique source asks for an independent set of its size in the
    complement of dst; ``leq`` answers that with ``solve_alpha`` and never
    sends one here.
    """
    budget = NodeBudget(node_budget, "homomorphism search")
    ns, nt = src.n, dst.n
    if ns == 0:
        return (), 0
    if nt == 0:
        return None, 0
    # position i holds source vertex order[i]; falling degree, so that
    # index() on the size list breaks ties towards the higher degree
    order = sorted(range(ns), key=lambda v: -src.degree(v))
    position = [0] * ns
    for i, v in enumerate(order):
        position[v] = i
    nbrs = [[position[w] for w in range(ns) if src.masks[v] >> w & 1] for v in order]
    # succ[t]: bit of the member after t in t's twin class (0 if t is last).
    # A vertex with a twin of one kind has none of the other, so the two
    # passes never both link the same vertex.
    succ = [0] * nt
    for closed in (0, 1):
        last: dict[int, int] = {}
        for t in range(nt):
            key = dst.masks[t] | closed << t
            if key in last:
                succ[last[key]] = 1 << t
            last[key] = t
    full = (1 << nt) - 1
    allowed = full  # targets in the image plus the lowest unused of each class
    for bit in succ:
        allowed &= ~bit
    used = 0
    done = nt + 1  # size of an assigned vertex, above every domain size
    domains = [full] * ns
    sizes = [nt] * ns
    rows = dst.masks

    def assign(depth: int) -> bool:
        nonlocal used, allowed
        if depth == ns:
            return True
        i = sizes.index(min(sizes))
        domain, size = domains[i], sizes[i]
        sizes[i] = done
        cand = domain & allowed
        while cand:
            lsb = cand & -cand
            cand ^= lsb
            budget.spend()
            t = lsb.bit_length() - 1
            # an assigned vertex's domain is its image, which every later
            # neighbour's row contains, so the loop below passes it over
            domains[i] = lsb
            fresh = not used & lsb
            if fresh:
                used |= lsb
                allowed |= succ[t]
            row = rows[t]
            saved = []
            for w in nbrs[i]:
                d = domains[w]
                nd = d & row
                if nd != d:
                    saved.append((w, d, sizes[w]))
                    if not nd:
                        break
                    domains[w] = nd
                    sizes[w] = nd.bit_count()
            else:
                if assign(depth + 1):
                    return True
            for w, d, s in saved:
                domains[w] = d
                sizes[w] = s
            if fresh:
                used ^= lsb
                allowed ^= succ[t]
        domains[i], sizes[i] = domain, size
        return False

    if assign(0):
        return tuple(domains[position[v]].bit_length() - 1 for v in range(ns)), budget.used
    return None, budget.used


def leq(
    g: Graph,
    h: Graph,
    max_vertices: int = LEQ_MAX_VERTICES,
    node_budget: int | None = None,
) -> HomWitness:
    """Decide the cohomomorphism order g <= h by exhaustive search."""
    if max_vertices < 0:
        raise InputError(f"vertex cap must be nonnegative, got {max_vertices}")
    require_fits("order test", max(g.n, h.n), max_vertices)
    src = complement(g)
    dst = complement(h)
    if g.n > 0 and g.edge_count() == 0:
        # edgeless g makes the source a clique, so the question is exactly
        # whether h has an independent set of size g.n; the bounded
        # branch-and-bound solver answers that far faster than plain
        # backtracking and is equally exhaustive
        witness, nodes = solve_alpha(h, node_budget)
        mapping = (
            tuple(sorted(witness.vertices)[: g.n]) if witness.size >= g.n else None
        )
        return HomWitness(source=src, target=dst, mapping=mapping, nodes_used=nodes)
    mapping, nodes = _hom_search(src, dst, node_budget)
    return HomWitness(source=src, target=dst, mapping=mapping, nodes_used=nodes)


def test_F(
    g: Graph,
    h: Graph,
    m: int,
    n: int,
    k: int,
    power_cap: int = TEST_F_POWER_CAP,
    node_budget: int | None = TEST_F_NODE_BUDGET,
) -> int:
    """Slack-power comparison: 1 iff k·m <= n and g^n <= edgeless(2^k) ⊠ h^n."""
    if m < 0 or n < 0 or k < 0:
        raise InputError("slack test arguments must be nonnegative")
    if k * m > n:
        return 0
    # size the slack factor and the product before building anything: an
    # empty h^n hides any factor from strong_product's own check
    cap = vertex_budget(power_cap)
    require_fits("slack factor", 2, cap, exponent=k)
    require_fits(f"h^{n} beside edgeless(2^{k})", h.n, cap >> k, exponent=n)
    if n == 0:
        gp = single_vertex()
        hp = single_vertex()
    else:
        gp = strong_power(g, n, power_cap)
        hp = strong_power(h, n, power_cap)
    target = strong_product(edgeless_graph(1 << k), hp, power_cap)
    witness = leq(gp, target, max_vertices=max(gp.n, target.n, 1), node_budget=node_budget)
    return 1 if witness.established else 0


ESTABLISHED = "Established"
INCONCLUSIVE = "Inconclusive"


@dataclass
class AsymptoticOutcome:
    status: str
    n: int | None
    k: int | None
    tests_used: int
    frontier: list[tuple[int, int]] = field(default_factory=list)

    @property
    def established(self) -> bool:
        return self.status == ESTABLISHED


def asymptotic_leq_bounded(
    g: Graph,
    h: Graph,
    m: int,
    search_budget: int = ASYM_SEARCH_BUDGET,
    power_cap: int = TEST_F_POWER_CAP,
    node_budget: int | None = TEST_F_NODE_BUDGET,
) -> AsymptoticOutcome:
    """Search (n, k) with k·m <= n witnessing the asymptotic relation.

    Established is a certificate; Inconclusive is NOT a refutation — the
    relation is only semi-decidable, and the frontier of attempted pairs
    is returned so callers can resume with a larger budget.
    """
    if m < 1:
        raise InputError("slack denominator must be at least 1")
    if search_budget < 1:
        raise InputError("search budget must be positive")
    tests = 0
    frontier: list[tuple[int, int]] = []
    n = 0
    while tests < search_budget:
        n += 1
        for k in range(n // m + 1):
            if tests >= search_budget:
                break
            tests += 1
            frontier.append((n, k))
            try:
                fired = test_F(g, h, m, n, k, power_cap, node_budget)
            except BudgetError:
                continue
            if fired:
                return AsymptoticOutcome(ESTABLISHED, n, k, tests, frontier)
    return AsymptoticOutcome(INCONCLUSIVE, None, None, tests, frontier)
