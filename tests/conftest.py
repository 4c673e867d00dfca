"""Shared fixtures and independent brute-force oracles.

The oracles here recompute answers by definition-level enumeration —
subsets for independence numbers, all vertex maps for homomorphisms,
partitions into cliques for clique covers, bijections for automorphisms —
or by the textbook method (the one-vertex recurrence for independence
numbers, a Fraction tableau for the simplex, bitmask rescans for the
smallest-last order and the greedy seed), so the optimized solvers are
always checked against something that cannot share their bugs.  ``reference_solve_alpha`` is no
oracle: it is the alpha search with its coloring written out per vertex, so
a faster coloring can be checked to build the same tree.
``strassen_axiom_suite`` is no oracle either: it checks the preorder's
ordered-semiring laws on a sample of graphs (README criterion 6).
"""

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import pytest

from zecap import (
    BudgetError,
    Graph,
    Channel,
    IndependentSetWitness,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    encode,
    leq,
    solve_alpha,
    strong_product,
)
from zecap.alpha import _root_orbits
from zecap.exact import UnboundedError


def brute_alpha(g: Graph) -> int:
    """Independence number by scanning every vertex subset."""
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        if all(
            not (g.masks[v] & mask)
            for v in range(g.n)
            if mask >> v & 1
        ):
            best = size
    return best


def recursive_alpha(g: Graph) -> int:
    """Independence number by the textbook recurrence on the lowest vertex
    v of what is left, alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])),
    memoized on S; fast where the subset scan is not (25-vertex squares)."""
    memo = {0: 0}

    def solve(s: int) -> int:
        got = memo.get(s)
        if got is None:
            v = (s & -s).bit_length() - 1
            rest = s & ~(1 << v)
            got = memo[s] = max(solve(rest), 1 + solve(rest & ~g.masks[v]))
        return got

    return solve((1 << g.n) - 1)


def brute_hom_exists(src: Graph, dst: Graph) -> bool:
    """Edge-preserving map existence by trying every function."""
    if src.n == 0:
        return True
    if dst.n == 0:
        return False
    edges = src.edges()
    return any(
        all(dst.has_edge(f[u], f[v]) for u, v in edges)
        for f in itertools.product(range(dst.n), repeat=src.n)
    )


def brute_clique_cover(g: Graph) -> int:
    """Fewest cliques partitioning the vertices, over every such partition."""
    best = g.n
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        nonlocal best
        if len(blocks) >= best:
            return
        if v == g.n:
            best = len(blocks)
            return
        for block in blocks:
            if all(g.has_edge(v, u) for u in block):
                block.append(v)
                place(v + 1)
                block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(0)
    return best


def has_automorphism(g: Graph, src: int, dst: int, fixed=()) -> bool:
    """Whether some automorphism of g maps src to dst and fixes every vertex
    in ``fixed``.

    Backtracks over bijections, assigning the prescribed vertices first (a
    fixed vertex prunes most) and then the others in breadth-first order
    from them, and keeps a partial map only while it preserves adjacency
    and non-adjacency between every pair mapped so far.
    """
    n = g.n
    prescribed = {v: v for v in fixed}
    if prescribed.get(src, dst) != dst:
        return False
    prescribed[src] = dst
    order = list(prescribed)
    seen = set(order)
    head = 0
    while len(order) < n:
        if head == len(order):  # the search so far met no unseen vertex
            start = next(u for u in range(n) if u not in seen)
            seen.add(start)
            order.append(start)
        v = order[head]
        head += 1
        for u in range(n):
            if g.has_edge(v, u) and u not in seen:
                seen.add(u)
                order.append(u)
    image = {}
    used = set()

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for t in [prescribed[v]] if v in prescribed else range(n):
            if t in used or g.degree(t) != g.degree(v):
                continue
            if all(g.has_edge(v, u) == g.has_edge(t, image[u]) for u in order[:pos]):
                image[v] = t
                used.add(t)
                if extend(pos + 1):
                    return True
                del image[v]
                used.discard(t)
        return False

    return extend(0)


def is_vertex_transitive(g: Graph) -> bool:
    """Whether automorphisms carry vertex 0 to every vertex."""
    return all(has_automorphism(g, 0, t) for t in range(g.n))


def reference_smallest_last(g: Graph) -> tuple[list[int], Graph]:
    """The solver's vertex order and renumbered graph, recomputed with
    bitmasks: remove a live vertex of most live neighbors (lowest label on
    ties), repeat, and put the first one removed last; then vertex order[i]
    of g is vertex i."""
    alive = (1 << g.n) - 1
    order = []
    while alive:
        best_v = -1
        best_d = -1
        for v in range(g.n):
            if alive >> v & 1:
                d = (g.masks[v] & alive).bit_count()
                if d > best_d:
                    best_d = d
                    best_v = v
        order.append(best_v)
        alive &= ~(1 << best_v)
    order.reverse()
    label = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << label[u] for u in range(g.n) if g.masks[v] >> u & 1) for v in order]
    return order, Graph(g.n, tuple(masks))


def reference_greedy_seed(g: Graph) -> list[int]:
    """The solver's initial incumbent, recomputed with bitmasks: take a
    live vertex of fewest live neighbors (lowest label on ties), drop it and
    its neighbors, repeat."""
    alive = (1 << g.n) - 1
    chosen = []
    while alive:
        best_v = -1
        best_d = g.n + 1
        m = alive
        while m:
            lsb = m & -m
            v = lsb.bit_length() - 1
            d = (g.masks[v] & alive).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
            m ^= lsb
        chosen.append(best_v)
        alive &= ~(g.masks[best_v] | (1 << best_v))
    return chosen


def reference_solve_alpha(g: Graph, node_budget=None, initial=None):
    """The solver's search tree with its coloring written out per vertex.

    Same set-up as ``solve_alpha`` (renumbering, seed, warm start, root
    orbits), with the order and the seed from the rescans above, but each
    node colors its whole candidate set into a list of vertices and a
    parallel list of colors, and branches over that list backwards.  Returns (witness, nodes_used) or raises the same
    BudgetError, so the solver's tree can be compared node for node.
    """
    n = g.n
    if n == 0:
        return IndependentSetWitness([], 0), 0
    order, h = reference_smallest_last(g)
    full = (1 << n) - 1
    comp = [full ^ (1 << v) ^ h.masks[v] for v in range(n)]
    if initial and IndependentSetWitness(list(initial), len(initial)).verify(g):
        label = {v: i for i, v in enumerate(order)}
        seed = [label[v] for v in initial]
    else:
        seed = reference_greedy_seed(h)
    best = {"size": len(seed), "set": seed}
    used = 0

    class OutOfNodes(Exception):
        pass

    def expand(r_list, p_mask, orbit=None):
        nonlocal used
        used += 1
        if node_budget is not None and used > node_budget:
            raise OutOfNodes()
        vertices, bounds = [], []
        color = 0
        p = p_mask
        while p:
            color += 1
            q = p
            while q:
                lsb = q & -q
                v = lsb.bit_length() - 1
                q &= ~(comp[v] | lsb)
                p ^= lsb
                vertices.append(v)
                bounds.append(color)
        sub = p_mask
        for i in range(len(vertices) - 1, -1, -1):
            if len(r_list) + bounds[i] <= best["size"]:
                return
            v = vertices[i]
            if orbit is not None and not sub >> v & 1:
                continue
            r_list.append(v)
            new_p = sub & comp[v]
            if new_p:
                expand(r_list, new_p)
            elif len(r_list) > best["size"]:
                best["size"] = len(r_list)
                best["set"] = list(r_list)
            r_list.pop()
            sub &= ~(1 << v) if orbit is None else ~orbit[v]

    def found():
        return IndependentSetWitness(sorted(order[i] for i in best["set"]), best["size"])

    orbits = _root_orbits(g, order)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + 1000))
    try:
        if orbits is None:
            expand([], full)
        else:
            expand([0], comp[0], orbits)
    except OutOfNodes:
        raise BudgetError("node budget exhausted", partial=found(), used=used, reason="node budget") from None
    finally:
        sys.setrecursionlimit(limit)
    return found(), used


def reference_simplex_max(c, rows, rhs):
    """Bland-rule dense tableau simplex over Fraction, the textbook way.

    Every pivot divides the pivot row and eliminates with rational
    arithmetic, so it shares no integer scaling with ``simplex_max``.
    Raises UnboundedError exactly when the objective is unbounded above.
    """
    m = len(rows)
    n = len(c)
    assert all(b >= 0 for b in rhs)
    tab = [
        [Fraction(x) for x in rows[i]]
        + [Fraction(int(j == i)) for j in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    cost = [Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        prow = tab[leave]
        piv = prow[enter]
        for j in range(n + m + 1):
            prow[j] /= piv
        for row in tab[:leave] + tab[leave + 1:] + [cost]:
            f = row[enter]
            for j in range(n + m + 1):
                row[j] -= f * prow[j]
        basis[leave] = enter
    y = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = tab[i][-1]
    return -cost[-1], y


@dataclass
class AxiomCheck:
    law: str
    subject: str
    holds: bool
    detail: str = ""


@dataclass
class AxiomReport:
    checks: list[AxiomCheck] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.holds]

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, law: str, subject: str, holds: bool, detail: str = ""):
        self.checks.append(AxiomCheck(law, subject, holds, detail))


def _label(*graphs: Graph) -> str:
    return ",".join(str(encode(x)) for x in graphs)


def strassen_axiom_suite(
    sample: Sequence[tuple[Graph, ...]],
    embed_max: int = 5,
    node_budget: int | None = None,
) -> AxiomReport:
    """Check the preorder laws on a sample of graph pairs and triples.

    Pairs (g, h) are checked for reflexivity, alpha-monotonicity of an
    established order, and the existence of r with g <= edgeless(r) ⊠ h
    whenever h has a vertex.  Triples (a, b, c) are checked for
    transitivity.  Consecutive established pairs are combined to check
    that disjoint union and strong product respect the order.  The
    counting-order law — edgeless(i) <= edgeless(j) iff i <= j — is
    checked exhaustively up to embed_max.
    """
    report = AxiomReport()

    def related(x: Graph, y: Graph) -> bool | None:
        try:
            return leq(x, y, node_budget=node_budget).established
        except BudgetError as e:
            report.skipped.append(f"{_label(x, y)}: {e}")
            return None

    for i in range(embed_max + 1):
        for j in range(embed_max + 1):
            got = related(edgeless_graph(i), edgeless_graph(j))
            if got is None:
                continue
            report.add(
                "counting-order",
                f"edgeless {i} vs {j}",
                got == (i <= j),
                f"expected {i <= j}, got {got}",
            )

    established_pairs: list[tuple[Graph, Graph]] = []
    for item in sample:
        if len(item) == 2:
            g, h = item
            for x in (g, h):
                got = related(x, x)
                if got is not None:
                    report.add("reflexivity", _label(x), bool(got))
            got = related(g, h)
            if got is None:
                continue
            if got:
                established_pairs.append((g, h))
                a_g = solve_alpha(g)[0].size
                a_h = solve_alpha(h)[0].size
                report.add(
                    "alpha-monotonicity",
                    _label(g, h),
                    a_g <= a_h,
                    f"alpha {a_g} vs {a_h}",
                )
            if h.n > 0:
                r = next(
                    (
                        r
                        for r in range(1, g.n + 2)
                        if related(g, strong_product(edgeless_graph(r), h))
                    ),
                    None,
                )
                report.add(
                    "scaling-witness",
                    _label(g, h),
                    r is not None,
                    f"r={r}",
                )
        elif len(item) == 3:
            a, b, c = item
            ab = related(a, b)
            bc = related(b, c)
            if ab and bc:
                ac = related(a, c)
                if ac is not None:
                    report.add("transitivity", _label(a, b, c), bool(ac))

    for (a, b), (c, d) in zip(established_pairs, established_pairs[1:]):
        got = related(disjoint_union(a, c), disjoint_union(b, d))
        if got is not None:
            report.add("union-monotone", _label(a, b, c, d), bool(got))
        got = related(strong_product(a, c), strong_product(b, d))
        if got is not None:
            report.add("product-monotone", _label(a, b, c, d), bool(got))

    return report


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def pentagon() -> Graph:
    return cycle_graph(5)


def make_pentagon_channel() -> Channel:
    half = Fraction(1, 2)
    rows = tuple(
        tuple(half if y in (x, (x + 1) % 5) else Fraction(0) for y in range(5))
        for x in range(5)
    )
    return Channel(5, 5, rows)


def make_bsc(p: Fraction) -> Channel:
    return Channel(2, 2, ((1 - p, p), (p, 1 - p)))


@pytest.fixture
def pentagon_channel() -> Channel:
    return make_pentagon_channel()


@pytest.fixture
def bsc() -> Channel:
    return make_bsc(Fraction(1, 10))
