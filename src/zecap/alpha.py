"""Exact maximum independent set search and the capacity lower-bound ladder.

The solver runs branch and bound on the complement (max clique) with a
greedy coloring bound, all on bit-vector vertex sets.  Before the search the
vertices are renumbered so that bit i is the i-th vertex of a smallest-last
(degeneracy) order of the complement, which tightens the coloring bound;
witnesses are mapped back to the caller's labels.  A vertex-transitive
graph has a maximum independent set through every vertex, so when the graph
has a construction recipe (``Graph.recipe``: cycles, complete and edgeless
graphs, and their complements and strong products, hence strong powers and
the ladder's squares) the search branches only from bit 0:
alpha(G) = 1 + alpha(G - N[v]).  Every other graph is searched in full.
The recipe also labels the vertices (``graphs.orbit_labels``) so that equal
labels relative to the root lie in one orbit of the root's stabilizer, and
the root branch uses orbital branching (Ostrowski, Linderoth, Rossi and
Smriglio, Math. Program. 2011): once the candidate v is searched, every
candidate labelled as v is dropped with it, since an automorphism fixing the
root maps its sets onto v's.  Deeper levels drop only the searched vertex.
Budgets are counted in node expansions; running out raises BudgetError
carrying the best set found so far, never a silent claim of optimality.

``PowerLadder`` is the one source of alpha(g^(2^k)), the lower side of the
capacity: it squares each power, warm-starts from the squared best set and
closes the levels past the clique-cover bound.  ``ladder``, the capacity
bracket in ``spectrum`` and the decision procedures in ``decide`` all read
their levels from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import creal
from .errors import BudgetError, InputError
from .graphs import Graph, orbit_labels, require_product_fits, strong_product, vertex_budget


@dataclass
class IndependentSetWitness:
    vertices: list[int]
    size: int

    def verify(self, g: Graph) -> bool:
        if self.size != len(self.vertices) or len(set(self.vertices)) != self.size:
            return False
        for i, u in enumerate(self.vertices):
            if not 0 <= u < g.n:
                return False
            for v in self.vertices[i + 1 :]:
                if g.has_edge(u, v):
                    return False
        return True


@dataclass
class LadderValue:
    """Level m of the ladder: alpha of the 2^m-fold strong power, and its
    2^m-th root as a computable real."""

    m: int
    alpha_value: int
    root: creal.CReal


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise _OutOfNodes()


class _OutOfNodes(Exception):
    pass


def _packed_rows(g: Graph) -> np.ndarray:
    """The adjacency masks of g as an n x ceil(n/8) uint8 array, little-endian bits."""
    width = (g.n + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in g.masks), dtype=np.uint8)
    return rows.reshape(g.n, width)


def _unpacked(rows: np.ndarray, index: np.ndarray):
    """rows[index] unpacked to one 0/1 byte per vertex, in blocks of about 4 MB."""
    n = rows.shape[0]
    block = max(1, (1 << 22) // n)
    for start in range(0, len(index), block):
        yield np.unpackbits(rows[index[start : start + block]], axis=1, count=n, bitorder="little")


def _greedy_seed(g: Graph, rows: np.ndarray) -> list[int]:
    """Repeatedly take a minimum-degree vertex of what is left (lowest label
    on ties) and drop its closed neighborhood; rows is _packed_rows(g)."""
    n = g.n
    degree = np.array([m.bit_count() for m in g.masks], dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    chosen = []
    while alive.any():
        v = int(degree.argmin())
        chosen.append(v)
        neighbors = np.unpackbits(rows[v], count=n, bitorder="little").view(bool)
        removed = np.append(np.flatnonzero(alive & neighbors), v)
        alive[removed] = False
        for bits in _unpacked(rows, removed):
            degree -= bits.sum(axis=0, dtype=np.int16)  # a block has <= 2^11 rows
        # a dead vertex loses at most n - 1 more, so it stays above every live degree
        degree[removed] = 2 * n
    return chosen


def _smallest_last(g: Graph) -> tuple[list[int], Graph, np.ndarray]:
    """Smallest-last order of the complement of g, g renumbered by it, and
    the renumbered graph's packed rows.

    Repeatedly remove a remaining vertex of largest g-degree among those
    left (lowest label on ties); the first vertex removed goes last.  In the
    returned graph, vertex order[i] of g is vertex i.
    """
    n = g.n
    rows = _packed_rows(g)
    degree = np.array([m.bit_count() for m in g.masks], dtype=np.int64)
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        v = int(degree.argmax())
        order[pos] = v
        degree -= np.unpackbits(rows[v], count=n, bitorder="little")
        degree[v] = -1  # removed vertices stay below every live degree
    perm = np.array(order, dtype=np.intp)
    packed = np.concatenate([
        np.packbits(np.take(bits, perm, axis=1), axis=1, bitorder="little")
        for bits in _unpacked(rows, perm)
    ])
    data, width = packed.tobytes(), rows.shape[1]
    masks = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return order, Graph(n, tuple(masks)), packed


def _root_orbits(g: Graph, order: list[int]) -> list[int] | None:
    """Entry i: the renumbered vertices whose label relative to the root
    order[0], bit 0, is that of renumbered vertex i, as a mask; None when g
    has no recipe."""
    labels = orbit_labels(g, order[0])
    if labels is None:
        return None
    classes: dict = {}
    for i, v in enumerate(order):
        classes[labels[v]] = classes.get(labels[v], 0) | 1 << i
    return [classes[labels[v]] for v in order]


def solve_alpha(
    g: Graph,
    node_budget: int | None = None,
    initial: list[int] | None = None,
) -> tuple[IndependentSetWitness, int]:
    """Exact alpha via branch and bound; returns (witness, nodes_used)."""
    if node_budget is not None and node_budget < 0:
        raise InputError(f"node budget must be nonnegative, got {node_budget}")
    n = g.n
    if n == 0:
        return IndependentSetWitness([], 0), 0
    order, h, rows = _smallest_last(g)
    # clique search on the complement, in the renumbered labels
    full = (1 << n) - 1
    comp = [full ^ (1 << v) ^ h.masks[v] for v in range(n)]

    if initial and IndependentSetWitness(list(initial), len(initial)).verify(g):
        label = {v: i for i, v in enumerate(order)}
        seed = [label[v] for v in initial]
    else:
        seed = _greedy_seed(h, rows)  # no warm start, or a bad one we do not trust
    best = {"size": len(seed), "set": seed}
    budget = _Budget(node_budget)

    if n + 16 > sys.getrecursionlimit():
        sys.setrecursionlimit(n + 1000)

    def expand(r_list: list[int], p_mask: int, orbit=None):
        budget.spend()
        # greedy coloring of p_mask in the complement graph: each color class
        # is complement-independent, so any clique meets it at most once
        order: list[int] = []
        bounds: list[int] = []
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
                order.append(v)
                bounds.append(color)
        sub = p_mask
        for i in range(len(order) - 1, -1, -1):
            if len(r_list) + bounds[i] <= best["size"]:
                return
            v = order[i]
            if orbit is not None and not sub >> v & 1:
                continue  # dropped with an earlier candidate's orbit
            r_list.append(v)
            new_p = sub & comp[v]
            if new_p:
                expand(r_list, new_p)
            elif len(r_list) > best["size"]:
                best["size"] = len(r_list)
                best["set"] = list(r_list)
            r_list.pop()
            sub &= ~(1 << v) if orbit is None else ~orbit[v]

    def found() -> IndependentSetWitness:
        return IndependentSetWitness(sorted(order[i] for i in best["set"]), best["size"])

    orbits = _root_orbits(g, order)
    try:
        if orbits is None:
            expand([], full)
        else:
            # g is vertex-transitive, so some maximum independent set
            # contains any given vertex: search only the sets through bit 0;
            # the incumbent already has size >= 1, so nothing is lost when
            # bit 0 has no non-neighbor.  An automorphism fixing bit 0 maps
            # the sets through bit 0 and v onto those through bit 0 and any
            # vertex labelled as v, so the root call drops v's whole label
            # class once v is searched
            expand([0], comp[0], orbits)
    except _OutOfNodes:
        raise BudgetError(
            f"alpha node budget {node_budget} exhausted; best found {best['size']}",
            partial=found(),
            used=budget.used,
            reason="node budget",
        ) from None
    return found(), budget.used


def greedy_clique_cover(g: Graph) -> int:
    """The number of cliques in a greedy partition of g's vertices.

    Each clique starts at the lowest uncovered vertex and repeatedly takes
    the candidate (an uncovered vertex adjacent to the whole clique) with
    the most candidate neighbours, lowest label on ties.  The count bounds
    alpha(g) from above, since an independent set meets a clique at most
    once, and c cliques of g give c^k cliques of g^k.
    """
    left = (1 << g.n) - 1
    count = 0
    while left:
        lsb = left & -left
        left ^= lsb
        cand = g.masks[lsb.bit_length() - 1] & left
        while cand:
            best, most = 0, -1
            m = cand
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                links = (g.masks[u] & cand).bit_count()
                if links > most:
                    best, most = u, links
            left ^= 1 << best
            cand &= g.masks[best]  # no loops: best leaves the candidates
        count += 1
    return count


class PowerLadder:
    """alpha(g^(2^k)) for the levels k of one graph, found in order, each at most once.

    Level k is searched on the square of level k - 1's power, warm-started
    from the square of the best set found there, which is a partial set when
    that level stopped at its node budget.  The search runs until a level j
    meets the clique-cover bound: alpha(g^(2^j)) = c^(2^j) for a greedy
    partition of g into c cliques (``greedy_clique_cover``).  That closes
    every later level k: products of cliques are cliques, so
    alpha(g^(2^k)) <= c^(2^k), and products of independent sets are
    independent, so alpha(g^(2^k)) >= alpha(g^(2^j))^(2^(k-j)) = c^(2^k)
    (Shannon 1956).  A closed level builds no power, runs no search and
    takes 0 nodes, but stops at the vertex budget exactly where its power
    would.

    ``alpha`` and ``nodes`` hold each level found; ``stops`` holds the
    BudgetError of each level that was not.  A node-budget stop does not end
    the ladder: the next level is still tried.
    """

    def __init__(self, g: Graph, max_power_vertices: int | None = None):
        self.graph = g
        self._cap = vertex_budget(max_power_vertices)
        self.alpha: dict[int, int] = {}
        self.nodes: dict[int, int] = {}
        self.stops: dict[int, BudgetError] = {}
        self._level = -1  # the last level reached
        self._power: Graph | None = g  # its power; None once the ladder is closed
        self._vertices = g.n  # of that power, also once it is no longer built
        self._bound = greedy_clique_cover(g)  # c^(2^k) at that level
        self._best: list[int] | None = None  # its best set, squared into the next warm start

    def solve(self, level: int, node_budget: int | None = None) -> int | None:
        """alpha at this level, or None once it has stopped (see ``stops``).

        Every level reached on the way is searched with node_budget.
        """
        while self._level < level:
            self._climb(node_budget)
        return self.alpha.get(level)

    def _climb(self, node_budget: int | None) -> None:
        self._level += 1
        k = self._level
        if k > 0:
            side = self._vertices
            self._vertices *= side
            self._bound *= self._bound
            try:
                require_product_fits(self._vertices, self._cap)
            except BudgetError as e:
                self.stops[k] = e
                return
            if self._power is not None:
                self._power = strong_product(self._power, self._power, self._cap)
                self._best = [u * side + v for u in self._best for v in self._best]
        if self._power is None:
            self.alpha[k], self.nodes[k] = self._bound, 0
            return
        try:
            witness, self.nodes[k] = solve_alpha(self._power, node_budget, initial=self._best)
        except BudgetError as e:
            self.stops[k], self.nodes[k] = e, e.used
            self._best = e.partial.vertices
            return
        self.alpha[k], self._best = witness.size, witness.vertices
        if witness.size == self._bound:
            self._power = None  # closed


def ladder(
    powers: PowerLadder, m_max: int, node_budget: int | None = None
) -> list[LadderValue]:
    """Ladder levels 0..m_max of powers.graph: alpha(g^(2^m))^(1/2^m),
    nondecreasing in m.

    The node budget is a shared pool across levels; a level the ladder
    already holds is reused and charged the nodes it took.  On exhaustion
    the BudgetError carries the levels already certified.
    """
    if m_max < 0:
        raise InputError("ladder level must be nonnegative")
    values: list[LadderValue] = []
    pool = node_budget
    for m in range(m_max + 1):
        size = powers.solve(m, pool)
        if size is None:
            e = powers.stops[m]
            where = "before" if e.reason == "vertex budget" else "at"
            raise BudgetError(
                f"ladder stopped {where} level {m}: {e}",
                partial=values,
                used=e.used,
                reason=e.reason,
            )
        if pool is not None:
            pool = max(0, pool - powers.nodes[m])
        values.append(LadderValue(m=m, alpha_value=size, root=creal.root_pow2(size, m)))
    return values
