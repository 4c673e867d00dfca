"""Exact maximum independent set search and the capacity lower-bound ladder.

The solver runs branch and bound on the complement (max clique) with a
greedy coloring bound, all on bit-vector vertex sets.  Each node colors its
candidates into one mask per color class and keeps only the classes above
k_min = |best| - |R|: a vertex of lower color cannot beat the incumbent, so
it would only be pruned (San Segundo, Rodriguez-Losada and Jimenez, Comput.
Oper. Res. 2011, BBMC; Tomita and Kameda, J. Global Optim. 2007).  Branching
walks the kept classes from the highest color down.  Before the search the
vertices are renumbered so that bit i is the i-th vertex of a smallest-last
(degeneracy) order of the complement, which tightens the coloring bound;
witnesses are mapped back to the caller's labels.  A vertex-transitive
graph has a maximum independent set through every vertex, so when
``graphs.orbit_labels`` labels the graph's vertices (its construction
recipe, ``Graph.recipe``, has no disjoint union and no literal inside:
cycles, complete and edgeless graphs, and their complements and strong
products, hence strong powers and the ladder's squares) the search
branches only from bit 0: alpha(G) = 1 + alpha(G - N[v]).  Every other
graph, a union or a literal among them, is searched in full.  Equal labels relative to the root lie in one
orbit of the root's stabilizer, and the root branch uses orbital branching
(Ostrowski, Linderoth, Rossi and Smriglio, Math. Program. 2011): once the
candidate v is searched, every candidate labelled as v is dropped with it,
since an automorphism fixing the root maps its sets onto v's.  Deeper
levels drop only the searched vertex.
The order and the greedy seed (the first incumbent) are found on bit-sliced
degree counters, Python ints like the rest of the search: slice j is the
mask of the vertices whose live degree has bit j set.  The live vertex of
largest (or smallest) degree is found by narrowing the live mask through the
slices from the top, and removing a vertex decrements its live neighbors
with one ripple borrow.  The adjacency is renumbered into the new order by
an integer gather over its set bits when it has few (``_gathers``: up to
about 1,000 + n^2/100, so C5^2, C9^2 and E_n), and by one numpy permutation
of the packed rows otherwise; both give the same masks, and numpy is
imported only then.
Budgets are counted in node expansions; running out raises BudgetError
carrying the best set found so far, never a silent claim of optimality.

``greedy_bounds`` brackets alpha between the greedy seed and greedy
partitions into cliques; where the two meet, ``spectrum`` reads theta and
the fractional clique cover number off them with no solver.

``PowerLadder`` is the one source of alpha(g^(2^k)), the lower side of the
capacity: it squares each power, warm-starts from the squared best set and
closes every level past one that meets the bound of ``greedy_bounds``.
``ladder``, the capacity bracket in ``spectrum`` and the decision procedures
in ``decide`` all read their levels from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import creal
from .errors import BudgetError, InputError
from .graphs import Graph, orbit_labels, require_fits, strong_product, vertex_budget
from .graphs import once, power_fits

LADDER_MAX_LEVEL = 64  # level k of a graph on n >= 2 vertices has n^(2^k) of them


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


def _degree_slices(masks) -> list[int]:
    """Every vertex's degree as bit-sliced counters: slice j is the mask of
    the vertices whose degree has bit j set.  Each adjacency mask is added
    with one ripple carry; the graph is undirected, so its row sums are its
    degrees."""
    slices: list[int] = []
    for m in masks:
        carry = m
        for j, s in enumerate(slices):
            slices[j] = s ^ carry
            carry &= s
            if not carry:
                break
        else:
            if carry:
                slices.append(carry)
    return slices


def _decrement(slices: list[int], where: int) -> None:
    """Subtract 1 from the counters of the vertices in where, all positive."""
    for j, s in enumerate(slices):
        s ^= where
        slices[j] = s
        where &= s  # a bit that was 0, now 1, borrows from the next slice
        if not where:
            return


def _extreme(slices: list[int], live: int, largest: bool) -> int:
    """The lowest live vertex of largest (or smallest) degree: narrow live
    to the vertices with each degree bit set (or clear), top bit first,
    wherever some are left."""
    pick = live
    for s in reversed(slices):
        narrowed = pick & s if largest else pick & ~s
        if narrowed:
            pick = narrowed
    return (pick & -pick).bit_length() - 1


def _greedy_seed(g: Graph) -> list[int]:
    """Repeatedly take a minimum-degree vertex of what is left (lowest label
    on ties) and drop its closed neighborhood."""
    slices = _degree_slices(g.masks)
    live = (1 << g.n) - 1
    chosen = []
    while live:
        v = _extreme(slices, live, largest=False)
        chosen.append(v)
        removed = g.masks[v] & live | 1 << v
        live ^= removed
        while removed:
            u = (removed & -removed).bit_length() - 1
            removed &= removed - 1
            _decrement(slices, g.masks[u] & live)
    return chosen


def _gathers(n: int, bits: int) -> bool:
    """Whether the integer gather renumbers a graph of n vertices and the
    given number of set bits (twice its edges) faster than numpy.

    Measured as first-call cost in a fresh interpreter with numpy loaded:
    the gather takes about 0.2 us per set bit, numpy about 0.17 ms plus
    2.5 ns per entry of the n x n bit matrix.  C11^2 (968 bits) is
    gathered, C13^2 (1,352) and C5^3 (3,250) permuted, and C5^2 x E800
    (160,000 bits on 20,000 vertices) gathered, 6x faster.
    """
    return bits <= 1024 + n * n // 100


def _smallest_last(g: Graph) -> tuple[list[int], Graph]:
    """Smallest-last order of the complement of g, and g renumbered by it.

    Repeatedly remove a remaining vertex of largest g-degree among those
    left (lowest label on ties); the first vertex removed goes last.  In the
    returned graph, vertex order[i] of g is vertex i.
    """
    n = g.n
    slices = _degree_slices(g.masks)
    sparse = _gathers(n, sum(s.bit_count() << j for j, s in enumerate(slices)))
    live = (1 << n) - 1
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        v = _extreme(slices, live, largest=True)
        order[pos] = v
        live ^= 1 << v
        _decrement(slices, g.masks[v] & live)
    masks = _gathered(g.masks, order) if sparse else _permuted(g.masks, order)
    return order, Graph(n, tuple(masks))


def _gathered(masks, order: list[int]) -> list[int]:
    """masks renumbered so that vertex order[i] is i, by the set bits: new
    row i is the OR of 1 << pos[u] over the neighbours u of order[i]."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for v in order:
        m = masks[v]
        row = 0
        while m:
            u = m.bit_length() - 1
            row |= 1 << pos[u]
            m ^= 1 << u
        rows.append(row)
    return rows


def _permuted(masks, order: list[int]) -> list[int]:
    """masks renumbered so that vertex order[i] is i, by numpy: the rows
    packed to n/8 bytes, then unpacked, permuted and packed again in blocks
    of about 4 MB."""
    import numpy as np

    n = len(order)
    if n == 0:
        return []
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    rows = rows.reshape(n, width)
    perm = np.array(order, dtype=np.intp)
    block = max(1, (1 << 22) // n)
    packed = []
    for start in range(0, n, block):
        bits = np.unpackbits(rows[perm[start : start + block]], axis=1, count=n, bitorder="little")
        packed.append(np.packbits(np.take(bits, perm, axis=1), axis=1, bitorder="little"))
    data = np.concatenate(packed).tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _root_orbits(g: Graph, order: list[int]) -> list[int] | None:
    """Entry i: the renumbered vertices whose label relative to the root
    order[0], bit 0, is that of renumbered vertex i, as a mask; None when g
    has no labels."""
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
    order, h = _smallest_last(g)
    # clique search on the complement, in the renumbered labels
    full = (1 << n) - 1
    adj = h.masks  # a complement row is read at use, not kept: n of them take n^2/8 bytes

    if initial and IndependentSetWitness(list(initial), len(initial)).verify(g):
        label = {v: i for i, v in enumerate(order)}
        seed = [label[v] for v in initial]
    else:
        seed = _greedy_seed(h)  # no warm start, or a bad one we do not trust
    best = {"size": len(seed), "set": seed}
    budget = _Budget(node_budget)

    def expand(r_list: list[int], p_mask: int, orbit=None):
        budget.spend()
        # greedy coloring of p_mask in the complement graph, one mask per
        # class: each class is complement-independent, so any clique meets
        # it at most once.  A vertex colored at most k_min cannot beat the
        # incumbent, which never shrinks, so only the classes above it are kept
        depth = len(r_list)
        k_min = best["size"] - depth
        classes: list[int] = []
        color = 0
        p = p_mask
        while p:
            color += 1
            q = p
            cls = 0
            while q:
                lsb = q & -q
                cls |= lsb
                q &= adj[lsb.bit_length() - 1]  # drops lsb and its complement neighbors
            p ^= cls
            if color > k_min:
                classes.append(cls)
        # branch from the highest color down, each class from its top bit
        sub = p_mask
        for cls in reversed(classes):
            while cls:
                if depth + color <= best["size"]:
                    return
                v = cls.bit_length() - 1
                cls ^= 1 << v
                if orbit is not None and not sub >> v & 1:
                    continue  # dropped with an earlier candidate's orbit
                r_list.append(v)
                new_p = sub & ~(adj[v] | 1 << v)
                if new_p:
                    expand(r_list, new_p)
                elif len(r_list) > best["size"]:
                    best["size"] = len(r_list)
                    best["set"] = list(r_list)
                r_list.pop()
                sub &= ~(1 << v) if orbit is None else ~orbit[v]
            color -= 1

    def found() -> IndependentSetWitness:
        return IndependentSetWitness(sorted(order[i] for i in best["set"]), best["size"])

    orbits = _root_orbits(g, order)
    limit = sys.getrecursionlimit()
    try:
        if n + 16 > limit:
            sys.setrecursionlimit(n + 1000)
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
            expand([0], full ^ 1 ^ adj[0], orbits)
    except _OutOfNodes:
        raise BudgetError(
            f"alpha node budget {node_budget} exhausted; best found {best['size']}",
            partial=found(),
            used=budget.used,
            reason="node budget",
        ) from None
    finally:
        sys.setrecursionlimit(limit)  # the limit is process-wide
    return found(), budget.used


def _take_clique(g: Graph, left: int, v: int) -> int:
    """left without a greedy clique through v, a vertex of left.

    The clique repeatedly takes the candidate (a vertex of left adjacent to
    the whole clique) with the most candidate neighbours, lowest label on
    ties.
    """
    left ^= 1 << v
    cand = g.masks[v] & left
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
    return left


def greedy_clique_cover(g: Graph) -> int:
    """The number of cliques in a greedy partition of g's vertices.

    Each clique starts at the lowest uncovered vertex (``_take_clique``).
    The count bounds alpha(g) from above, since an independent set meets a
    clique at most once, and c cliques of g give c^k cliques of g^k.
    """
    left = (1 << g.n) - 1
    count = 0
    while left:
        left = _take_clique(g, left, (left & -left).bit_length() - 1)
        count += 1
    return count


def greedy_bounds(g: Graph) -> tuple[int, int]:
    """(lo, hi) with lo <= alpha(g) <= hi, found by greedy steps alone.

    lo is the size of the greedy independent set (``_greedy_seed``), and hi
    is lo when one of n more greedy partitions into cliques has only lo
    parts, else greedy_clique_cover(g).  Partition v starts its first clique
    at v and each later one at an uncovered vertex with the fewest uncovered
    neighbours (lowest label on ties).  It is dropped at its first clique
    with no vertex of the greedy set: lo cliques must each hold one.
    greedy_clique_cover alone depends on the labelling: on a G(12, 1/2)
    whose alpha and fewest cliques are both 5, it met lo on 54 of 200
    relabellings, and these partitions on all 200.

    Where they meet at k, the sandwich alpha <= Theta <= theta <= chi_f-bar
    <= chi-bar (Lovász 1979) pins every point of it to k.
    """
    seed = _greedy_seed(g)
    lo, hi = len(seed), greedy_clique_cover(g)
    in_seed = sum(1 << v for v in seed)
    degrees = _degree_slices(g.masks)
    for start in range(g.n):
        if hi == lo:
            break
        slices, left, v = degrees[:], (1 << g.n) - 1, start
        for _ in range(lo):
            rest = _take_clique(g, left, v)
            covered, left = left ^ rest, rest
            if not left or not covered & in_seed:
                break
            while covered:
                u = (covered & -covered).bit_length() - 1
                covered &= covered - 1
                _decrement(slices, g.masks[u] & left)
            v = _extreme(slices, left, largest=False)
        if not left:
            hi = lo  # at most lo cliques, and never fewer than alpha >= lo
    return lo, hi


class PowerLadder:
    """alpha(g^(2^k)) for the levels k of one graph, found in order, each at most once.

    Level k is searched on the square of level k - 1's power, warm-started
    from the square of the best set found there (a partial set when that
    level stopped at its node budget).  When level 1 fits the vertex
    budget, c is read as the upper end of ``greedy_bounds``, a partition of
    g into c cliques, before any power is built, and kept in g's table: it
    costs less than the n^2-vertex level it may close, but can cost far
    more than level 0's search.  Before each climb to a level k >= 1, the
    ladder is closed once level k - 1 meets c^(2^(k-1)): every later level
    j is then c^(2^j) (Shannon 1956), as products of cliques are cliques
    and products of independent sets are independent.  A closed level
    builds no power, runs no search and takes 0 nodes, but stops at the
    vertex budget exactly where its power would.

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
        self._best: list[int] | None = None  # its best set, squared into the next warm start

    def top(self, most: int) -> int:
        """The highest level up to most and LADDER_MAX_LEVEL whose power fits
        the vertex budget; every power of a graph on at most one vertex fits."""
        most = min(most, LADDER_MAX_LEVEL)
        level = most if self.graph.n <= 1 else 0
        while level < most and power_fits(self.graph.n, 2 << level, self._cap):
            level += 1
        return level

    def solve(self, level: int, node_budget: int | None = None) -> int | None:
        """alpha at this level, or None once it has stopped (see ``stops``).

        Every level reached on the way is searched with node_budget.
        """
        while self._level < level:
            self._climb(node_budget)
        return self.alpha.get(level)

    def _climb(self, node_budget: int | None) -> None:
        self._level += 1
        k, g = self._level, self.graph
        if k > 0:
            try:
                require_fits("strong product", g.n ** (1 << k), self._cap)
            except BudgetError as e:
                self.stops[k] = e
                return
            cover = once(g.values, (g.recipe, "greedy"), lambda: greedy_bounds(g))[1]
            if self.alpha.get(k - 1) == cover ** (1 << (k - 1)):
                self._power = None  # closed
            if self._power is not None:
                side = self._power.n
                self._power = strong_product(self._power, self._power, self._cap)
                self._best = [u * side + v for u in self._best for v in self._best]
        if self._power is None:
            self.alpha[k], self.nodes[k] = cover ** (1 << k), 0  # closed only past level 0
            return
        try:
            witness, self.nodes[k] = solve_alpha(self._power, node_budget, initial=self._best)
        except BudgetError as e:
            self.stops[k], self.nodes[k] = e, e.used
            self._best = e.partial.vertices
            return
        self.alpha[k], self._best = witness.size, witness.vertices


def check_level(m: int) -> None:
    """The one bound on the deepest ladder level asked for, before any is solved."""
    if not 0 <= m <= LADDER_MAX_LEVEL:
        raise InputError(f"ladder level must be in 0..{LADDER_MAX_LEVEL}, got {m}")


def ladder(powers: PowerLadder, m_max: int, node_budget: int | None = None,
           held: list[LadderValue] = ()) -> list[LadderValue]:
    """Ladder levels 0..m_max of powers.graph: alpha(g^(2^m))^(1/2^m),
    nondecreasing in m.

    held holds levels an earlier call on the same powers returned; they are
    kept, not rebuilt.  The node budget is a shared pool across levels; a
    level the ladder already holds is reused and charged the nodes it took.
    On exhaustion the BudgetError carries the levels already certified.
    """
    check_level(m_max)
    values = list(held[: m_max + 1])
    pool = node_budget
    for m in range(m_max + 1):
        if m == len(values):
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
            values.append(LadderValue(m=m, alpha_value=size, root=creal.root_pow2(size, m)))
        if pool is not None:
            pool = max(0, pool - powers.nodes[m])
    return values
