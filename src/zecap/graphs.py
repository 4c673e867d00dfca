"""Labeled simple graphs: integer numbering, semiring operations, isomorphism.

Graphs are labeled (vertex names matter, no canonicalization) and live on
vertices 0..n-1.  Adjacency is one Python-int bitmask per vertex, built
from the graph's recipe at first read; it makes the solvers' set algebra cheap.

The numbering maps every finite labeled graph to a distinct nonnegative
integer: all graphs on fewer vertices come first, and within a fixed vertex
count the upper-triangular adjacency bits (pair (0,1) first, row-major) are
read as a binary numeral, most significant bit first.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math

from .errors import BudgetError, InputError

DEFAULT_MAX_VERTICES = 1 << 20


def vertex_budget(override: int | None = None) -> int:
    """Effective cap on vertex counts for product/power construction."""
    if override is not None and override < 1:
        raise InputError("vertex budget must be positive")
    return DEFAULT_MAX_VERTICES if override is None else override


class Graph:
    """Immutable simple graph: a recipe, its vertex count n, and the bitmask
    adjacency ``masks``, built from the recipe (``build_masks``) at first read.

    ``masks[v]`` has bit ``u`` set iff ``{u, v}`` is an edge.  ``Graph(n,
    masks)`` is a literal, the recipe leaf ``("G", masks)``; its cheap
    invariants are checked here, symmetry is its maker's (``from_edges``).
    ``Graph(n, recipe=d)`` is the graph of recipe d, an expression over the
    labelled constructions (see "stabilizer orbit labels" below): cycles,
    complete and edgeless graphs, literals, their strong products and
    disjoint unions, and complements.  Edge counts, theta and the clique
    cover number are read off the recipe.  A recipe does not by itself make
    the graph vertex-transitive: one with no union and no literal inside
    (``transitive``) is, and for it ``orbit_labels`` labels the vertices
    relative to a root so that vertices with equal labels lie in one orbit of
    the root's stabilizer in the automorphism group.  Labels may split an
    orbit, which only costs the alpha solver speed; they never merge two.
    Every other graph is searched in full.  Equality and hashing ignore the
    recipe and build the masks.
    """

    __slots__ = ("n", "masks", "recipe")

    def __init__(self, n: int, masks: tuple[int, ...] | None = None, recipe=None):
        if masks is not None:
            if n < 0:
                raise InputError("vertex count must be nonnegative")
            if len(masks) != n:
                raise InputError("adjacency mask count must equal vertex count")
            for v, m in enumerate(masks):
                if m < 0 or m >> n:
                    raise InputError(f"vertex {v} mask references vertices outside 0..{n - 1}")
                if m >> v & 1:
                    raise InputError(f"vertex {v} has a loop")
            self.masks = tuple(masks)
            # the leaf holds the masks, not the graph, so no reference cycle forms
            recipe = ("G", self.masks)
        self.n, self.recipe = n, recipe

    def __getattr__(self, name):  # an unset slot: build the masks once, then read them plainly
        if name != "masks":
            raise AttributeError(name)
        self.masks = build_masks(self.recipe)
        return self.masks

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InputError(f"loop at vertex {u} rejected")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(n, tuple(masks))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            # bit i of the string is neighbor v + 1 + i; find visits set bits only
            bits = format(self.masks[v] >> (v + 1), "b")[::-1]
            i = bits.find("1")
            while i >= 0:
                out.append((v, v + 1 + i))
                i = bits.find("1", i + 1)
        return out

    def edge_count(self) -> int:
        return recipe_edges(self.recipe)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:  # builds no masks: a literal lists the edges of the masks it holds
        literal = self.recipe[0] == "G"
        shown = f"edges={self.edges()}" if literal else f"recipe={_shown(self.recipe)}"
        return f"Graph(n={self.n}, {shown})"


def _shown(d) -> str:
    """Recipe d as text, a literal leaf by its vertex count: its masks in
    decimal could pass the 4,300-digit int-to-str limit."""
    kind, arg = d
    if kind == "G":
        arg = f"<{len(arg)} vertices>"
    elif kind == "co":
        arg = _shown(arg)
    elif kind in ("x", "+"):
        arg = f"({', '.join(map(_shown, arg))})"
    return f"({kind!r}, {arg})"


# ---------------------------------------------------------------------------
# numbering


# every index of a graph on at most 169 vertices prints in at most 4,274
# digits, within Python's 4,300-digit int-to-str limit; some on 170 do not
INDEX_MAX_VERTICES = 169


def index_offset(n: int) -> int:
    """First numbering index occupied by graphs on exactly n vertices."""
    return sum(1 << ((j * j - j) // 2) for j in range(n))


def _pair_bits(g: Graph) -> str:
    """One adjacency bit per pair u < v: pair (0, 1) first, row-major."""
    # row u holds neighbours u + 1.. lowest first; its top bit keeps the
    # leading zeros and is cut off
    return "".join(
        format(g.masks[u] >> (u + 1) | 1 << (g.n - 1 - u), "b")[:0:-1] for u in range(g.n)
    )


def _from_pair_bits(n: int, bits: str) -> Graph:
    """Inverse of ``_pair_bits`` for a string of (n^2 - n)/2 bits."""
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, (p for p, bit in zip(pairs, bits) if bit == "1"))


def encode(g: Graph) -> int:
    """Numbering index of a labeled graph (arbitrary precision)."""
    return index_offset(g.n) + int("0" + _pair_bits(g), 2)


def decode(index: int) -> Graph:
    """Inverse of ``encode``: the labeled graph at a numbering index."""
    if index < 0:
        raise InputError("graph index must be nonnegative")
    n = 0
    while index_offset(n + 1) <= index:
        n += 1
    # pair (0,1) holds the most significant bit
    return _from_pair_bits(n, format(index - index_offset(n), f"0{(n * n - n) // 2}b"))


# ---------------------------------------------------------------------------
# constructors


def edgeless_graph(n: int) -> Graph:
    return Graph(n, recipe=("E", n))


def complete_graph(n: int) -> Graph:
    return Graph(n, recipe=("K", n))


def cycle_graph(n: int) -> Graph:
    """Cycle on 0..n-1 with edges {v, v+1 mod n}; degenerates for n <= 2."""
    if n < 1:
        raise InputError("cycle needs at least one vertex")
    return Graph(n, recipe=("C", n))


def single_vertex() -> Graph:
    return edgeless_graph(1)


# ---------------------------------------------------------------------------
# semiring operations: each composes recipes and builds no masks


def complement(g: Graph) -> Graph:
    """Same automorphisms and labels as g; the complement of a complement is g again."""
    return Graph(g.n, recipe=co_recipe(g.recipe))


def co_recipe(d) -> tuple:
    """The recipe of the complement of the graph with recipe d."""
    return d[1] if d[0] == "co" else ("co", d)


def disjoint_union(*graphs: Graph) -> Graph:
    """Graph sum: each graph's vertices are shifted above those before it."""
    terms = itertools.chain.from_iterable(_operands("+", g.recipe) for g in graphs)
    return Graph(sum(g.n for g in graphs), recipe=("+", tuple(terms)))


def strong_product(g: Graph, h: Graph, max_vertices: int | None = None) -> Graph:
    """Strong graph product; vertex (a, b) gets index a * h.n + b."""
    require_fits("strong product", g.n * h.n, vertex_budget(max_vertices))
    return Graph(g.n * h.n, recipe=("x", _operands("x", g.recipe) + _operands("x", h.recipe)))


_CALL = contextvars.ContextVar("call")  # the running call's value table, unset outside one


def one_call(f):
    """f runs as one call, with a fresh value table for ``once`` unless one is open."""
    @functools.wraps(f)
    def call(*args, **kwargs):
        token = _CALL.set(_CALL.get({}))  # the open call's table, else a fresh one
        try:
            return f(*args, **kwargs)
        finally:
            _CALL.reset(token)
    return call


def once(key, find):
    """The running call's value under key (a recipe node, never a graph),
    found by find() the first time the call asks for it."""
    values = _CALL.get({})  # with no call open, a table dropped on return: find() runs
    return values[key] if key in values else values.setdefault(key, find())


def require_fits(what: str, needed: int, cap: int, unit: str = "vertices",
                 reason: str = "vertex budget", exponent: int = 1) -> None:
    """The one size stop, when what needs more than cap: needed^exponent
    vertices, cliques, cells or bytes of an adjacency.  Its ``used`` is the
    amount needed, formed when exponent is 1 or its square root fits cap; a
    larger power is named needed^exponent, with no used, as its count may be
    too long to form or print."""
    formed = exponent == 1 or power_fits(needed, exponent, cap * cap)
    if formed and needed ** exponent <= cap:
        return
    used = needed ** exponent if formed else None
    amount = f"{needed}^{exponent}" if used is None else used
    raise BudgetError(f"{what} needs {amount} {unit}, budget is {cap}", used=used, reason=reason)


class NodeBudget:
    """The one node counter of a search: ``spend`` counts a node and stops
    the search once more than limit are spent (None: no limit)."""

    __slots__ = ("limit", "what", "used")

    def __init__(self, limit: int | None, what: str):
        if limit is not None and limit < 0:
            raise InputError(f"node budget must be nonnegative, got {limit}")
        self.limit, self.what, self.used = limit, what, 0

    def spend(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetError(f"{self.what} node budget {self.limit} exhausted", used=self.used,
                              reason="node budget")


def strong_power(g: Graph, n: int, max_vertices: int | None = None) -> Graph:
    """n-fold strong product of g with itself (n >= 1)."""
    if n < 1:
        raise InputError("strong power exponent must be >= 1")
    require_fits("strong power", g.n, vertex_budget(max_vertices), exponent=n)
    if n == 1 or g.n <= 1:
        return g  # g^1 is g, as is every power of the empty graph or a single vertex
    return Graph(g.n ** n, recipe=("x", _operands("x", g.recipe) * n))


def power_fits(n_vertices: int, exponent: int, cap: int) -> bool:
    """Whether an n_vertices^exponent strong power stays within cap, at least 1, so
    a graph on at most one vertex fits; a huge exponent fails 2^exponent <= cap
    before it is raised to."""
    if cap < 1:
        raise InputError("vertex budget must be positive")
    return n_vertices <= 1 or exponent <= cap.bit_length() and n_vertices ** exponent <= cap


# ---------------------------------------------------------------------------
# stabilizer orbit labels
#
# ``Graph.recipe`` is an expression over the labelled constructions, with
# complements, strong products and disjoint unions folded in:
#   ("C", n), ("K", n), ("E", n)  cycle, complete and edgeless graph
#   ("G", masks)                  literal graph with these adjacency masks
#   ("co", d)                     complement of d, any recipe but a "co"
#   ("x", (d1, ..., dk))          strong product; vertex index is mixed radix
#                                 over the coordinates, the last one fastest
#   ("+", (d1, ..., dk))          disjoint union; d1's vertices come first
# Products and unions are flat: neither lists an operand of its own kind.
# Equal expressions build equal graphs (``build_masks``).  A recipe with
# no union and no literal inside is vertex-transitive, and each of its
# constructions' labels is kept by a vertex-transitive group of
# automorphisms acting on root and vertex together, which is what lets a
# product sort the labels of equal factors.  A leaf without such a group,
# say a literal labelled by vertex index, would make that sort unsound: in
# C5 x C5 with root (0, 1), (2, 3) and (3, 2) would share a label, yet they
# share 1 and 2 neighbours with the root.  A union is in general not
# vertex-transitive (S + C5 is not even regular), so nothing with a union
# or a literal inside gets labels, not even under a complement.


def _operands(kind: str, d) -> tuple:
    """The operands of d if it is a kind node, else d as one operand."""
    return d[1] if d[0] == kind else (d,)


def recipe_vertices(d) -> int:
    """The vertex count of the graph with recipe d."""
    kind, arg = d
    if kind in ("x", "+"):
        return (math.prod if kind == "x" else sum)(map(recipe_vertices, arg))
    if kind == "G":
        return len(arg)
    return recipe_vertices(arg) if kind == "co" else arg


def recipe_edges(d) -> int:
    """The edge count of the graph with recipe d, read off d with no masks built."""
    kind, arg = d
    n = recipe_vertices(d)
    if kind == "x":  # the ordered pairs adjacent or equal multiply over the factors
        return (math.prod(2 * recipe_edges(c) + recipe_vertices(c) for c in arg) - n) // 2
    if kind == "+":
        return sum(map(recipe_edges, arg))
    if kind == "G":
        return sum(m.bit_count() for m in arg) // 2
    if kind == "co":
        return n * (n - 1) // 2 - recipe_edges(arg)
    return {"K": n * (n - 1) // 2, "E": 0, "C": n if n > 2 else n - 1}[kind]


def recipe_graph(d) -> Graph:
    """The graph with recipe d; its masks are built when first read."""
    return Graph(recipe_vertices(d), recipe=d)


# n * ceil(n / 8) bytes of masks: 2^15 vertices, so C5^6 and E20000 build, C5^7 does not
ADJACENCY_MAX_BYTES = 1 << 27


def require_adjacency_fits(n: int) -> None:
    """Stop unless the n * ceil(n / 8) bytes of n-vertex masks fit ADJACENCY_MAX_BYTES."""
    require_fits(f"adjacency of {n} vertices", n * -(-n // 8), ADJACENCY_MAX_BYTES, "bytes",
                 "adjacency byte limit")


def build_masks(d) -> tuple[int, ...]:
    """The adjacency masks of the graph with recipe d, the one recipe builder,
    behind ``require_adjacency_fits``.  A product is its repeated block's
    power by squaring, or squares its runs of equal factors."""
    kind, arg = d
    if kind == "G":
        return arg
    n = recipe_vertices(d)
    require_adjacency_fits(n)
    full = (1 << n) - 1
    if kind == "co":
        return tuple(full ^ 1 << v ^ m for v, m in enumerate(build_masks(arg)))
    if kind == "+":
        terms = [build_masks(term) for term in arg]
        shifts = itertools.accumulate(map(len, terms), initial=0)
        return tuple(m << shift for term, shift in zip(terms, shifts) for m in term)
    if kind == "x" and n:  # (an empty factor leaves (), the other factors unbuilt)
        k = next(k for k in range(1, len(arg) + 1)  # the shortest block arg repeats
                 if len(arg) % k == 0 and arg == arg[:k] * (len(arg) // k))
        if k < len(arg):
            return _power(build_masks(("x", arg[:k])), len(arg) // k)
        runs = (_power(build_masks(c), len(list(run))) for c, run in itertools.groupby(arg))
        return functools.reduce(_product, runs)
    if kind == "C":
        return tuple((1 << (v + 1) % n | 1 << (v - 1) % n) & ~(1 << v) for v in range(n))
    return tuple(full ^ 1 << v for v in range(n)) if kind == "K" else (0,) * n


def _power(masks: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The e-th strong power's masks (e >= 1) by squaring; an odd e's extra factor goes first."""
    if e == 1:
        return masks
    half = _power(masks, e // 2)
    square = _product(half, half)
    return _product(masks, square) if e % 2 else square


def _product(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of the strong product; vertex (a, b) gets index a * len(h) + b."""
    nh = len(h)
    closed_h = [m | 1 << b for b, m in enumerate(h)]
    masks = []
    for a, m in enumerate(g):
        # every closed g-neighbor a' contributes a block at bit offset a'*nh
        pattern = 1 << (a * nh)
        while m:
            lsb = m & -m
            pattern |= 1 << ((lsb.bit_length() - 1) * nh)
            m ^= lsb
        masks.extend(pattern * c ^ 1 << (a * nh + b) for b, c in enumerate(closed_h))
    return tuple(masks)


def transitive(d) -> bool:
    """Whether the graph with recipe d is vertex-transitive by construction:
    true when no union and no literal is inside d."""
    kind, arg = d
    if kind in ("+", "G"):
        return False
    if kind == "x":
        return all(map(transitive, arg))
    return kind != "co" or transitive(arg)


def _labels(d, root: int) -> list:
    kind, arg = d
    if kind == "co":
        return _labels(arg, root)
    if kind == "C":
        # a reflection through the root swaps root + t and root - t
        return [min((x - root) % arg, (root - x) % arg) for x in range(arg)]
    if kind != "x":
        # K_n and E_n: every permutation fixing the root is an automorphism
        return [int(x != root) for x in range(arg)]
    parts = []
    for c in reversed(arg):
        root, r = divmod(root, recipe_vertices(c))
        parts.append(_labels(c, r))
    parts.reverse()
    # coordinates of equal factors can be permuted: sort their labels
    groups: dict = {}
    for i, c in enumerate(arg):
        groups.setdefault(c, []).append(i)
    return [
        tuple(tuple(sorted(t[i] for i in group)) for group in groups.values())
        for t in itertools.product(*parts)
    ]


def orbit_labels(g: Graph, root: int) -> list | None:
    """Labels of g's vertices relative to root, or None unless g's recipe
    has no union and no literal inside.

    Two vertices with equal labels are mapped to each other by some
    automorphism of g that fixes root.
    """
    if not transitive(g.recipe):
        return None
    return _labels(g.recipe, root)


# ---------------------------------------------------------------------------
# isomorphism

ISO_MAX_VERTICES = 10


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by backtracking; meant for small graphs."""
    if g.n != h.n:
        return False
    if g.edge_count() != h.edge_count():
        return False
    gdeg = [g.degree(v) for v in range(g.n)]
    hdeg = [h.degree(v) for v in range(h.n)]
    if sorted(gdeg) != sorted(hdeg):
        return False
    require_fits("isomorphism search", g.n, ISO_MAX_VERTICES)
    order = sorted(range(g.n), key=lambda v: -gdeg[v])
    image = [-1] * g.n
    used = [False] * h.n

    def assign(pos: int) -> bool:
        if pos == g.n:
            return True
        s = order[pos]
        for t in range(h.n):
            if used[t] or hdeg[t] != gdeg[s]:
                continue
            ok = True
            for prev in order[:pos]:
                if (g.masks[s] >> prev & 1) != (h.masks[t] >> image[prev] & 1):
                    ok = False
                    break
            if ok:
                image[s] = t
                used[t] = True
                if assign(pos + 1):
                    return True
                used[t] = False
                image[s] = -1
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# text formats


def graph_to_bitstring(g: Graph) -> str:
    return f"{g.n}:{_pair_bits(g)}"


def graph_from_bitstring(text: str) -> Graph:
    head, sep, bits = text.partition(":")
    if not sep:
        raise InputError(f"bit-string graph must look like 'n:0101', got {text!r}")
    try:
        n = int(head)
    except ValueError:
        raise InputError(f"bad vertex count in {text!r}") from None
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    nbits = (n * n - n) // 2
    if len(bits) != nbits or any(c not in "01" for c in bits):
        raise InputError(
            f"bit-string for {n} vertices needs exactly {nbits} bits of 0/1, got {bits!r}"
        )
    return _from_pair_bits(n, bits)


def graph_from_edgetext(text: str) -> Graph:
    """Parse 'n; u-v,u-v,...' (edges may be empty: 'n;')."""
    head, sep, body = text.partition(";")
    if not sep:
        raise InputError(f"edge-list graph must look like 'n; 0-1,1-2', got {text!r}")
    try:
        n = int(head.strip())
    except ValueError:
        raise InputError(f"bad vertex count in {text!r}") from None
    require_fits("graph", n, vertex_budget())  # before any mask is built
    edges = []
    body = body.strip()
    if body:
        for item in body.split(","):
            part = item.strip()
            u, sep2, v = part.partition("-")
            if not sep2:
                raise InputError(f"bad edge {part!r}; expected 'u-v'")
            try:
                edges.append((int(u), int(v)))
            except ValueError:
                raise InputError(f"bad edge {part!r}; endpoints must be integers") from None
    return Graph.from_edges(n, edges)
