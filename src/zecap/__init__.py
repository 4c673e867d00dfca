"""Exact and certified machinery around the zero-error capacity of graphs.

The package computes three kinds of objects and keeps them honest:

* exact lower bounds from independence numbers of strong powers, reported
  as computable reals with a 2^-n error modulus;
* certified upper bounds — a Lovász theta interval whose both ends are
  re-proved in exact rational arithmetic, and the exact fractional clique
  cover number from a rational simplex;
* budgeted decision procedures — a dovetailing semi-decider and
  enumerator for "capacity > threshold" emitting exact certificates, a
  dyadic grid locator, and an interval squeezer.

Channels enter through their confusability graphs; a graph numbering,
a cohomomorphism preorder with its asymptotic relaxation, and a CLI
(`zecap`) round out the toolkit.
"""

__version__ = "0.1.0"

from .alpha import (
    IndependentSetWitness,
    LadderValue,
    PowerLadder,
    ladder,
    solve_alpha,
)
from .channel import (
    Channel,
    ChannelCapacityReport,
    capacity_bounds,
    channel_from_csv,
    channel_from_json,
    confusability_graph,
)
from .creal import (
    CReal,
    add,
    decimal_string,
    from_rational,
    parse_real,
    root_pow2,
    sqrt_int,
)
from .decide import (
    BUDGET_EXHAUSTED,
    HALTED,
    VALUE,
    Certificate,
    DecisionOutcome,
    EmittedGraph,
    EnumerationState,
    GridCell,
    SqueezeResult,
    enumerate_gt,
    lipschitz_constant,
    locate_grid,
    semidecide_gt,
    squeeze_capacity,
)
from .errors import BudgetError, ConvergenceError, InputError, ZecapError
from .graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    decode,
    disjoint_union,
    edgeless_graph,
    encode,
    graph_from_bitstring,
    graph_from_edgetext,
    graph_to_bitstring,
    index_offset,
    is_isomorphic,
    single_vertex,
    strong_power,
    strong_product,
)
from .preorder import (
    AsymptoticOutcome,
    HomWitness,
    asymptotic_leq_bounded,
    leq,
    test_F,
)
from .spectrum import (
    BoundsReport,
    UpperBound,
    fractional_clique_cover,
    lovasz_theta,
    maximal_cliques,
    sandwich,
)
