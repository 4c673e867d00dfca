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
    ZeroErrorCode,
    capacity_bounds,
    channel_from_csv,
    channel_from_json,
    confusability_graph,
    max_zero_error_code,
    words_distinguishable,
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
    semidecide_level,
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
    AxiomReport,
    HomWitness,
    asymptotic_leq_bounded,
    leq,
    strassen_axiom_suite,
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

__all__ = [
    "__version__",
    "AsymptoticOutcome",
    "AxiomReport",
    "BoundsReport",
    "BUDGET_EXHAUSTED",
    "BudgetError",
    "Certificate",
    "Channel",
    "ChannelCapacityReport",
    "ConvergenceError",
    "CReal",
    "DecisionOutcome",
    "EmittedGraph",
    "EnumerationState",
    "Graph",
    "HALTED",
    "GridCell",
    "HomWitness",
    "IndependentSetWitness",
    "InputError",
    "LadderValue",
    "PowerLadder",
    "SqueezeResult",
    "UpperBound",
    "VALUE",
    "ZecapError",
    "ZeroErrorCode",
    "add",
    "asymptotic_leq_bounded",
    "capacity_bounds",
    "channel_from_csv",
    "channel_from_json",
    "complement",
    "complete_graph",
    "confusability_graph",
    "cycle_graph",
    "decimal_string",
    "decode",
    "disjoint_union",
    "edgeless_graph",
    "encode",
    "enumerate_gt",
    "fractional_clique_cover",
    "from_rational",
    "graph_from_bitstring",
    "graph_from_edgetext",
    "graph_to_bitstring",
    "index_offset",
    "is_isomorphic",
    "ladder",
    "leq",
    "lipschitz_constant",
    "locate_grid",
    "lovasz_theta",
    "max_zero_error_code",
    "maximal_cliques",
    "parse_real",
    "root_pow2",
    "sandwich",
    "semidecide_gt",
    "semidecide_level",
    "single_vertex",
    "solve_alpha",
    "sqrt_int",
    "squeeze_capacity",
    "strassen_axiom_suite",
    "strong_power",
    "strong_product",
    "test_F",
    "words_distinguishable",
]
