"""Holonomy, gauge actions and closure experiments on finite graphs.

The package is organized in five layers: ``pathgroupoid`` (graphs and
reduced edge words), ``matrixgroups`` (compact matrix groups and Haar
sampling), ``connections`` (edge assignments, smooth bump connections,
parallel transport, discrete gauge actions, interpolation), ``cylindrical``
(functions of finitely many holonomies, Haar means, trace separation)
and ``spectra`` (spanning-tree coordinates, orbit normal forms, closure
verdicts).  The ``cli`` module exposes the same operations as a batch
tool named ``holonomy-lab``.

This namespace exports a name only if a command reaches it, the benchmark
imports or traces it, the README documents it, or an open roadmap item
builds on it (README, "Library layout").  Constructions only the tests use
live in the test suite.
"""

from .pathgroupoid import (
    CompositionError,
    ConnectivityError,
    Edge,
    Graph,
    PathWord,
    UnknownEdgeError,
    abelianize,
    compose,
    edge_word,
    graph_from_dict,
    graph_to_dict,
    inverse,
    loop_relations,
    spanning_tree,
    tree_edge_ids,
    word_from_tokens,
    word_to_tokens,
)
from .matrixgroups import (
    BranchCutError,
    CentralQuotient,
    DescriptorMismatchError,
    GroupElement,
    LieAlgebraElement,
    ProductGroup,
    SpecialUnitary,
    Torus,
    Unitary,
    central_quotient,
    descriptor_from_dict,
    descriptor_to_dict,
    dim,
    distance,
    exp_map,
    find_conjugator,
    haar_batch,
    identity,
    inv,
    log_map,
    mul,
    quotient_project,
    random_algebra,
)
from .connections import (
    BumpTerm,
    DiscreteGauge,
    GeneralizedConnection,
    GeometryError,
    IndependenceError,
    InterpolationTarget,
    SmoothConnection,
    gauge_act_general,
    generalized_from_dict,
    generalized_to_dict,
    holonomies,
    holonomy_general,
    holonomy_smooth,
    interpolate_connection,
    random_discrete_gauge,
    random_generalized_connection,
    random_smooth_connection,
    restrict,
    smooth_from_dict,
    smooth_to_dict,
    transport,
)
from .cylindrical import (
    Conj,
    Const,
    CylFunction,
    Entry,
    HaarMean,
    MeanEstimate,
    Prod,
    SeparationVerdict,
    Sum,
    TraceOf,
    cyl_from_dict,
    cyl_to_dict,
    entry_abs_square,
    entry_function,
    evaluate,
    holonomy_stack,
    invariance_check,
    separation_test,
    wilson_loop,
)
from .spectra import (
    ApproximationReport,
    ClosureVerdict,
    LoopAssignment,
    ObstructionWitness,
    TreeBasis,
    TreeDecomposition,
    abelian_obstruction_witness,
    approximation_experiment,
    closure_membership,
    commutator_word,
    loop_assignment_from_dict,
    loop_assignment_to_dict,
    orbit_representative,
    tree_basis,
    tree_decompose,
    tree_reconstruct,
)

__version__ = "0.1.0"
