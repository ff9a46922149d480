"""Fundamental relative invariants and b-functions of type-A quiver spaces."""

from .quiver import (
    DimVector,
    Interval,
    QuiverA,
    euler_form,
    parse_quiver,
    sinks_sources,
)
from .invariants import (
    BlockMatrixSpec,
    InvariantIndex,
    MatrixRep,
    block_spec,
    enumerate_invariants,
    evaluate_invariant,
    invariant_index,
    is_invariant,
)
from .diagrams import (
    LaceDiagram,
    Strand,
    complete_diagram,
    diagram_to_matrices,
    exact_diagram,
    strands,
)
from .bfun import (
    AFunction,
    FactoredBFunction,
    FSet,
    LinearForm,
    a_function,
    b_from_fset,
    b_multivariate,
    b_one_variable,
    evaluate_bracket_product,
    f_set,
    fset_of_invariant,
    superpose,
)
from .ranks import (
    RankParameter,
    RestrictedInvariant,
    SliceRep,
    rank_parameter,
    restricted_invariant_shape,
    slice_representation,
    summand_ext,
)
from .oracle import (
    Budget,
    apply_bernstein,
    apply_bernstein_multi,
    a_function_check,
    dual_invariant,
    expand_invariant,
    grad_log_check,
    oracle_b_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
