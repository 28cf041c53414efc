"""Isoperimetric minima and pursuit-evasion games on triangular grid graphs."""

from .core import (
    Coord,
    TriGrid,
    VertexSet,
    automorphism_id_permutations,
    boundary,
    interior_boundary,
    neighborhood,
    render_ascii,
)
from .ordering import (
    final_segment,
    final_segment_boundary_size,
    initial_segment,
    initial_segment_boundary_size,
    packing_minimum,
    rank_sum,
    rank_to_coord,
    simplicial_order,
    simplicial_rank,
    triangular,
)
from .compress import compress_left, compress_right, is_compressed, reflect
from .isoperimetry import (
    DiagonalSegmentReport,
    MinBoundaryTable,
    SampledReport,
    exhaustive_min_boundary,
    diagonal_segment_check,
    lower_bound_certificate,
    sampled_check,
)
from .search import (
    BoundsRow,
    SearchTrace,
    TraceError,
    exact_inspection_number,
    inspection_bounds_report,
    step,
    sweep_budget,
    three_stage_strategy,
    verify_trace,
)
from .lions import (
    LionTrace,
    claim_check,
    column_sweep_strategy,
    couple_to_search,
    exact_lion_number,
    lion_step,
    random_legal_walk,
)

__version__ = "0.1.0"
