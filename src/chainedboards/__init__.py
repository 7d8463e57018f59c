"""Rook placements, chained permutations, and chained alternating sign
matrices on linear and circular chains of chessboards."""

from .boards import (
    BoardSpec,
    Composition,
    Shape,
    Square,
    attacks,
    circular,
    linear,
    max_rooks,
)
from .counting import (
    classical_asm_count,
    count_max,
    count_max_circular,
    count_max_linear,
    count_placements_formula,
    falling_factorial,
    qtasm_count,
)
from .placements import (
    RookPlacement,
    count_placements_brute,
    enumerate_placements,
    placement_problems,
)
from .perms import (
    ChainedPermutation,
    OneLine,
    enumerate_chained_permutations,
    from_one_line,
    matrices_to_placement,
    one_line_problems,
    one_line_text,
    parse_one_line,
    placement_to_matrices,
    to_one_line,
)
from .matchings import (
    ChainGraph,
    ChainMatching,
    from_matching,
    matching_problems,
    to_matching,
)
from .asm import (
    ChainedASM,
    PlainASM,
    asm_to_permutation,
    chained_asm_problems,
    count_chained_asm_tm,
    enumerate_chained_asm,
    permutation_to_asm,
    plain_asm_problems,
    to_plain_asm,
)
from .triangles import (
    MonotoneTriangleChain,
    from_monotone_triangles,
    mt_chain_problems,
    to_monotone_triangles,
)
from .ice import (
    FPLConfiguration,
    GridGraph,
    IceConfiguration,
    fpl_problems,
    from_fpl,
    from_ice,
    ice_problems,
    to_fpl,
    to_ice,
)
from .serialization import deserialize, serialize
from .rendering import render
from .verify import VerificationReport, verify_tables

__all__ = [name for name in dir() if not name.startswith("_")]
