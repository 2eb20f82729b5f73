"""Exact integer/rational linear algebra substrate.

Everything the access-normalization pass needs from "integer lattice theory"
(Section 3 of the paper) lives here: exact rational matrices, Hermite and
Smith normal forms, Diophantine solving, lattices with lexicographic
scanning support, and Fourier-Motzkin elimination.
"""

from repro.linalg.diophantine import (
    DiophantineSolution,
    integer_null_basis,
    solve_diophantine,
    try_solve_diophantine,
)
from repro.linalg.fourier_motzkin import (
    Bound,
    Constraint,
    InfeasibleSystemError,
    LevelBounds,
    eliminate,
    eliminate_with_projections,
    implies_bound,
    maximize,
)
from repro.linalg.fraction_matrix import Matrix
from repro.linalg.hermite import column_hnf, hnf_diagonal, row_hnf
from repro.linalg.intmat import (
    as_int_vector,
    clear_denominators,
    dot,
    is_integer_vector,
    lcm,
    vector_gcd,
    vector_lcm,
)
from repro.linalg.lattice import (
    IntegerLattice,
    first_aligned_at_least,
    last_aligned_at_most,
)
from repro.linalg.progression import (
    Progression,
    affine_segment_starts,
    congruence_period,
    count_block_cyclic,
    count_congruent,
    count_in_interval,
    residue_classes,
    sum_affine_range,
)
from repro.linalg.smith import smith_normal_form
from repro.linalg.sympoly import (
    SymExpr,
    SymbolicUnsupported,
    bounded_sum,
    const,
    eq0,
    floordiv,
    ge0,
    mod,
    pos,
    smax,
    smin,
    sym,
    sym_sum,
)

__all__ = [
    "Bound",
    "Constraint",
    "DiophantineSolution",
    "InfeasibleSystemError",
    "IntegerLattice",
    "LevelBounds",
    "Matrix",
    "Progression",
    "SymExpr",
    "SymbolicUnsupported",
    "affine_segment_starts",
    "as_int_vector",
    "bounded_sum",
    "const",
    "eq0",
    "floordiv",
    "ge0",
    "mod",
    "pos",
    "smax",
    "smin",
    "sym",
    "sym_sum",
    "clear_denominators",
    "column_hnf",
    "congruence_period",
    "count_block_cyclic",
    "count_congruent",
    "count_in_interval",
    "dot",
    "eliminate",
    "eliminate_with_projections",
    "first_aligned_at_least",
    "hnf_diagonal",
    "integer_null_basis",
    "is_integer_vector",
    "last_aligned_at_most",
    "implies_bound",
    "lcm",
    "maximize",
    "residue_classes",
    "row_hnf",
    "smith_normal_form",
    "solve_diophantine",
    "sum_affine_range",
    "try_solve_diophantine",
    "vector_gcd",
    "vector_lcm",
]
