"""Strong Gram invariants of connected non-negative unit forms of Dynkin
type A: cycle types, factored Coxeter polynomials and (reduced) Coxeter
numbers, computed exactly through quiver realizations.
"""

from .errors import InvariantViolation, NotConnected, NotDynkinTypeA
from .invariants import (
    CoxeterNumbers,
    coxeter_numbers,
    coxeter_numbers_of_cycle_type,
    coxeter_polynomial,
    coxeter_polynomial_of_cycle_type,
    cycle_type_and_corank,
    cycle_type_from_cox_poly,
    cycle_type_of_form,
    enumerate_coxeter_polynomials,
    spectral_multiplicity,
)
from .linalg import char_poly, psd_rank
from .partitions import (
    FactoredCoxPoly,
    Partition,
    cycle_type_of_permutation,
    part1c,
    partitions_by_length,
)
from .quiver import (
    Quiver,
    coxeter_matrix_of_quiver,
    cycle_type_of_quiver,
    inverse_quiver,
    opposite,
    relabel_vertices,
    vertex_permutation,
)
# realize() itself stays in its module to avoid shadowing the submodule name
from .realize import (
    RealizationResult,
    basis_change_to_canonical,
    canonical_extension_quiver,
    realize_quiver,
    representative_quiver_A,
    representative_quiver_star,
)
from .sweep import SweepReport, run_sweep
from .unitform import (
    UnitForm,
    check_strong_congruence,
    corank,
    evaluate,
    form_of_quiver,
    is_non_negative,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
