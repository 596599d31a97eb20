"""adrkit: exact ADR-algebra numerology for quiver algebras.

Given a finite-dimensional basic algebra presented by a quiver with relations,
compute the quasihereditary bookkeeping of its ADR algebra: standard /
costandard / tilting composition data, the Cartan matrices of R_A, of its
Ringel dual and of S_A (each by two independent routes), and machine-checked
verdicts for the Ringel-dual identification, its minimality, and Ringel
selfduality.
"""

__version__ = "0.1.0"

from .exactlin import RATIONAL, FieldSpec, Matrix
from .presentation import (
    AlgebraData,
    AlgebraPresentation,
    Arrow,
    CapTooSmallError,
    PresentationError,
    Quiver,
    Relation,
    build_algebra,
    enumerate_paths,
    is_connected,
    opposite_presentation,
)
from .repmod import (
    CompositionVector,
    Representation,
    SeriesProfile,
    composition_vector,
    hom_dim,
    injective,
    is_nakayama,
    is_rigid,
    is_selfinjective,
    is_uniserial,
    loewy_length,
    projective,
    radical_series,
    simple,
    socle_series,
    socle_sub,
    truncate,
)
from .adrcore import (
    DeltaFiltration,
    HypothesesNotSatisfiedError,
    LabeledMatrix,
    LambdaCompositionVector,
    LambdaLabel,
    LambdaPoset,
    NegativeMultiplicityError,
    cartan_RA_formula,
    cartan_RA_hom,
    cartan_ringel_dual,
    cartan_SA_formula,
    cartan_SA_hom,
    costandard_vector,
    delta_layers,
    injective_vector,
    lambda_poset,
    standard_vector,
    theorem_a_hypotheses,
    tilting_delta_filtration,
    tilting_hom_dim,
    tilting_vector,
)
from .theorems import (
    Check,
    InternalInconsistencyError,
    Verdict,
    check_opposite_symmetry,
    check_theorem_a,
    check_theorem_b,
    ringel_selfdual_verdict,
)
from .corpus import (
    CorpusEntry,
    GenerationExhaustedError,
    RandomLimits,
    builtin_entries,
    entry_ids,
    get_entry,
    nakayama_selfinjective,
    preprojective_a,
    random_admissible,
    run_invariant_suite,
    truncated_path_algebra,
)
