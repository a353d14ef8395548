"""Exact arithmetic for parameter arrays: construction, verification,
transformation, and classification over the rationals and finite fields."""

from .errors import (
    BaseNotApplicable,
    BudgetExceeded,
    CharacteristicMismatch,
    DenominatorPoleBeforeTermination,
    IdentityViolated,
    LengthMismatch,
    LeonardError,
    NeedsFieldExtension,
    NoCaseMatched,
    NonPrimeModulus,
    PreconditionViolated,
    ReducibleModulus,
    RepeatedEigenvalue,
    SeriesDoesNotTerminate,
    SingularMatrix,
    ZeroToNegativePower,
)
from .fields import (
    ExtensionField,
    Field,
    FieldElement,
    FieldSpec,
    PrimeField,
    RationalField,
    embed_map,
    extension_field,
    make_field,
    prime_field,
    quadratic_roots,
    rational_field,
    splitting_field,
)
from .parray import (
    BaseCandidates,
    ParameterArray,
    array_from_json,
    base_candidates,
    beta_plus_one,
    complete_from_theta,
    d4_apply,
    enumerate_arrays,
    make_array,
    validate,
    validation_lines,
)
from .splitmat import (
    SplitMatrixSet,
    SquareMatrix,
    build,
    primitive_idempotents,
    s_matrix,
    verify_conjugation,
    verify_leonard_conditions,
    verify_transition_matrix,
)
from .polys import (
    PolyTable,
    corresponding_polys,
    duality_check,
    endpoint_evaluations,
    endpoint_values,
    proportionality_alphas,
    verify_proportionality,
)
from .ortho import OrthoData, ortho_data, verify_nu_sums, verify_orthogonality
from .recur import (
    RecurrenceCoeffs,
    recurrence_coeffs,
    verify_alt_formulas,
    verify_difference,
    verify_three_term,
)
from .families import (
    CLOSED_FORM_FAMILIES,
    FAMILY_PARAMS,
    ORDINARY_FAMILIES,
    Q_FAMILIES,
    FamilyParams,
    HypergeomSpec,
    characteristic_admissible,
    closed_form_spec,
    family_base,
    family_param_names,
    generate,
    hypergeom_sum,
    list_families,
    sample_params,
    verify_closed_form,
)
from .analysis import Analysis
from .classify import ClassifierWitness, classify, embed_array, fit_closed_form_theta
from .report import CheckReport

__version__ = "0.1.0"
