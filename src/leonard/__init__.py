"""Exact arithmetic for parameter arrays: construction, verification,
transformation, and classification over the rationals and finite fields.

Importing the package loads none of its modules: each exported name, and
each submodule named as an attribute, is imported on first use (PEP 562).
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each module, with the names the package exports from it.
_EXPORTS = {
    "errors": (
        "BaseNotApplicable", "BudgetExceeded", "CharacteristicMismatch",
        "DenominatorPoleBeforeTermination", "IdentityViolated", "LengthMismatch",
        "LeonardError", "NeedsFieldExtension", "NoCaseMatched", "NonPrimeModulus",
        "PreconditionViolated", "ReducibleModulus", "RepeatedEigenvalue",
        "SeriesDoesNotTerminate", "SingularMatrix", "ZeroToNegativePower",
    ),
    "fields": (
        "ExtensionField", "Field", "FieldElement", "FieldSpec", "PrimeField",
        "RationalField", "embed_map", "extension_field", "make_field",
        "prime_field", "quadratic_roots", "rational_field", "splitting_field",
    ),
    "parray": (
        "BaseCandidates", "ParameterArray", "array_from_json", "base_candidates",
        "beta_plus_one", "complete_from_theta", "d4_apply", "enumerate_arrays",
        "make_array", "validate", "validation_lines",
    ),
    "splitmat": (
        "SplitMatrixSet", "SquareMatrix", "build", "primitive_idempotents",
        "s_matrix", "verify_conjugation", "verify_leonard_conditions",
        "verify_transition_matrix",
    ),
    "polys": (
        "PolyTable", "corresponding_polys", "duality_check",
        "endpoint_evaluations", "endpoint_values", "proportionality_alphas",
        "verify_proportionality",
    ),
    "ortho": ("OrthoData", "ortho_data", "verify_nu_sums", "verify_orthogonality"),
    "recur": (
        "RecurrenceCoeffs", "recurrence_coeffs", "verify_alt_formulas",
        "verify_difference", "verify_three_term",
    ),
    "families": (
        "CLOSED_FORM_FAMILIES", "FAMILY_PARAMS", "ORDINARY_FAMILIES", "Q_FAMILIES",
        "FamilyParams", "HypergeomSpec", "characteristic_admissible",
        "closed_form_spec", "family_base", "family_param_names", "generate",
        "hypergeom_sum", "list_families", "sample_params", "verify_closed_form",
    ),
    "analysis": ("Analysis",),
    "classify": ("ClassifierWitness", "classify", "embed_array", "fit_closed_form_theta"),
    "report": ("CheckReport",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))


class _Package(types.ModuleType):
    """Loading a submodule binds it on the package.  `classify` names both a
    module and the function it exports; the package keeps the function,
    whichever of the two is loaded first."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
