"""Start-up: `import leonard` loads no submodule, and each CLI command loads
only the modules it runs.  Each case runs in a fresh interpreter, so that
the modules other tests loaded do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# the names the package exported when its __init__ imported every module
EXPORTED = [
    "Analysis", "BaseCandidates", "BaseNotApplicable", "BudgetExceeded",
    "CLOSED_FORM_FAMILIES", "CharacteristicMismatch", "CheckReport",
    "ClassifierWitness", "DenominatorPoleBeforeTermination", "ExtensionField",
    "FAMILY_PARAMS", "FamilyParams", "Field", "FieldElement", "FieldSpec",
    "HypergeomSpec", "IdentityViolated", "LengthMismatch", "LeonardError",
    "NeedsFieldExtension", "NoCaseMatched", "NonPrimeModulus",
    "ORDINARY_FAMILIES", "OrthoData", "ParameterArray", "PolyTable",
    "PreconditionViolated", "PrimeField", "Q_FAMILIES", "RationalField",
    "RecurrenceCoeffs", "ReducibleModulus", "RepeatedEigenvalue",
    "SeriesDoesNotTerminate", "SingularMatrix", "SplitMatrixSet", "SquareMatrix",
    "ZeroToNegativePower", "array_from_json", "base_candidates", "beta_plus_one",
    "build", "characteristic_admissible", "classify", "closed_form_spec",
    "complete_from_theta", "corresponding_polys", "d4_apply", "duality_check",
    "embed_array", "embed_map", "endpoint_evaluations", "endpoint_values",
    "enumerate_arrays", "extension_field", "family_base", "family_param_names",
    "fit_closed_form_theta", "generate", "hypergeom_sum", "list_families",
    "make_array", "make_field", "ortho_data", "prime_field",
    "primitive_idempotents", "proportionality_alphas", "quadratic_roots",
    "rational_field", "recurrence_coeffs", "s_matrix", "sample_params",
    "splitting_field", "validate", "validation_lines", "verify_alt_formulas",
    "verify_closed_form", "verify_conjugation", "verify_difference",
    "verify_leonard_conditions", "verify_nu_sums", "verify_orthogonality",
    "verify_proportionality", "verify_three_term", "verify_transition_matrix",
]

ANALYSIS_MODULES = {"splitmat", "polys", "ortho", "recur", "analysis"}


def run_fresh(code: str):
    """Run code in a new interpreter with src/ on the path; the JSON it
    prints on its last line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(argv: list[str]) -> set[str]:
    """The leonard submodules that cli.main(argv) loads, after checking
    that it exits 0."""
    code = f"""
import contextlib, io, json, sys
from leonard import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("leonard."))))
"""
    return {name.removeprefix("leonard.") for name in run_fresh(code)}


def test_import_loads_no_submodule():
    code = """
import json, sys
import leonard
print(json.dumps(sorted(m for m in sys.modules if m.startswith("leonard."))))
"""
    assert run_fresh(code) == []


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "prime:5", "--d", "2", "--limit", "2"],
    ["classify", str(FIXTURES / "qrac3.json")],
    ["gen", "krawtchouk", "--d", "2", "--field", "rational",
     "--param", "r=2", "s=1", "sstar=1", "theta0=0", "thetastar0=0"],
], ids=["enumerate", "classify", "gen"])
def test_commands_off_the_scoreboard_load_none_of_its_modules(argv):
    assert not loaded_by(argv) & ANALYSIS_MODULES


@pytest.mark.parametrize("command", ["verify", "poly-table", "weights",
                                     "recurrence", "matrices"])
def test_scoreboard_commands_load_neither_families_nor_classify(command):
    loaded = loaded_by([command, str(FIXTURES / "qrac3.json")])
    assert ANALYSIS_MODULES <= loaded
    assert not loaded & {"families", "classify"}


def test_every_exported_name_resolves():
    code = """
import json, types
import leonard
missing = object()
bad = [name for name in leonard.__all__ + dir(leonard)
       if getattr(leonard, name, missing) is missing]
print(json.dumps({"all": sorted(leonard.__all__), "bad": bad,
                  "modules": [name for name in ("fields", "splitmat", "analysis")
                              if isinstance(getattr(leonard, name), types.ModuleType)]}))
"""
    out = run_fresh(code)
    assert out["all"] == EXPORTED and len(EXPORTED) == 85
    assert out["bad"] == []
    assert out["modules"] == ["fields", "splitmat", "analysis"]


def test_dir_and_a_submodule_reached_through_the_package(monkeypatch):
    """`dir(leonard)` lists every export and submodule, and a submodule not
    yet bound on the package is imported by its module __getattr__ and bound
    there: in this interpreter, and in a fresh one, where `leonard.ortho` is
    the first use of the module."""
    import types

    import leonard

    names = dir(leonard)
    assert names == sorted(names) and set(EXPORTED) | {"ortho", "splitmat"} <= set(names)
    monkeypatch.delattr(leonard, "ortho", raising=False)
    module = leonard.ortho
    assert isinstance(module, types.ModuleType) and module is sys.modules["leonard.ortho"]
    assert vars(leonard)["ortho"] is module
    code = """
import json, sys
import leonard
module = leonard.ortho
print(json.dumps([module.__name__, module is sys.modules["leonard.ortho"],
                  vars(leonard)["ortho"] is module]))
"""
    assert run_fresh(code) == ["leonard.ortho", True, True]


def test_unknown_name_raises_attribute_error():
    code = """
import json
import leonard
try:
    leonard.no_such_name
except AttributeError as e:
    print(json.dumps(str(e)))
"""
    assert run_fresh(code) == "module 'leonard' has no attribute 'no_such_name'"


def test_classify_is_the_function_after_its_module_loads():
    """`classify` names a module and the function it exports; loading the
    module first, as the classify command does, leaves the package's name
    on the function."""
    code = f"""
import contextlib, io, json
from leonard import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["classify", {str(FIXTURES / "qrac3.json")!r}])
import leonard
import leonard.classify as imported
from leonard import classify
print(json.dumps([callable(x) and x.__module__ for x in
                  (leonard.classify, imported, classify)]))
"""
    assert run_fresh(code) == ["leonard.classify"] * 3
