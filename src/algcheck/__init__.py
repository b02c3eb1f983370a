"""Exact-arithmetic verification and twisting of group-graded Hom-algebras.

The layer modules load on first use.  `import algcheck` registers each of
them in sys.modules as a lazy module, which runs the first time one of its
attributes is read; a public name such as `algcheck.check_operator` reads
its module through the PEP 562 `__getattr__` below.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the operator kinds check_operator classifies, and check-operator's --kind
KINDS = ("centroid", "averaging", "rota-baxter", "nijenhuis")


def _lazy(name):
    """sys.modules[name], else that module registered there unexecuted: it
    runs on its first attribute access (the importlib.util.LazyLoader
    recipe)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


errors = _lazy(f"{__name__}.errors")
report = _lazy(f"{__name__}.report")
grading = _lazy(f"{__name__}.grading")
core = _lazy(f"{__name__}.core")
document = _lazy(f"{__name__}.document")
operators = _lazy(f"{__name__}.operators")
constructions = _lazy(f"{__name__}.constructions")

# public name -> the module that defines it
_HOME = {name: module for module, names in (
    ("errors", ("AlgcheckError", "DocumentError", "EvennessError", "HypothesisError",
                "IncompatibilityError", "InvalidRepresentationError", "MissingComponentError",
                "SearchSpaceError", "ShapeError", "SingularMapError")),
    ("grading", ("GroupSpec", "MultiplierTable", "SignBicharacter", "delta_from_multiplier",
                 "twist_epsilon", "validate_bicharacter", "validate_multiplier")),
    ("core", ("BilinearProduct", "EvenLinearMap", "GradedAlgebra", "GradedBasis",
              "check_epsilon_commutative", "check_hom_associative", "check_hom_leibniz",
              "check_hom_lie", "check_hom_poisson", "check_morphism", "commutator_bracket")),
    ("operators", ("OperatorClaim", "check_nijenhuis_transfer", "check_operator",
                   "search_diagonal_operators")),
    ("constructions", ("ConstructionResult", "averaging_twist_pairwise", "averaging_twist_power",
                       "averaging_twist_untwisted", "centroid_twist", "multiplier_twist_delta",
                       "multiplier_twist_symmetric", "nijenhuis_twist", "rota_baxter_twist",
                       "tensor_with_commutative", "transport_along_bijection", "xi_twist")),
    ("document", ("AlgebraDocument", "format_rational", "parse_document", "parse_rational",
                  "serialize_document")),
    ("report", ("AxiomReport", "Violation", "all_ok", "render_reports")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
