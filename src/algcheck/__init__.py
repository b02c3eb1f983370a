"""Exact-arithmetic verification and twisting of group-graded Hom-algebras."""

from .errors import (
    AlgcheckError,
    DocumentError,
    EvennessError,
    HypothesisError,
    IncompatibilityError,
    InvalidRepresentationError,
    MissingComponentError,
    SearchSpaceError,
    ShapeError,
    SingularMapError,
)
from .grading import (
    GroupSpec,
    MultiplierTable,
    SignBicharacter,
    delta_from_multiplier,
    twist_epsilon,
    validate_bicharacter,
    validate_multiplier,
)
from .core import (
    BilinearProduct,
    EvenLinearMap,
    GradedAlgebra,
    GradedBasis,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_leibniz,
    check_hom_lie,
    check_hom_poisson,
    check_morphism,
    commutator_bracket,
)
from .operators import (
    OperatorClaim,
    check_nijenhuis_transfer,
    check_operator,
    search_diagonal_operators,
)
from .constructions import (
    ConstructionResult,
    averaging_twist_pairwise,
    averaging_twist_power,
    averaging_twist_untwisted,
    centroid_twist,
    multiplier_twist_delta,
    multiplier_twist_symmetric,
    nijenhuis_twist,
    rota_baxter_twist,
    tensor_with_commutative,
    transport_along_bijection,
    xi_twist,
)
from .document import (
    AlgebraDocument,
    format_rational,
    parse_document,
    parse_rational,
    serialize_document,
)
from .report import AxiomReport, Violation, all_ok, render_reports

__version__ = "0.1.0"
