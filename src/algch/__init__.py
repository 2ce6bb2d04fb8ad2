"""Exact characteristic classes of constant-coefficient Lie algebroids."""

from .scalars import Scalar, SimplexPolynomial, simplex_integrate
from .linalg import Matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    validate_algebroid,
    ce_differential,
    betti_number,
    coboundary_witness,
    direct_product,
)
from .connections import (
    GradedBundle,
    GradedEndo,
    OddMap,
    Connection,
    HermitianMetric,
    supertrace,
    h_dual,
)
from .transgression import (
    AffineForm,
    fibre_integrate,
    cs_cochain,
    cs_cochains,
)
from .charclasses import (
    ClassReport,
    IdentityFailure,
    PrimaryObstruction,
    chern_character,
    secondary_class,
    adjoint_setup,
    intrinsic_char,
    modular_class,
    KAPPA,
)
from .pullback import (
    SubmersionSpec,
    pullback_algebroid,
    submersion_recipe,
    morita_check,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
