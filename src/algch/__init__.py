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
    curvature,
    supertrace,
    form_supertrace,
    h_dual,
    metric_average,
    equivalence_witness,
)
from .transgression import (
    AffineForm,
    affine_curvature,
    fibre_integrate,
    cs_cochain,
    cs_cochains,
)
from .charclasses import (
    AdjointData,
    ClassReport,
    IdentityFailure,
    PrimaryObstruction,
    chern_character,
    secondary_class,
    adjoint_setup,
    intrinsic_char,
    modular_class,
    trace_character,
    KAPPA,
)
from .pullback import (
    SubmersionSpec,
    pullback_algebroid,
    pullback_data,
    submersion_recipe,
    morita_check,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
