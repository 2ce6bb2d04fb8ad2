"""Exact characteristic classes of constant-coefficient Lie algebroids."""

from .scalars import Scalar
from .linalg import Matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    validate_algebroid,
    ce_differential,
    betti_numbers,
    coboundary_witness,
    direct_product,
)
from .connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
)
from .transgression import intrinsic_cochains
from .charclasses import (
    ClassReport,
    DomainError,
    adjoint_setup,
    basic_cochains,
    intrinsic_char,
    modular_class,
    KAPPA,
)
from .pullback import (
    pullback_algebroid,
    morita_check,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
