"""Stationary solutions and identification diagnostics for linear rational
expectations models, with VARMA and static simultaneous-equations systems
as the lag-degenerate special cases."""

from .identcore import (
    IdentSystem,
    RankReport,
    RestrictionSet,
    build_ident_system,
    ds_criterion,
    equivalence_class_dim,
    ident_test_affine,
    ident_test_equation,
    obs_equivalent,
    spectral_equivalent,
)
from .paramdsl import (
    GenericReport,
    LocalReport,
    ParamMap,
    SamplerConfig,
    eval_model,
    fd_jacobian,
    generic_ident,
    local_ident,
    parse_model,
)
from .polylab import (
    LaurentMatrix,
    Model,
    lp_det_and_zeros,
    lp_mul,
)
from .resolve import (
    SolutionBundle,
    TransferSeries,
    cf_check_and_normalize,
    simulate,
    solve_model,
    spectral_density,
    unit_circle_grid,
)
from .wienerhopf import WHFactors, wh_factorize

__version__ = "0.1.0"

__all__ = [
    "IdentSystem", "RankReport", "RestrictionSet", "build_ident_system",
    "ds_criterion", "equivalence_class_dim", "ident_test_affine",
    "ident_test_equation", "obs_equivalent", "spectral_equivalent",
    "GenericReport", "LocalReport", "ParamMap", "SamplerConfig", "eval_model",
    "fd_jacobian", "generic_ident", "local_ident", "parse_model",
    "LaurentMatrix", "Model", "lp_det_and_zeros", "lp_mul", "SolutionBundle",
    "TransferSeries", "cf_check_and_normalize", "simulate", "solve_model",
    "spectral_density", "unit_circle_grid", "WHFactors", "wh_factorize",
]
