"""layerpot: double-layer potentials, representation identities, and sharp
deviation bounds on balls and smooth planar domains, with a verification CLI.
"""

from . import errors
from .bounds import (
    BoundReport,
    moment_integral,
    moment_integral_closed_form,
    ostrowski_bound_ball,
    ostrowski_bound_general,
    sharp_ball_constant,
)
from .fields import LebesgueExponent, ScalarField, catalog, extremal_field, grad_norm
from .geometry import (
    Ball,
    BoundaryQuadrature,
    Domain,
    StarShaped2D,
    VolumeQuadrature,
    as_point,
    composite_volume_rule,
    volume_rule,
)
from .kernel import (
    fundamental_gradient,
    fundamental_solution,
    sphere_area,
)
from .poisson import DirichletSolution, dirichlet_chi, poisson_evaluate
from .potentials import (
    LayerEvaluation,
    boundary_limit_zeta,
    double_layer,
    double_layer_batch,
    gradient_volume_integral,
    jump_relation_check,
    newtonian_integrals,
)
from .representations import (
    IdentityReport,
    check_ball_corollaries,
    check_c2_exterior,
    check_f1,
    check_f2_f3,
    check_fig,
    check_green_riemann,
    check_grr,
    check_rp,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BoundReport",
    "BoundaryQuadrature",
    "DirichletSolution",
    "Domain",
    "IdentityReport",
    "LayerEvaluation",
    "LebesgueExponent",
    "ScalarField",
    "StarShaped2D",
    "VolumeQuadrature",
    "as_point",
    "boundary_limit_zeta",
    "catalog",
    "check_ball_corollaries",
    "check_c2_exterior",
    "check_f1",
    "check_f2_f3",
    "check_fig",
    "check_green_riemann",
    "check_grr",
    "check_rp",
    "composite_volume_rule",
    "dirichlet_chi",
    "double_layer",
    "double_layer_batch",
    "errors",
    "extremal_field",
    "fundamental_gradient",
    "fundamental_solution",
    "grad_norm",
    "gradient_volume_integral",
    "jump_relation_check",
    "moment_integral",
    "moment_integral_closed_form",
    "newtonian_integrals",
    "ostrowski_bound_ball",
    "ostrowski_bound_general",
    "poisson_evaluate",
    "sharp_ball_constant",
    "sphere_area",
    "volume_rule",
]
