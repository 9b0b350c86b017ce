"""Verification lab for the p-Laplace Lane-Emden-Fowler equation
-lap_p u = f(u) on rotationally symmetric model manifolds.

Subpackages:

* geometry     -- warped-product models, curvature, ball volumes
* taylor       -- forward-mode AD (third-order jets and duals)
* fields       -- smooth positive test fields and radial profiles
* jets         -- pointwise calculus on second-order jets
* divergence   -- third-order divergence engine for derived fields
* identities   -- seeded identity/inequality verification campaigns
* exponents    -- critical exponents, reaction terms, Liouville classifier
* shooting     -- radial flux-form shooting, scans, bubble matching
* estimates    -- log-gradient bounds and Harnack-type ratio checks
* cli          -- command-line entry point, JSON reports
"""

from .errors import (
    DomainError,
    EmdenLabError,
    InputError,
    NumericalError,
    PreconditionError,
    SingularJetError,
)
from .exponents import (
    ReactionTerm,
    classify_liouville,
    critical_exponent,
    emden_bubble,
    emden_residual,
    threshold_table,
)
from .geometry import (
    ManifoldModel,
    ball_volume,
    bishop_gromov_check,
    euclidean,
    hyperbolic,
    sphere,
)
from .reports import IdentityReport, InequalityReport, RunReport
from .reports import TOOL_VERSION as __version__
from .shooting import ShootOutcome, bubble_match, bv_sphere_scan, liouville_scan, shoot
