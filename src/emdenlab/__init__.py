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
* dop853       -- the DOP853 stepper the radial solves run on
* estimates    -- log-gradient bounds and Harnack-type ratio checks
* cli          -- command-line entry point, JSON reports

The package's own names (``shoot``, ``euclidean``, ``RunReport``,
``__version__``, ...) are loaded from their submodule on first access
(PEP 562), so ``import emdenlab.identities`` does not compile the
integrator or the classifier, which it never runs.
"""

import importlib

#: exported name -> (submodule, name in it)
_EXPORTS = {
    **{name: ("errors", name) for name in (
        "DomainError", "EmdenLabError", "InputError", "NumericalError",
        "PreconditionError", "SingularJetError")},
    **{name: ("exponents", name) for name in (
        "ReactionTerm", "classify_liouville", "critical_exponent", "emden_bubble",
        "emden_residual", "threshold_table")},
    **{name: ("geometry", name) for name in (
        "ManifoldModel", "ball_volume", "bishop_gromov_check", "euclidean",
        "hyperbolic", "sphere")},
    **{name: ("reports", name) for name in (
        "IdentityReport", "InequalityReport", "RunReport")},
    "__version__": ("reports", "TOOL_VERSION"),
    **{name: ("shooting", name) for name in (
        "ShootOutcome", "bubble_match", "bv_sphere_scan", "liouville_scan", "shoot")},
}


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        # also how ``from emdenlab import shooting`` falls back to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
