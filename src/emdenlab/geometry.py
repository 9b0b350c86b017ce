"""Rotationally symmetric model manifolds in radial coordinates.

A model is the warped product  dr^2 + psi(r)^2 g_{S^{n-1}}  with profile
psi(0)=0, psi'(0)=1.  The named models are Euclidean space (psi=r), the
round sphere (psi=sin(sqrt(k) r)/sqrt(k)) and hyperbolic space
(psi=sinh(sqrt(k) r)/sqrt(k)).  The module supplies the warping jet,
radial/tangential Ricci curvature, geodesic-ball volumes and the
volume-comparison monotonicity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError

__all__ = [
    "ManifoldModel",
    "euclidean",
    "sphere",
    "hyperbolic",
    "user_warped",
    "warped_from_config",
    "unit_sphere_area",
    "ball_volume",
    "bishop_gromov_check",
]

# Below r_ser the closed forms psi = sin/sinh(sqrt(k) r)/sqrt(k) lose digits to
# cancellation in psi''/psi, so named models switch to a 5-term Taylor series.
_SERIES_TERMS = 5


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _series_psi(r, curv_sign: float, kappa: float):
    """5-term Taylor evaluation of psi, psi', psi'' near r=0.

    curv_sign = -1 gives sin-type (sphere), +1 gives sinh-type (hyperbolic),
    and kappa=0 collapses to the Euclidean profile psi=r.
    """
    r = np.asarray(r, dtype=float)
    c = curv_sign * kappa
    psi = np.zeros_like(r)
    dpsi = np.zeros_like(r)
    ddpsi = np.zeros_like(r)
    # psi = sum_{k} c^k r^(2k+1) / (2k+1)!
    for k in range(_SERIES_TERMS):
        m = 2 * k + 1
        coef = c**k / math.factorial(m)
        psi = psi + coef * r**m
        dpsi = dpsi + coef * m * r ** (m - 1)
        if m >= 2:
            ddpsi = ddpsi + coef * m * (m - 1) * r ** (m - 2)
    return psi, dpsi, ddpsi


@dataclass(frozen=True)
class ManifoldModel:
    """A rotationally symmetric model manifold.

    Attributes
    ----------
    name : str
        "euclidean", "sphere", "hyperbolic" or "user".
    dim : int
        Manifold dimension n >= 2.
    kappa : float
        Constant in the Ricci lower bound Ric >= -(n-1)*kappa*g
        (0 for the Euclidean and sphere models).
    r_max : float
        Domain of the radial coordinate (pi/sqrt(curv) for the sphere,
        math.inf otherwise).
    curv_sign : float
        Sign of psi'' / psi for the named profiles: -1 sphere, +1
        hyperbolic, 0 Euclidean.  Drives the series branch and the
        defining ODE psi'' = curv_sign * curv * psi.
    curv : float
        Magnitude of the sectional-curvature parameter of the profile
        (equals kappa for the named curved models, 0 for Euclidean).
    """

    name: str
    dim: int
    kappa: float
    r_max: float
    curv_sign: float
    curv: float
    user_profile: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")
        if self.kappa < 0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa}")

    @property
    def r_series(self) -> float:
        """Crossover radius below which the Taylor branch is used."""
        scale = 1.0 if self.curv == 0 else max(1.0, 1.0 / math.sqrt(self.curv))
        return 1e-4 * scale

    # ------------------------------------------------------------------
    # warping profile
    # ------------------------------------------------------------------

    def warping_jet(self, r):
        """Return (psi, psi', psi'') at radius r (scalar or array).

        Named models use closed forms, switching to the series expansion
        below ``r_series``.  Exact for named models up to roundoff.
        """
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0) or np.any(r_arr >= self.r_max + 1e-15):
            raise DomainError(
                f"radius outside [0, r_max={self.r_max}) for model {self.name}"
            )
        if self.user_profile is not None:
            f, f1, f2 = self.user_profile
            out = (f(r_arr), f1(r_arr), f2(r_arr))
        else:
            out = self._named_jet(r_arr)
        if np.isscalar(r) or np.ndim(r) == 0:
            return tuple(float(np.asarray(v)) for v in out)
        return out

    def _named_jet(self, r):
        c = self.curv
        if self.curv_sign == 0 or c == 0.0:
            return r.copy(), np.ones_like(r), np.zeros_like(r)
        sq = math.sqrt(c)
        if self.curv_sign < 0:
            psi = np.sin(sq * r) / sq
            dpsi = np.cos(sq * r)
            ddpsi = -c * psi
        else:
            psi = np.sinh(sq * r) / sq
            dpsi = np.cosh(sq * r)
            ddpsi = c * psi
        small = r < self.r_series
        if np.any(small):
            ps, dps, ddps = _series_psi(r, self.curv_sign, c)
            psi = np.where(small, ps, psi)
            dpsi = np.where(small, dps, dpsi)
            ddpsi = np.where(small, ddps, ddpsi)
        return psi, dpsi, ddpsi

    # ------------------------------------------------------------------
    # curvature
    # ------------------------------------------------------------------

    def ricci_radial(self, r, direction: str = "radial"):
        """Ricci curvature Ric(e, e) for a unit radial or tangential vector.

        radial:      -(n-1) psi''/psi
        tangential:  -psi''/psi - (n-2)(psi'^2 - 1)/psi^2

        For a radial field X = v(r) d/dr, Ric(X, X) = v^2 * ricci_radial(r).
        r=0 is resolved by the series limit; r >= r_max is a domain error.
        """
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0) or np.any(r_arr >= self.r_max + 1e-15):
            raise DomainError("radius outside the model domain")
        n = self.dim
        if self.user_profile is None:
            # psi''/psi and (psi'^2-1)/psi^2 have exact constant values
            # curv_sign*curv for the named space forms.
            ratio = self.curv_sign * self.curv
            if direction == "radial":
                out = -(n - 1) * ratio * np.ones_like(r_arr)
            elif direction == "tangential":
                out = (-ratio - (n - 2) * ratio) * np.ones_like(r_arr)
            else:
                raise DomainError(f"unknown direction {direction!r}")
        else:
            psi, dpsi, ddpsi = self.warping_jet(r_arr)
            if direction == "radial":
                out = -(n - 1) * ddpsi / psi
            elif direction == "tangential":
                out = -ddpsi / psi - (n - 2) * (dpsi**2 - 1.0) / psi**2
            else:
                raise DomainError(f"unknown direction {direction!r}")
        if np.ndim(r) == 0:
            return float(np.asarray(out))
        return out

    # ------------------------------------------------------------------
    # metadata helpers
    # ------------------------------------------------------------------

    @property
    def has_nonnegative_ricci(self) -> bool:
        return self.name in ("euclidean", "sphere")


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def euclidean(dim: int) -> ManifoldModel:
    """Flat R^n: psi = r, kappa = 0."""
    return ManifoldModel("euclidean", dim, 0.0, math.inf, 0.0, 0.0)


def sphere(dim: int, curv: float = 1.0) -> ManifoldModel:
    """Round sphere of curvature ``curv`` > 0: psi = sin(sqrt(curv) r)/sqrt(curv).

    Ricci is positive, so the lower-bound constant kappa is 0.
    """
    if curv <= 0:
        raise DomainError("sphere curvature must be positive")
    return ManifoldModel(
        "sphere", dim, 0.0, math.pi / math.sqrt(curv), -1.0, curv
    )


def hyperbolic(dim: int, kappa: float = 1.0) -> ManifoldModel:
    """Hyperbolic space with Ric = -(n-1)*kappa*g: psi = sinh(sqrt(kappa) r)/sqrt(kappa)."""
    if kappa <= 0:
        raise DomainError("hyperbolic kappa must be positive")
    return ManifoldModel("hyperbolic", dim, kappa, math.inf, 1.0, kappa)


def user_warped(
    dim: int,
    psi: Callable,
    dpsi: Callable,
    ddpsi: Callable,
    kappa: float = 0.0,
    r_max: float = math.inf,
) -> ManifoldModel:
    """Warped product with a user profile given by analytic derivatives.

    The profile must satisfy psi(0)=0 and psi'(0)=1; both are checked at
    a small radius.  Internal differencing of user profiles is never
    performed, so first and second derivatives are required.
    """
    r0 = 1e-7
    if abs(float(psi(r0)) - r0) > 1e-10 or abs(float(dpsi(r0)) - 1.0) > 1e-6:
        raise PreconditionError("user profile must satisfy psi(0)=0, psi'(0)=1")
    return ManifoldModel(
        "user", dim, kappa, r_max, 0.0, 0.0, user_profile=(psi, dpsi, ddpsi)
    )


def model_from_name(name: str, dim: int, kappa: float = 1.0) -> ManifoldModel:
    """Build a named model from its string identifier."""
    if name == "euclidean":
        return euclidean(dim)
    if name == "sphere":
        return sphere(dim, curv=kappa if kappa > 0 else 1.0)
    if name == "hyperbolic":
        return hyperbolic(dim, kappa=kappa if kappa > 0 else 1.0)
    raise DomainError(f"unknown model name {name!r}")


# ----------------------------------------------------------------------
# volumes
# ----------------------------------------------------------------------

_QUAD_EPSREL = 1e-11
_QUAD_EPSABS_SCALE = 1e-10


def ball_volume(model: ManifoldModel, radius: float) -> float:
    """Volume of the geodesic ball B_R = omega_{n-1} * int_0^R psi^{n-1}.

    Adaptive quadrature; raises NumericalError if the achieved absolute
    error exceeds 1e-10 times the value.
    """
    from scipy.integrate import quad

    if not (0 < radius <= model.r_max):
        raise DomainError("ball radius outside (0, r_max]")
    n = model.dim

    def integrand(s):
        psi, _, _ = model.warping_jet(s)
        return psi ** (n - 1)

    val, err = quad(integrand, 0.0, radius, epsabs=1e-14, epsrel=_QUAD_EPSREL, limit=200)
    vol = unit_sphere_area(n) * val
    if err * unit_sphere_area(n) > _QUAD_EPSABS_SCALE * max(vol, 1e-30):
        raise NumericalError(f"ball volume quadrature did not converge (err={err:g})")
    return vol


def bishop_gromov_check(model: ManifoldModel, radii) -> dict:
    """Check that r -> Vol(B_r)/r^n is non-increasing on the given radii.

    Valid only for models with nonnegative Ricci (Euclidean, sphere);
    the comparison direction reverses on hyperbolic space.
    """
    if not model.has_nonnegative_ricci:
        raise PreconditionError(
            "volume comparison in this direction requires nonnegative Ricci"
        )
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise PreconditionError("need at least two radii")
    if radii[0] <= 0 or radii[-1] > model.r_max:
        raise DomainError("radii outside the model domain")
    ratios = [ball_volume(model, r) / r**model.dim for r in radii]
    diffs = np.diff(ratios)
    scale = max(abs(x) for x in ratios)
    monotone = bool(np.all(diffs <= 1e-12 * scale))
    return {
        "model": model.name,
        "dim": model.dim,
        "radii": radii,
        "ratios": ratios,
        "non_increasing": monotone,
        "tol": 1e-12 * scale,
    }


def warped_from_config(config: dict) -> ManifoldModel:
    """Build a model from a config entry.

    Named models: {"model": "euclidean"|"sphere"|"hyperbolic",
    "dim": n, "kappa": k}.  User profiles use a fixed set of expression
    primitives for psi:

      {"model": "user", "dim": n, "kappa": k, "r_max": R,
       "profile": {"kind": "odd_polynomial", "coefficients": [c3, c5, ...]}}

    with psi = r + c3 r^3 + c5 r^5 + ... (the leading coefficient is
    pinned to 1 by the series-start normalization); derivatives are
    generated analytically from the coefficients.
    """
    name = config.get("model", "euclidean")
    dim = int(config["dim"])
    kappa = float(config.get("kappa", 1.0))
    if name != "user":
        return model_from_name(name, dim, kappa)
    profile = config.get("profile", {})
    if profile.get("kind") != "odd_polynomial":
        raise DomainError("user profiles support only the odd_polynomial primitive")
    coeffs = [float(c) for c in profile.get("coefficients", [])]
    powers = [(c, 2 * k + 3) for k, c in enumerate(coeffs)]

    def psi(r):
        r = np.asarray(r, dtype=float)
        return r + sum(c * r**m for c, m in powers)

    def dpsi(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + sum(c * m * r ** (m - 1) for c, m in powers)

    def ddpsi(r):
        r = np.asarray(r, dtype=float)
        return np.zeros_like(r) + sum(c * m * (m - 1) * r ** (m - 2) for c, m in powers)

    return user_warped(
        dim, psi, dpsi, ddpsi, kappa=kappa,
        r_max=float(config.get("r_max", math.inf)),
    )
