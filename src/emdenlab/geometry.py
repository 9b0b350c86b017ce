"""Rotationally symmetric model manifolds in radial coordinates.

A model is the warped product  dr^2 + psi(r)^2 g_{S^{n-1}}  with profile
psi(0)=0, psi'(0)=1.  The named models solve  psi'' = c psi  for one
signed constant c: Euclidean space (c = 0, psi = r), the round sphere of
curvature K (c = -K, psi = sin(sqrt(K) r)/sqrt(K)) and hyperbolic space
with Ric = -(n-1) kappa g (c = kappa, psi = sinh(sqrt(kappa) r)/sqrt(kappa)).
A user model supplies psi, psi' and psi'' itself.  The module supplies
the warping jet, radial/tangential Ricci curvature and its least value
``ricci_min``, geodesic-ball volumes and the volume-comparison
monotonicity check, the adaptive quadrature (``quad``) that the ball
volumes and the estimates' ball norms use, and the least-squares line
(``line_fit``) of the tail exponents and the estimates' extrapolations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InputError, NumericalError, PreconditionError
from .taylor import real

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

def unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


#: radii on which a user model's sign conditions are sampled
_RICCI_GRID = np.geomspace(1e-3, 1e3, 241)
_RICCI_GRID.setflags(write=False)


@dataclass(frozen=True)
class ManifoldModel:
    """A rotationally symmetric model manifold.

    Attributes
    ----------
    name : str
        "euclidean", "sphere", "hyperbolic" or "user".
    dim : int
        Manifold dimension n >= 2.
    r_max : float
        Domain of the radial coordinate (pi/sqrt(K) for the sphere of
        curvature K, math.inf otherwise).
    warp_c : float
        The signed constant c of a named profile, psi'' = c psi: -K on the
        sphere of curvature K, +kappa on hyperbolic space, 0 on R^n.  It
        is minus the sectional curvature.  User models carry 0; their
        psi'' comes from the profile.

    Every curvature hypothesis reads one derived number, ``ricci_min``,
    the least Ricci curvature of the model.
    """

    name: str
    dim: int
    r_max: float
    warp_c: float
    user_profile: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dim must be >= 2, got {self.dim}")

    # ------------------------------------------------------------------
    # warping profile
    # ------------------------------------------------------------------

    def warping_jet(self, r):
        """Return (psi, psi', psi'') at radius r (scalar or array).

        Named models use the closed forms r, sin and sinh, with psi''
        formed as c * psi, so they satisfy psi'' = c psi bit for bit.
        """
        r_arr = real(r)
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
        c = self.warp_c
        if c == 0.0:
            return r.copy(), np.ones_like(r), np.zeros_like(r)
        sq = math.sqrt(abs(c))
        if c < 0:
            psi = np.sin(sq * r) / sq
            dpsi = np.cos(sq * r)
        else:
            psi = np.sinh(sq * r) / sq
            dpsi = np.cosh(sq * r)
        return psi, dpsi, c * psi

    # ------------------------------------------------------------------
    # curvature
    # ------------------------------------------------------------------

    def ricci_radial(self, r, direction: str = "radial"):
        """Ricci curvature Ric(e, e) for a unit radial or tangential vector.

        radial:      -(n-1) psi''/psi
        tangential:  -psi''/psi - (n-2)(psi'^2 - 1)/psi^2

        For a radial field X = v(r) d/dr, Ric(X, X) = v^2 * ricci_radial(r).
        On a named model both ratios equal c, so the value is the same
        constant at every radius, r = 0 included.  A user model's ratios
        are 0/0 at r = 0, so there r = 0 is a domain error, as is
        r >= r_max on every model.
        """
        r_arr = real(r)
        user = self.user_profile is not None
        if (np.any(r_arr < 0) or np.any(r_arr >= self.r_max + 1e-15)
                or (user and np.any(r_arr == 0))):
            raise DomainError("radius outside the model domain")
        n = self.dim
        if not user:
            c = self.warp_c
            if direction == "radial":
                out = -(n - 1) * c * np.ones_like(r_arr)
            elif direction == "tangential":
                out = (-c - (n - 2) * c) * np.ones_like(r_arr)
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

    @property
    def ricci_min(self) -> float:
        """The least Ricci curvature Ric(e, e) over unit vectors e.

        -(n-1) c on a named model.  On a user model, the least radial or
        tangential value on the radii of _RICCI_GRID below r_max: a sampled
        value, as the reaction-term conditions are; one not finite reads nan.
        """
        if self.user_profile is None:
            return -(self.dim - 1) * self.warp_c
        r = _RICCI_GRID[_RICCI_GRID < self.r_max]
        with np.errstate(all="ignore"):
            least = min(np.min(self.ricci_radial(r, direction), initial=np.inf)
                        for direction in ("radial", "tangential"))
        return float(least) if math.isfinite(least) else math.nan

    @property
    def has_nonnegative_ricci(self) -> bool:
        """Whether Ric >= 0, read from ricci_min (nan reads False)."""
        return self.ricci_min >= 0


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def euclidean(dim: int) -> ManifoldModel:
    """Flat R^n: psi = r."""
    return ManifoldModel("euclidean", dim, math.inf, 0.0)


def sphere(dim: int, curv: float = 1.0) -> ManifoldModel:
    """Round sphere of curvature ``curv`` > 0: psi = sin(sqrt(curv) r)/sqrt(curv)."""
    if curv <= 0:
        raise DomainError("sphere curvature must be positive")
    return ManifoldModel("sphere", dim, math.pi / math.sqrt(curv), -curv)


def hyperbolic(dim: int, kappa: float = 1.0) -> ManifoldModel:
    """Hyperbolic space with Ric = -(n-1)*kappa*g: psi = sinh(sqrt(kappa) r)/sqrt(kappa)."""
    if kappa <= 0:
        raise DomainError("hyperbolic kappa must be positive")
    return ManifoldModel("hyperbolic", dim, math.inf, kappa)


def user_warped(
    dim: int,
    psi: Callable,
    dpsi: Callable,
    ddpsi: Callable,
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
    return ManifoldModel("user", dim, r_max, 0.0, user_profile=(psi, dpsi, ddpsi))


def model_from_name(name: str, dim: int, kappa: float = 1.0) -> ManifoldModel:
    """Build a named model; ``kappa`` is the sphere's K or H^n's kappa."""
    if name == "euclidean":
        return euclidean(dim)
    if name == "sphere":
        return sphere(dim, curv=kappa)
    if name == "hyperbolic":
        return hyperbolic(dim, kappa=kappa)
    raise DomainError(f"unknown model name {name!r}")


# ----------------------------------------------------------------------
# volumes
# ----------------------------------------------------------------------

#: the two Gauss-Legendre orders compared on each panel of ``quad`` (the
#: rules of _legendre_rules), and its panel budget (QUADPACK's default
#: ``limit``)
_GL_ORDERS = (10, 21)
_QUAD_PANELS = 200


def _legendre_rules():
    """The Gauss-Legendre rules of _GL_ORDERS on [-1, 1] as literals:
    ((nodes, weights) of order 10, (nodes, weights) of order 21).

    Each value is the repr of the double that numpy's
    ``numpy.polynomial.legendre.leggauss`` gives for it, so the tables
    equal its output bit for bit (an oracle test checks this) without
    importing numpy.polynomial or running its eigen-solve.
    """
    return (
        (  # order 10
            (-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
             -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
             0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
             0.9739065285171717),
            (0.06667134430868814, 0.1494513491505804, 0.219086362515982,
             0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
             0.2692667193099965, 0.219086362515982, 0.1494513491505804,
             0.06667134430868814),
        ),
        (  # order 21
            (-0.9937521706203895, -0.9672268385663063, -0.9200993341504008,
             -0.8533633645833173, -0.7684399634756779, -0.6671388041974123,
             -0.5516188358872198, -0.4243421202074388, -0.2880213168024011,
             -0.1455618541608951, 0.0, 0.1455618541608951, 0.2880213168024011,
             0.4243421202074388, 0.5516188358872198, 0.6671388041974123,
             0.7684399634756779, 0.8533633645833173, 0.9200993341504008,
             0.9672268385663063, 0.9937521706203895),
            (0.01601722825777436, 0.03695378977085188, 0.05713442542685717,
             0.07610011362837911, 0.09344442345603395, 0.1087972991671484,
             0.12183141605372864, 0.13226893863333763, 0.1398873947910734,
             0.14452440398997027, 0.1460811336496907, 0.14452440398997027,
             0.1398873947910734, 0.13226893863333763, 0.12183141605372864,
             0.1087972991671484, 0.09344442345603395, 0.07610011362837911,
             0.05713442542685717, 0.03695378977085188, 0.01601722825777436),
        ),
    )


@functools.cache
def _gauss_legendre():
    """Both rules' nodes on [0, 1], stacked, and their weights as two
    rows (low order, high order) over the stacked nodes, mapped from the
    literal tables of _legendre_rules at the first quadrature."""
    lo, hi = _GL_ORDERS
    (x_lo, w_lo), (x_hi, w_hi) = _legendre_rules()
    nodes = (np.array(x_lo + x_hi) + 1.0) / 2.0
    weights = np.zeros((2, lo + hi))
    weights[0, :lo] = np.array(w_lo) / 2.0
    weights[1, lo:] = np.array(w_hi) / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quad(f, a: float, b: float, epsabs: float, epsrel: float):
    """(int_a^b f, error estimate) by adaptive composite Gauss-Legendre.

    ``f`` takes a 1-d array of radii in (a, b) and returns its values
    there.  On each panel the _GL_ORDERS rules are compared: the panel's
    value is the higher-order sum and its error the difference of the
    two.  Panels whose error exceeds their width's share of the
    tolerance max(epsabs, epsrel |value|) are bisected, all in one
    evaluation of ``f``, until the summed error is within it.  A panel's
    two sums are elementwise products with the weight rows, summed over
    the node axis: a quadrature calls no BLAS routine.  Raises
    NumericalError on a value that is not finite (floating-point warnings
    are silenced: an overflow shows as one) or when more than
    _QUAD_PANELS panels would be needed.
    """
    nodes, weights = _gauss_legendre()
    left, width = np.array([a], dtype=float), np.array([b - a], dtype=float)
    closed_val = closed_err = 0.0
    panels = 1
    while True:
        with np.errstate(all="ignore"):  # an overflow is a non-finite value
            fx = np.asarray(f((left[:, None] + width[:, None] * nodes).ravel()),
                            dtype=float)
        if not np.all(np.isfinite(fx)):
            raise NumericalError("quadrature integrand is not finite")
        sums = (fx.reshape(left.size, 1, nodes.size) * weights).sum(axis=2) * width[:, None]
        val, err = sums[:, 1], np.abs(sums[:, 1] - sums[:, 0])
        total, total_err = closed_val + val.sum(), closed_err + err.sum()
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol:
            return float(total), float(total_err)
        split = err > tol * width / (b - a)
        closed_val += val[~split].sum()
        closed_err += err[~split].sum()
        panels += int(split.sum())
        if panels > _QUAD_PANELS:
            raise NumericalError(
                f"quadrature needs more than {_QUAD_PANELS} panels")
        left, width = left[split], width[split] / 2.0
        left, width = np.concatenate([left, left + width]), np.concatenate([width, width])


def line_fit(x, y):
    """(slope, intercept) of the least-squares line through (x, y).

    The closed form on centred data: with dx = x - mean(x) and
    dy = y - mean(y), slope = sum(dx dy) / sum(dx^2) and intercept =
    mean(y) - slope mean(x), from elementwise products and sums, so a fit
    calls no BLAS or LAPACK routine.  Centring first keeps it accurate
    on data far from the origin (x ~ 1e3 +- 1e-3), where the Vandermonde
    least squares of ``np.polyfit`` loses digits.  Raises
    PreconditionError on fewer than two distinct x, and NumericalError
    on an input, or a fit (one past the floats), that is not finite.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericalError("line fit data is not finite")
    if x.size < 2 or np.all(x == x[0]):
        raise PreconditionError("a line fit needs at least two distinct x")
    with np.errstate(all="ignore"):  # an overflow is a non-finite fit
        x_mean, y_mean = x.mean(), y.mean()
        dx = x - x_mean
        sxx = (dx * dx).sum()
        slope = (dx * (y - y_mean)).sum() / sxx
        intercept = y_mean - slope * x_mean
    if not all(map(math.isfinite, (sxx, slope, intercept))):
        raise NumericalError("line fit is not finite")
    return float(slope), float(intercept)


_QUAD_EPSREL = 1e-11
_QUAD_EPSABS_SCALE = 1e-10


def ball_volume(model: ManifoldModel, radius: float) -> float:
    """Volume of the geodesic ball B_R = omega_{n-1} * int_0^R psi^{n-1}.

    Adaptive quadrature (``quad``); raises NumericalError if the achieved
    absolute error exceeds 1e-10 times the value.
    """
    if not (0 < radius <= model.r_max):
        raise DomainError("ball radius outside (0, r_max]")
    n = model.dim

    def integrand(s):
        psi, _, _ = model.warping_jet(s)
        return psi ** (n - 1)

    val, err = quad(integrand, 0.0, radius, epsabs=1e-14, epsrel=_QUAD_EPSREL)
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


#: the keys a config entry of each kind reads
_NAMED_KEYS = frozenset({"model", "dim", "kappa"})
_USER_KEYS = frozenset({"model", "dim", "r_max", "profile"})
_PROFILE_KEYS = frozenset({"kind", "coefficients"})


def _reject_unknown_keys(entry: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise InputError(f"unknown keys for {what}: {unknown}; "
                         f"allowed: {sorted(allowed)}")


def warped_from_config(config: dict) -> ManifoldModel:
    """Build a model from a config entry.

    Named models: {"model": "euclidean"|"sphere"|"hyperbolic",
    "dim": n, "kappa": k}.  User profiles use a fixed set of expression
    primitives for psi:

      {"model": "user", "dim": n, "r_max": R,
       "profile": {"kind": "odd_polynomial", "coefficients": [c3, c5, ...]}}

    with psi = r + c3 r^3 + c5 r^5 + ... (the leading coefficient is
    pinned to 1 by the series-start normalization); derivatives are
    generated analytically from the coefficients.  A key the entry or its
    profile does not read (a named model's "r_max", a user model's
    "kappa", a misspelt key) raises InputError naming it.
    """
    name = config.get("model", "euclidean")
    _reject_unknown_keys(config, _USER_KEYS if name == "user" else _NAMED_KEYS,
                         f"a {name!r} model entry")
    dim = int(config["dim"])
    if name != "user":
        return model_from_name(name, dim, float(config.get("kappa", 1.0)))
    profile = config.get("profile", {})
    if profile.get("kind") != "odd_polynomial":
        raise DomainError("user profiles support only the odd_polynomial primitive")
    _reject_unknown_keys(profile, _PROFILE_KEYS, "an odd_polynomial profile")
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

    return user_warped(dim, psi, dpsi, ddpsi, r_max=float(config.get("r_max", math.inf)))
