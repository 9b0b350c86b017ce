"""Quantitative estimate experiments: log-gradient bounds and Harnack ratios.

The global bound under test:  for positive solutions of -lap_p u = f(u)
on a manifold with Ric >= -(n-1) kappa g and f satisfying the
delta0-condition,

    sup |grad ln u|  <=  (n-1)/(p-1) * sqrt(kappa / (1 - delta0+)).

Its extremal on hyperbolic space is the explicit radial p-harmonic
profile u(r) = int_r^inf sinh(sqrt(kappa) s)^{-(n-1)/(p-1)} ds, whose
log-gradient increases to the bound at infinity; the local counterpart
is the scale-invariant quantity R * sup_{B_{R/4}} |grad ln u| tested on
dilation-coherent p-harmonic families.  The weak Harnack inequality and
the local maximum principle are tested as ratio stability bands, since
their constants are existence-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import InputError, NumericalError, PreconditionError
from .exponents import HarnackConfig
from .geometry import ball_volume, euclidean, unit_sphere_area
from .jets import _radial_p_laplacian

__all__ = [
    "LogGradientProfile",
    "hn_p_harmonic_profile",
    "global_bound_check",
    "harmonic_family",
    "local_scaling_check",
    "RadialProfileSpec",
    "named_profile",
    "certify_p_superharmonic",
    "weak_harnack_ratio",
    "local_max_principle_ratio",
]


@dataclass(frozen=True)
class LogGradientProfile:
    """Radial profile with its log-gradient magnitude along a grid."""

    grid: np.ndarray
    u: np.ndarray
    g: np.ndarray
    sup_g: float
    limit_estimate: float
    certified: bool
    residual_max: float


def hn_p_harmonic_profile(n: int, p: float, kappa: float, grid=None,
                          r_tail: float = None) -> LogGradientProfile:
    """The explicit radial p-harmonic extremal on hyperbolic space.

    u(r) = int_r^inf sinh(sqrt(kappa) s)^{-beta} ds with
    beta = (n-1)/(p-1); the flux sinh^{n-1} |u'|^{p-2} u' is constant,
    so p-harmonicity is exact and the plug-in residual only measures
    roundoff.  g = |u'|/u decreases to (n-1) sqrt(kappa)/(p-1), the
    global bound, approaching it like e^{-2 sqrt(kappa) r}.

    The profile is singular at the pole (p-harmonic on the punctured
    space only), so the default grid lives in the tail regime
    [9/sqrt(kappa), 30/sqrt(kappa)] where it proxies an entire solution
    to within ~1e-7 of the bound; pass an explicit grid to inspect the
    pole excess.
    """
    if kappa <= 0 or p <= 1 or n < 2:
        raise PreconditionError("need kappa > 0, p > 1, n >= 2")
    beta = (n - 1.0) / (p - 1.0)
    sq = math.sqrt(kappa)
    if grid is None:
        r_tail = r_tail if r_tail is not None else 30.0 / sq
        grid = np.geomspace(9.0 / sq, r_tail, 160)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise PreconditionError("grid must be positive radii")

    def integrand(s):
        x = sq * s
        if x > 1.0:
            # overflow-safe tail form: sinh(x)^-beta = 2^b e^{-bx}(1-e^{-2x})^-b
            return 2.0**beta * math.exp(-beta * x) * (1.0 - math.exp(-2.0 * x)) ** (-beta)
        return math.sinh(x) ** (-beta)

    u = np.empty_like(grid)
    # integrate the tail piecewise from the right for stability
    tail, _ = quad(integrand, grid[-1], np.inf, epsabs=0.0, epsrel=1e-12)
    if not np.isfinite(tail) or tail <= 0:
        raise NumericalError("tail quadrature failed")
    u[-1] = tail
    for i in range(len(grid) - 2, -1, -1):
        seg, _ = quad(integrand, grid[i], grid[i + 1], epsabs=0.0, epsrel=1e-12)
        u[i] = u[i + 1] + seg
    du = -np.sinh(sq * grid) ** (-beta)
    ddu = beta * sq * np.cosh(sq * grid) * np.sinh(sq * grid) ** (-beta - 1.0)
    coth = np.cosh(sq * grid) / np.sinh(sq * grid)
    plap, scale = _radial_p_laplacian(p, du, ddu, (n - 1) * sq * coth * du)
    res_max = float((np.abs(plap) / scale).max())
    g = np.abs(du) / u
    sup_g = float(g.max())
    # tail extrapolation of the increasing log-gradient on 1/r
    k = min(10, len(grid) // 4)
    inv_r = 1.0 / grid[-k:]
    slope, intercept = np.polyfit(inv_r, g[-k:], 1)
    return LogGradientProfile(
        grid=grid,
        u=u,
        g=g,
        sup_g=sup_g,
        limit_estimate=float(intercept),
        certified=res_max <= 1e-9,
        residual_max=res_max,
    )


#: a profile is sharp when its tail extrapolation reaches this share of the bound
_SHARP_FRAC = 0.99


def global_bound_check(profile: LogGradientProfile, n: int, p: float,
                       kappa: float, delta0: float = 0.0) -> dict:
    """sup g against (n-1)/(p-1) sqrt(kappa/(1-delta0+)).

    The profile must be certified (plug-in residual passed); the
    sharpness flag fires when the tail extrapolation reaches 99% of the
    bound (the extremal attains it only asymptotically).
    """
    if not profile.certified:
        raise PreconditionError("profile is not certified as a solution")
    if delta0 >= 1:
        raise PreconditionError("delta0 must be < 1")
    d0p = max(0.0, delta0)
    bound = (n - 1.0) / (p - 1.0) * math.sqrt(kappa / (1.0 - d0p))
    passed = profile.sup_g <= bound * (1.0 + 1e-6)
    return {
        "bound": bound,
        "sup_g": profile.sup_g,
        "limit_estimate": profile.limit_estimate,
        "margin": bound - profile.sup_g,
        "pass": bool(passed),
        "sharp": bool(profile.limit_estimate >= _SHARP_FRAC * bound),
        "sharp_frac": _SHARP_FRAC,
    }


# ----------------------------------------------------------------------
# local scaling structure
# ----------------------------------------------------------------------


def _sorted_radii(radii) -> list:
    """The radii in increasing order; a sweep needs at least one."""
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise PreconditionError("need at least one radius")
    return radii


def harmonic_family(n: int, p: float):
    """The documented p-harmonic families for the local scaling check.

    * dilation-coherent affine members u_R(x) = 1 + x1/R on B_R
      (affine functions are p-harmonic for every p);
    * the power profile |x - x0|^{(p-n)/(p-1)} with x0 = 3R e1 (the
      radial p-harmonic exponent; singularity kept outside B_{2R}),
      included when p != n.
    """
    members = [{"kind": "affine_dilated", "n": n, "p": p}]
    if p != n:
        members.append({"kind": "fundamental", "n": n, "p": p})
    return members


#: points of the dense search along a member's extremal segment
_MEMBER_POINTS = 4001
#: largest |log-log slope| of R * sup |grad ln u| that counts as no trend
_SLOPE_TOL = 0.05


def _member_quantity(member: dict, radius: float):
    """R * sup_{B_{R/4}} |grad ln u| by dense search along the extremal
    segment (both families have |grad ln u| monotone along the e1 axis)."""
    n = member["n"]
    p = member["p"]
    quarter = radius / 4.0
    ts = np.linspace(-quarter, quarter, _MEMBER_POINTS)
    if member["kind"] == "affine_dilated":
        u_vals = 1.0 + ts / radius
        if np.any(u_vals <= 0):
            raise InputError("affine member not positive on its ball")
        h = (1.0 / radius) / u_vals
        certified = True  # hessian vanishes identically
    elif member["kind"] == "fundamental":
        beta = (p - n) / (p - 1.0)
        x0 = 3.0 * radius
        dist = np.abs(x0 - ts)
        h = np.abs(beta) / dist
        core = (p - 1.0) * beta * (beta - 1.0) + (n - 1) * beta
        certified = abs(core) <= 1e-12 * (abs(beta) + 1.0) * (n + p)
    else:
        raise InputError(f"unknown family member kind {member['kind']!r}")
    if not certified:
        raise PreconditionError("member failed p-harmonicity certification")
    return radius * float(h.max())


def local_scaling_check(n: int, p: float, radii=(1.0, 2.0, 4.0, 8.0)) -> dict:
    """Finiteness and R-stability of R * sup_{B_{R/4}} |grad ln u|.

    The constant itself is not pinned anywhere, so this is a structure
    check: the quantity must be finite and show no growth trend in R
    (log-log slope within +-_SLOPE_TOL for each family member).
    """
    radii = _sorted_radii(radii)
    out = {"n": n, "p": p, "radii": radii, "members": [], "pass": True,
           "slope_tol": _SLOPE_TOL}
    for member in harmonic_family(n, p):
        q_vals = [_member_quantity(member, r) for r in radii]
        slope = (
            float(np.polyfit(np.log(radii), np.log(q_vals), 1)[0])
            if len(radii) >= 2
            else 0.0
        )
        finite = all(np.isfinite(q_vals))
        ok = finite and abs(slope) <= _SLOPE_TOL
        out["members"].append(
            {
                "kind": member["kind"],
                "quantities": q_vals,
                "log_slope": slope,
                "pass": bool(ok),
            }
        )
        out["pass"] = out["pass"] and ok
    return out


# ----------------------------------------------------------------------
# weak Harnack / local maximum principle ratios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfileSpec:
    """A closed-form radial profile with analytic first two derivatives."""

    name: str
    u: Callable
    du: Callable
    ddu: Callable


def named_profile(name: str) -> RadialProfileSpec:
    """The certified profile library for the ratio experiments.

    constant       u = 1
    inverse_sqrt   u = (1 + r^2)^{-1/2}   (superharmonic for n >= 3, p = 2)
    smoothed_cap   u = (1 + r^4)^{-1/4}   (smooth cap of min(1, 1/r), n = 3)
    """
    if name == "constant":
        one = lambda r: np.ones_like(np.asarray(r, dtype=float))
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        return RadialProfileSpec("constant", one, zero, zero)
    if name == "inverse_sqrt":
        return RadialProfileSpec(
            "inverse_sqrt",
            lambda r: (1.0 + r**2) ** -0.5,
            lambda r: -r * (1.0 + r**2) ** -1.5,
            lambda r: (2.0 * r**2 - 1.0) * (1.0 + r**2) ** -2.5,
        )
    if name == "smoothed_cap":
        return RadialProfileSpec(
            "smoothed_cap",
            lambda r: (1.0 + r**4) ** -0.25,
            lambda r: -(r**3) * (1.0 + r**4) ** -1.25,
            lambda r: (2.0 * r**6 - 3.0 * r**2) * (1.0 + r**4) ** -2.25,
        )
    raise InputError(f"unknown profile {name!r}")


#: superharmonicity certificate: radial grid size and normalized slack
_CERTIFY_POINTS = 2000
_CERTIFY_TOL = 1e-10


def certify_p_superharmonic(spec: RadialProfileSpec, n: int, p: float,
                            r_max: float) -> dict:
    """Pointwise check that -lap_p u >= -_CERTIFY_TOL * scale on the
    radial grid.

    Profiles failing anywhere are rejected (never clipped).
    """
    r = np.linspace(1e-6, r_max, _CERTIFY_POINTS)
    du = spec.du(r)
    plap, scale = _radial_p_laplacian(p, du, spec.ddu(r), (n - 1) * du / r)
    plap = np.where(np.abs(du) > 0, plap, 0.0)
    scale = np.where(np.abs(du) > 0, scale, 1.0)
    margin = -plap / np.maximum(scale, 1e-30)
    ok = bool(np.all(margin >= -_CERTIFY_TOL))
    return {
        "profile": spec.name,
        "n": n,
        "p": p,
        "certified": ok,
        "worst_margin": float(margin.min()),
        "tol": _CERTIFY_TOL,
    }


def _ball_lq_norm(spec: RadialProfileSpec, power: float, q: float, radius: float,
                  n: int) -> float:
    """(int_{B_R} (u^power)^q dV)^{1/q} on Euclidean space by quadrature."""

    def integrand(s):
        return float(spec.u(s)) ** (power * q) * s ** (n - 1)

    val, err = quad(integrand, 0.0, radius, epsabs=1e-13, epsrel=1e-11, limit=200)
    if err > 1e-8 * max(abs(val), 1e-30):
        raise NumericalError("ball norm quadrature did not converge")
    return (unit_sphere_area(n) * val) ** (1.0 / q)


def _ball_min(spec: RadialProfileSpec, radius: float) -> float:
    """inf_{B_R} u, searched on 4000 radii."""
    return float(spec.u(np.linspace(0.0, radius, 4000)).min())


#: largest max/min spread of a ratio across the R sweep
_RATIO_BAND = 1e3


def weak_harnack_ratio(profile: str | RadialProfileSpec, n: int, p: float,
                       q: float, radii=(1, 2, 4, 8, 16, 32)) -> dict:
    """rho(R) = inf_{B_R} u / (R^{-n/q} ||u||_{L^q(B_2R)}) across radii.

    A property check: rho must stay positive and its spread across the
    R sweep must stay within _RATIO_BAND (the inequality's
    constant is existence-only).  Requires certified p-superharmonicity
    on the swept region and q inside (0, (p-1) chi).
    """
    spec = named_profile(profile) if isinstance(profile, str) else profile
    HarnackConfig(n=n, p=p, q=q)
    radii = _sorted_radii(radii)
    cert = certify_p_superharmonic(spec, n, p, r_max=2.0 * radii[-1])
    if not cert["certified"]:
        raise PreconditionError(
            f"profile {spec.name!r} failed superharmonicity certification"
        )
    rows = []
    for radius in radii:
        inf_u = _ball_min(spec, radius)
        norm = _ball_lq_norm(spec, 1.0, q, 2.0 * radius, n)
        rho = inf_u / (radius ** (-n / q) * norm)
        rows.append({"R": radius, "inf_u": inf_u, "norm": norm, "rho": rho})
    rhos = np.array([row["rho"] for row in rows])
    out = {
        "kind": "weak_harnack",
        "quad_epsrel": 1e-11,
        "profile": spec.name,
        "n": n,
        "p": p,
        "q": q,
        "rows": rows,
        "min_rho": float(rhos.min()),
        "band": float(rhos.max() / rhos.min()),
        "band_limit": _RATIO_BAND,
        "certification": cert,
        "pass": bool(rhos.min() > 0 and rhos.max() / rhos.min() <= _RATIO_BAND),
    }
    return out


def local_max_principle_ratio(profile: str | RadialProfileSpec, n: int, p: float,
                              q: float, radii=(1, 2, 4, 8, 16)) -> dict:
    """sup_{B_{R/2}} u^{-1} / (V_R^{-1/q} ||u^{-1}||_{L^q(B_R)}) stability."""
    spec = named_profile(profile) if isinstance(profile, str) else profile
    if q <= 0:
        raise PreconditionError("q must be positive")
    radii = _sorted_radii(radii)
    cert = certify_p_superharmonic(spec, n, p, r_max=2.0 * radii[-1])
    if not cert["certified"]:
        raise PreconditionError(
            f"profile {spec.name!r} failed superharmonicity certification"
        )
    model = euclidean(n)
    rows = []
    for radius in radii:
        sup_inv = 1.0 / _ball_min(spec, radius / 2.0)
        norm = _ball_lq_norm(spec, -1.0, q, radius, n)
        vol = ball_volume(model, radius)
        ratio = sup_inv / (vol ** (-1.0 / q) * norm)
        rows.append({"R": radius, "sup_inv": sup_inv, "norm": norm, "ratio": ratio})
    ratios = np.array([row["ratio"] for row in rows])
    return {
        "kind": "local_max_principle",
        "quad_epsrel": 1e-11,
        "profile": spec.name,
        "n": n,
        "p": p,
        "q": q,
        "rows": rows,
        "band": float(ratios.max() / ratios.min()),
        "band_limit": _RATIO_BAND,
        "certification": cert,
        "pass": bool(ratios.min() > 0 and ratios.max() / ratios.min() <= _RATIO_BAND),
    }
